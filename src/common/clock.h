#ifndef BULLFROG_COMMON_CLOCK_H_
#define BULLFROG_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

namespace bullfrog {

/// Monotonic time helpers used by the harness and background threads.
/// All timestamps in the library are nanoseconds from an arbitrary epoch.
class Clock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  static TimePoint Now() { return std::chrono::steady_clock::now(); }

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Now().time_since_epoch())
        .count();
  }

  static int64_t NowMicros() { return NowNanos() / 1000; }

  static double SecondsSince(TimePoint start) {
    return std::chrono::duration<double>(Now() - start).count();
  }

  static void SleepMicros(int64_t us) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  static void SleepMillis(int64_t ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
};

/// A simple stopwatch: constructed running, Elapsed* report time since
/// construction or the last Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::Now()) {}

  void Restart() { start_ = Clock::Now(); }

  double ElapsedSeconds() const { return Clock::SecondsSince(start_); }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::Now() -
                                                                start_)
        .count();
  }
  int64_t ElapsedMillis() const { return ElapsedNanos() / 1000000; }

 private:
  Clock::TimePoint start_;
};

}  // namespace bullfrog

#endif  // BULLFROG_COMMON_CLOCK_H_
