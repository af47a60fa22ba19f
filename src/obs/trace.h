#ifndef BULLFROG_OBS_TRACE_H_
#define BULLFROG_OBS_TRACE_H_

// Migration lifecycle tracer.
//
// Captures the timeline the paper's narrative cares about: when a
// migration was submitted, when its logical switch published, when the
// first client transaction lazily pulled rows through the tracker, when
// the background migrator started sweeping, per-chunk progress
// breadcrumbs, and completion. Events are rare (lifecycle transitions
// plus throttled chunk breadcrumbs), so a mutex-protected ring buffer
// is fine — nothing on the per-row migration fast path records here.
//
// The ring keeps the most recent `capacity` events; older ones are
// dropped and counted, so a long-running daemon's trace stays bounded.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"

namespace bullfrog::obs {

enum class TraceEventKind : uint8_t {
  kSubmit,           // Migration script admitted by the controller.
  kSwitch,           // Logical switch published (new schema visible).
  kFirstLazyPull,    // First client statement pulled rows through a tracker.
  kBackgroundStart,  // Background migrator began sweeping.
  kChunk,            // Background chunk progress breadcrumb (throttled).
  kComplete,         // All granules migrated; old tables dropped.
  kRecovery,         // Restarted primary took over a replayed migration.
};

const char* TraceEventKindName(TraceEventKind kind);

struct TraceEvent {
  double t_seconds;  // Seconds since tracer construction (process start).
  TraceEventKind kind;
  std::string migration;  // Output-table name(s) identifying the migration.
  std::string detail;     // Free-form, e.g. "strategy=lazy stmts=2".
};

class MigrationTracer {
 public:
  explicit MigrationTracer(size_t capacity = 512);
  MigrationTracer(const MigrationTracer&) = delete;
  MigrationTracer& operator=(const MigrationTracer&) = delete;

  void Record(TraceEventKind kind, const std::string& migration,
              std::string detail = "");

  /// Oldest-first snapshot of the retained events.
  std::vector<TraceEvent> Events() const;
  uint64_t dropped() const;
  size_t size() const;

  /// Human-readable rendering: one "+<t>s <kind> <migration> <detail>"
  /// line per event, newest last. `max_events` = 0 renders everything;
  /// otherwise only the most recent `max_events`.
  std::string Render(size_t max_events = 0) const;

  /// Per-migration stream: only the retained events whose `migration` tag
  /// equals `migration`, newest last. With concurrent train entries the
  /// shared ring interleaves their lifecycles; this untangles one entry's
  /// timeline for the ADMIN train report.
  std::string RenderFor(const std::string& migration,
                        size_t max_events = 0) const;

  void Reset();

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;        // Ring write cursor once full.
  uint64_t dropped_ = 0;   // Events overwritten after the ring filled.
  Stopwatch since_start_;  // Event timestamps are relative to this.
};

}  // namespace bullfrog::obs

#endif  // BULLFROG_OBS_TRACE_H_
