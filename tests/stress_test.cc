// Failure-injection and contention stress tests: the §3.5 guarantee that
// conflicting migration efforts keep making progress and never duplicate
// or lose tuples, even when migration transactions abort randomly — for
// every unit kind (tests/unit_kinds.h).

#include <atomic>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "migration/background.h"
#include "migration/statement_migrator.h"
#include "query/expr.h"
#include "unit_kinds.h"

namespace bullfrog {
namespace {

class StressTest
    : public ::testing::TestWithParam<std::tuple<UnitKind, uint64_t>> {
 protected:
  static constexpr int kRows = 2000;
  static constexpr int kGroups = 50;

  UnitKind kind() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }

  /// Injects a failure into ~1 transform call in 64 — one in 8 for the
  /// aggregate, whose transform runs once per 40-row group — so that a
  /// one-unit transaction commits within a few retries.
  std::shared_ptr<FaultInjector> Faults() const {
    auto faults = std::make_shared<FaultInjector>();
    faults->one_in = kind() == UnitKind::kAggregate ? 8 : 64;
    faults->counter.store(seed());
    return faults;
  }

  /// Client requests: `requests` random `grp = g` pulls on each of
  /// `workers` threads. A retryable error (retry budget spent) is allowed;
  /// any other error fails the test.
  void RunClients(StatementMigrator* m, int workers, int requests) {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(seed() * 31 + static_cast<uint64_t>(w));
        for (int i = 0; i < requests; ++i) {
          const auto g = static_cast<int64_t>(rng.Uniform(kGroups));
          Status s = m->MigrateForPredicate(Eq(Col("grp"), LitInt(g)));
          if (!s.ok() && !s.IsRetryable()) {
            ADD_FAILURE() << s.ToString();
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  /// Exactly the expected rows, each once, and every migrated unit
  /// attributed to exactly one of lazy / background / forced.
  void ExpectExactAndAttributed(const StatementMigrator& m) {
    EXPECT_EQ(data_.Output(kind()), data_.Expected(kind()));
    const MigrationStats& s = m.stats();
    EXPECT_EQ(s.units_lazy.load() + s.units_background.load() +
                  s.units_forced.load(),
              s.units_migrated.load());
  }

  UnitKindData data_{kRows, kGroups};
};

TEST_P(StressTest, ConcurrentWorkersWithInjectedAbortsStayExact) {
  LazyConfig config;
  config.skip_recheck_us = 10;
  config.retry_limit = 1000;
  auto faults = Faults();
  auto m = MakeStatementMigrator(&data_.catalog(), &data_.txns(),
                                 data_.Statement(kind(), faults), config);
  ASSERT_TRUE(m.ok());
  // 8 workers x 200 draws over 50 groups touch every group with
  // overwhelming probability, so the whole output must be there.
  RunClients(m->get(), 8, 200);
  EXPECT_GE(faults->fired.load(), 1u) << "the fault injector should fire";
  EXPECT_GE((*m)->stats().txn_aborts.load(), 1u);
  ExpectExactAndAttributed(**m);
  EXPECT_EQ((*m)->stats().units_background.load(), 0u);
}

TEST_P(StressTest, BackgroundPlusForegroundPlusAborts) {
  LazyConfig config;
  config.background_start_delay_ms = 0;
  config.background_pause_us = 0;
  config.background_batch = 4;
  config.retry_limit = 1000;
  auto m = MakeStatementMigrator(&data_.catalog(), &data_.txns(),
                                 data_.Statement(kind(), Faults()), config);
  ASSERT_TRUE(m.ok());
  BackgroundMigrator bg({m->get()}, config);
  bg.Start();
  RunClients(m->get(), 4, 100);
  Stopwatch sw;
  while (!bg.finished() && sw.ElapsedMillis() < 30000) {
    Clock::SleepMillis(5);
  }
  ASSERT_TRUE(bg.finished());
  EXPECT_TRUE((*m)->IsComplete());
  ExpectExactAndAttributed(**m);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, StressTest,
    ::testing::Combine(::testing::ValuesIn(AllUnitKinds()),
                       ::testing::Values(1, 42, 20260705)),
    [](const ::testing::TestParamInfo<std::tuple<UnitKind, uint64_t>>& info) {
      return UnitKindName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bullfrog
