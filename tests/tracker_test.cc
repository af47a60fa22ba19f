#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "migration/bitmap_tracker.h"
#include "migration/hash_tracker.h"

namespace bullfrog {
namespace {

TEST(BitmapTrackerTest, InitialStateNotMigratedNotLocked) {
  BitmapTracker t("t", 100);
  EXPECT_EQ(t.num_granules(), 100u);
  for (uint64_t g = 0; g < 100; ++g) {
    EXPECT_FALSE(t.IsMigrated(g));
    EXPECT_FALSE(t.IsLocked(g));
  }
  EXPECT_EQ(t.MigratedCount(), 0u);
  EXPECT_FALSE(t.AllMigrated());
}

TEST(BitmapTrackerTest, Algorithm2StateMachine) {
  BitmapTracker t("t", 10);
  // [0 0] -> acquire -> [1 0].
  EXPECT_EQ(t.TryAcquire(3), AcquireResult::kAcquired);
  EXPECT_TRUE(t.IsLocked(3));
  EXPECT_FALSE(t.IsMigrated(3));
  // Second worker sees in-progress (Alg. 2 lines 2-4).
  EXPECT_EQ(t.TryAcquire(3), AcquireResult::kInProgress);
  // [1 0] -> commit -> [0 1].
  t.MarkMigrated(3);
  EXPECT_FALSE(t.IsLocked(3));
  EXPECT_TRUE(t.IsMigrated(3));
  // Migrated granules report so (Alg. 2 line 1/17).
  EXPECT_EQ(t.TryAcquire(3), AcquireResult::kAlreadyMigrated);
  EXPECT_EQ(t.MigratedCount(), 1u);
}

TEST(BitmapTrackerTest, AbortResetsToInitial) {
  BitmapTracker t("t", 10);
  ASSERT_EQ(t.TryAcquire(5), AcquireResult::kAcquired);
  t.ResetAborted(5);  // §3.5: back to [0 0].
  EXPECT_FALSE(t.IsLocked(5));
  EXPECT_FALSE(t.IsMigrated(5));
  // Another worker can now take over.
  EXPECT_EQ(t.TryAcquire(5), AcquireResult::kAcquired);
}

TEST(BitmapTrackerTest, ResetAbortedDoesNotClobberMigrated) {
  BitmapTracker t("t", 10);
  ASSERT_EQ(t.TryAcquire(1), AcquireResult::kAcquired);
  t.MarkMigrated(1);
  t.ResetAborted(1);  // Late abort hook of a stale worker: no effect.
  EXPECT_TRUE(t.IsMigrated(1));
  EXPECT_EQ(t.MigratedCount(), 1u);
}

TEST(BitmapTrackerTest, ForceMigratedIdempotent) {
  BitmapTracker t("t", 10);
  t.ForceMigrated(2);
  t.ForceMigrated(2);
  EXPECT_EQ(t.MigratedCount(), 1u);
  EXPECT_TRUE(t.IsMigrated(2));
}

TEST(BitmapTrackerTest, AllMigratedAfterEveryGranule) {
  BitmapTracker t("t", 65);  // Crosses a word boundary (32/word).
  for (uint64_t g = 0; g < t.num_granules(); ++g) {
    ASSERT_EQ(t.TryAcquire(g), AcquireResult::kAcquired);
    t.MarkMigrated(g);
  }
  EXPECT_TRUE(t.AllMigrated());
  EXPECT_EQ(t.MigratedCount(), 65u);
}

TEST(BitmapTrackerTest, NextUnmigratedSkipsMigratedAndLocked) {
  BitmapTracker t("t", 100);
  for (uint64_t g = 0; g < 50; ++g) {
    ASSERT_EQ(t.TryAcquire(g), AcquireResult::kAcquired);
    t.MarkMigrated(g);
  }
  ASSERT_EQ(t.TryAcquire(50), AcquireResult::kAcquired);  // Locked.
  EXPECT_EQ(t.NextUnmigrated(0), 51u);
  EXPECT_EQ(t.NextUnmigrated(0, /*include_locked=*/true), 50u);
  EXPECT_EQ(t.NextUnmigrated(60), 60u);
  EXPECT_EQ(t.NextUnmigrated(99), 99u);
  t.MarkMigrated(50);
  for (uint64_t g = 51; g < 100; ++g) {
    ASSERT_EQ(t.TryAcquire(g), AcquireResult::kAcquired);
    t.MarkMigrated(g);
  }
  EXPECT_EQ(t.NextUnmigrated(0), t.num_granules());
}

TEST(BitmapTrackerTest, RecoveryMarkSetsMigrated) {
  BitmapTracker t("t", 10);
  t.MarkMigratedFromLog(Tuple{Value::Int(4)});
  EXPECT_TRUE(t.IsMigrated(4));
  // Bad keys are ignored.
  t.MarkMigratedFromLog(Tuple{Value::Str("x")});
  t.MarkMigratedFromLog(Tuple{Value::Int(1000)});
  EXPECT_EQ(t.MigratedCount(), 1u);
}

class BitmapGranularityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitmapGranularityTest, GranuleMathCoversAllRows) {
  const uint64_t granularity = GetParam();
  const uint64_t rows = 1000;
  BitmapTracker t("t", rows, granularity);
  EXPECT_EQ(t.granularity(), granularity);
  EXPECT_EQ(t.num_granules(), (rows + granularity - 1) / granularity);
  // Every row belongs to exactly one granule whose range contains it.
  for (RowId rid = 0; rid < rows; ++rid) {
    const uint64_t g = t.GranuleOf(rid);
    ASSERT_LT(g, t.num_granules());
    ASSERT_GE(rid, t.GranuleBegin(g));
    ASSERT_LT(rid, t.GranuleEnd(g));
  }
  // Granule ranges tile [0, rows) without overlap.
  uint64_t covered = 0;
  for (uint64_t g = 0; g < t.num_granules(); ++g) {
    ASSERT_EQ(t.GranuleBegin(g), covered);
    covered = t.GranuleEnd(g);
  }
  EXPECT_EQ(covered, rows);
}

INSTANTIATE_TEST_SUITE_P(Granularities, BitmapGranularityTest,
                         ::testing::Values(1, 2, 7, 64, 128, 256, 1000,
                                           4096));

TEST(BitmapTrackerTest, ConcurrentAcquireIsExactlyOnce) {
  // The §3.3 guarantee: no granule is ever acquired by two workers, and
  // every granule is acquired exactly once across all workers.
  constexpr uint64_t kGranules = 5000;
  BitmapTracker t("t", kGranules);
  std::atomic<uint64_t> acquired{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (uint64_t g = 0; g < kGranules; ++g) {
        if (t.TryAcquire(g) == AcquireResult::kAcquired) {
          acquired.fetch_add(1, std::memory_order_relaxed);
          t.MarkMigrated(g);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(acquired.load(), kGranules);
  EXPECT_TRUE(t.AllMigrated());
}

TEST(BitmapTrackerTest, ConcurrentAcquireAbortHandoff) {
  // Workers repeatedly acquire, flip a coin, abort or migrate; eventually
  // every granule must end migrated with no [1 1] states.
  constexpr uint64_t kGranules = 2000;
  BitmapTracker t("t", kGranules);
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      uint64_t seed = static_cast<uint64_t>(w) * 2654435761u + 17;
      while (!t.AllMigrated()) {
        for (uint64_t g = 0; g < kGranules; ++g) {
          if (t.TryAcquire(g) != AcquireResult::kAcquired) continue;
          seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
          if ((seed >> 33) % 4 == 0) {
            t.ResetAborted(g);  // Simulated abort.
          } else {
            t.MarkMigrated(g);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.MigratedCount(), kGranules);
  for (uint64_t g = 0; g < kGranules; ++g) {
    ASSERT_TRUE(t.IsMigrated(g));
    ASSERT_FALSE(t.IsLocked(g)) << "[1 1] state must never occur";
  }
}

// --- HashTracker (§3.4 / Algorithm 3) ----------------------------------

Tuple Key(int64_t a) { return Tuple{Value::Int(a)}; }
Tuple Key2(int64_t a, int64_t b) {
  return Tuple{Value::Int(a), Value::Int(b)};
}

TEST(HashTrackerTest, Algorithm3StateMachine) {
  HashTracker t("h");
  EXPECT_FALSE(t.GetState(Key(1)).has_value());
  // Absent -> insert in-progress (lines 11-13).
  EXPECT_EQ(t.TryAcquire(Key(1)), AcquireResult::kAcquired);
  EXPECT_EQ(*t.GetState(Key(1)), GroupState::kInProgress);
  // In-progress -> skip (lines 5-6).
  EXPECT_EQ(t.TryAcquire(Key(1)), AcquireResult::kInProgress);
  // Commit -> migrated.
  t.MarkMigrated(Key(1));
  EXPECT_TRUE(t.IsMigrated(Key(1)));
  EXPECT_EQ(t.TryAcquire(Key(1)), AcquireResult::kAlreadyMigrated);
  EXPECT_EQ(t.MigratedCount(), 1u);
}

TEST(HashTrackerTest, AbortedStateClaimable) {
  HashTracker t("h");
  ASSERT_EQ(t.TryAcquire(Key(7)), AcquireResult::kAcquired);
  t.ResetAborted(Key(7));
  EXPECT_EQ(*t.GetState(Key(7)), GroupState::kAborted);
  // Lines 7-9: aborted -> re-acquire.
  EXPECT_EQ(t.TryAcquire(Key(7)), AcquireResult::kAcquired);
  EXPECT_EQ(*t.GetState(Key(7)), GroupState::kInProgress);
}

TEST(HashTrackerTest, ResetAbortedOnlyAffectsInProgress) {
  HashTracker t("h");
  ASSERT_EQ(t.TryAcquire(Key(1)), AcquireResult::kAcquired);
  t.MarkMigrated(Key(1));
  t.ResetAborted(Key(1));  // Stale abort hook: no effect.
  EXPECT_TRUE(t.IsMigrated(Key(1)));
  t.ResetAborted(Key(2));  // Unknown key: no effect.
  EXPECT_FALSE(t.GetState(Key(2)).has_value());
}

TEST(HashTrackerTest, CompositeKeysAreDistinct) {
  HashTracker t("h");
  ASSERT_EQ(t.TryAcquire(Key2(1, 2)), AcquireResult::kAcquired);
  EXPECT_EQ(t.TryAcquire(Key2(2, 1)), AcquireResult::kAcquired);
  EXPECT_EQ(t.TryAcquire(Key2(1, 2)), AcquireResult::kInProgress);
}

TEST(HashTrackerTest, ForceMigratedCountsOnce) {
  HashTracker t("h");
  t.ForceMigrated(Key(1));
  t.ForceMigrated(Key(1));
  ASSERT_EQ(t.TryAcquire(Key(2)), AcquireResult::kAcquired);
  t.ForceMigrated(Key(2));  // Upgrade from in-progress.
  EXPECT_EQ(t.MigratedCount(), 2u);
}

TEST(HashTrackerTest, RecoveryMark) {
  HashTracker t("h");
  t.MarkMigratedFromLog(Key2(3, 4));
  EXPECT_TRUE(t.IsMigrated(Key2(3, 4)));
}

TEST(HashTrackerTest, ConcurrentAcquireIsExactlyOnce) {
  HashTracker t("h", 16);
  constexpr int kKeys = 3000;
  std::atomic<int> acquired{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        if (t.TryAcquire(Key(k)) == AcquireResult::kAcquired) {
          acquired.fetch_add(1, std::memory_order_relaxed);
          t.MarkMigrated(Key(k));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(acquired.load(), kKeys);
  EXPECT_EQ(t.MigratedCount(), static_cast<uint64_t>(kKeys));
}

TEST(HashTrackerTest, ConcurrentAbortHandoffConverges) {
  HashTracker t("h", 16);
  constexpr int kKeys = 1000;
  std::atomic<int> migrated{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      uint64_t seed = static_cast<uint64_t>(w) + 3;
      while (migrated.load(std::memory_order_acquire) < kKeys) {
        for (int k = 0; k < kKeys; ++k) {
          if (t.TryAcquire(Key(k)) != AcquireResult::kAcquired) continue;
          seed = seed * 6364136223846793005ULL + 1;
          if ((seed >> 40) % 3 == 0) {
            t.ResetAborted(Key(k));
          } else {
            t.MarkMigrated(Key(k));
            migrated.fetch_add(1, std::memory_order_acq_rel);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.MigratedCount(), static_cast<uint64_t>(kKeys));
}

// --- edge cases: recovery keys, abort-vs-force races, reacquire ---------

TEST(BitmapTrackerTest, RecoveryMarkIgnoresMalformedKeys) {
  BitmapTracker t("t", 100);
  // Out-of-range granule: the redo log may hold marks written under a
  // larger pre-crash boundary; they must be dropped, not crash.
  t.MarkMigratedFromLog(Tuple{Value::Int(100)});
  t.MarkMigratedFromLog(Tuple{Value::Int(1u << 30)});
  // Wrong type / wrong arity: a hash-tracker mark replayed against a
  // bitmap tracker (id collision across migrations) must be a no-op.
  t.MarkMigratedFromLog(Tuple{Value::Str("7")});
  t.MarkMigratedFromLog(Tuple{});
  t.MarkMigratedFromLog(Tuple{Value::Int(1), Value::Int(2)});
  EXPECT_EQ(t.MigratedCount(), 0u);
  for (uint64_t g = 0; g < t.num_granules(); ++g) {
    EXPECT_FALSE(t.IsMigrated(g));
  }
  // A well-formed mark still lands.
  t.MarkMigratedFromLog(Tuple{Value::Int(99)});
  EXPECT_TRUE(t.IsMigrated(99));
  EXPECT_EQ(t.MigratedCount(), 1u);
}

TEST(BitmapTrackerTest, ResetAbortedVsConcurrentForceMigrated) {
  // An aborting worker resets its granule while recovery (or ON CONFLICT
  // mode) force-marks the same granule: whatever the interleaving, the
  // granule must end migrated+unlocked and be counted exactly once.
  constexpr uint64_t kGranules = 512;
  BitmapTracker t("t", kGranules);
  for (uint64_t g = 0; g < kGranules; ++g) {
    ASSERT_EQ(t.TryAcquire(g), AcquireResult::kAcquired);
  }
  std::thread resetter([&] {
    for (uint64_t g = 0; g < kGranules; ++g) t.ResetAborted(g);
  });
  std::thread forcer([&] {
    for (uint64_t g = kGranules; g-- > 0;) t.ForceMigrated(g);
  });
  resetter.join();
  forcer.join();
  for (uint64_t g = 0; g < kGranules; ++g) {
    EXPECT_TRUE(t.IsMigrated(g)) << g;
    EXPECT_FALSE(t.IsLocked(g)) << g;
    EXPECT_EQ(t.TryAcquire(g), AcquireResult::kAlreadyMigrated) << g;
  }
  EXPECT_EQ(t.MigratedCount(), kGranules);
  EXPECT_TRUE(t.AllMigrated());
}

TEST(HashTrackerTest, AbortedReacquireUnderContention) {
  // Algorithm 3 lines 7-9: an aborted group is claimable by exactly one
  // of many contending workers per round.
  HashTracker t("h", 4);
  const Tuple key = Key(42);
  ASSERT_EQ(t.TryAcquire(key), AcquireResult::kAcquired);
  constexpr int kRounds = 200;
  constexpr int kWorkers = 8;
  for (int round = 0; round < kRounds; ++round) {
    t.ResetAborted(key);
    ASSERT_EQ(t.GetState(key), GroupState::kAborted);
    std::atomic<int> winners{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        if (t.TryAcquire(key) == AcquireResult::kAcquired) {
          winners.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (auto& th : workers) th.join();
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    ASSERT_EQ(t.GetState(key), GroupState::kInProgress);
  }
  // The final owner commits; the group is terminal.
  t.MarkMigrated(key);
  EXPECT_EQ(t.MigratedCount(), 1u);
  EXPECT_EQ(t.TryAcquire(key), AcquireResult::kAlreadyMigrated);
  // A late abort from a stale worker must not clobber the migrated state.
  t.ResetAborted(key);
  EXPECT_EQ(t.GetState(key), GroupState::kMigrated);
}

}  // namespace
}  // namespace bullfrog
