// Concurrency stress for the storage indexes, run under TSan in CI; any
// data race or lock-order inversion fails the tests there.
//
// Ordered index: RangeScan runs its callback under the index's shared
// latch, and a Delivery-style callback reads the row (taking the slot
// latch) inside it. Writers take slot latches and index latches strictly
// one after the other, never nested, so the nesting is deadlock-free.
//
// Hash index: probes race stripe growth and backward-shift erase.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "storage/index.h"
#include "storage/table.h"

namespace bullfrog {
namespace {

constexpr int64_t kDistricts = 2;

TableSchema NewOrderSchema() {
  return SchemaBuilder("new_order")
      .AddColumn("w", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("d", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("o", ValueType::kInt64, /*nullable=*/false)
      .SetPrimaryKey({"w", "d", "o"})
      .Build();
}

Tuple Order(int64_t d, int64_t o) {
  return Tuple{Value::Int(1), Value::Int(d), Value::Int(o)};
}

// The oldest live order of district d, Delivery-style: stop the probe at
// the first rid whose row is still live. Returns -1 if none. *mismatch is
// set if a row read inside the probe disagrees with its index key.
int64_t OldestLive(const Table& t, const Index& ordered, int64_t d,
                   RowId* rid_out, bool* mismatch) {
  const Tuple district{Value::Int(1), Value::Int(d)};
  int64_t o = -1;
  Status s = ordered.RangeScan(district, district,
                               [&](const Tuple& key, RowId rid) {
                                 Tuple row;
                                 if (!t.Read(rid, &row).ok()) return true;
                                 if (!(row == key)) *mismatch = true;
                                 o = row[2].AsInt();
                                 if (rid_out != nullptr) *rid_out = rid;
                                 return false;
                               });
  EXPECT_TRUE(s.ok());
  return o;
}

TEST(StorageRaceTest, RangeScanWithReadsRacesInsertAndDelete) {
  Table t(NewOrderSchema());
  ASSERT_TRUE(
      t.CreateIndex("ordered", {"w", "d", "o"}, false, IndexKind::kOrdered)
          .ok());
  const Index& ordered = *t.FindIndex("ordered");
  constexpr int64_t kPreload = 100;
  for (int64_t d = 1; d <= kDistricts; ++d) {
    for (int64_t o = 1; o <= kPreload; ++o) ASSERT_TRUE(t.Insert(Order(d, o)).ok());
  }

  constexpr int kOps = 4000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{kPreload * kDistricts};
  std::atomic<int64_t> deleted{0};
  std::atomic<bool> mismatch{false};
  std::atomic<bool> went_backwards{false};

  std::vector<std::thread> threads;
  // Inserter: appends newer orders to both districts.
  threads.emplace_back([&] {
    for (int64_t i = 0; i < kOps; ++i) {
      const int64_t d = 1 + i % kDistricts;
      if (t.Insert(Order(d, kPreload + 1 + i)).ok()) inserted.fetch_add(1);
    }
  });
  // Deleter: consumes the oldest order of a district, as Delivery does. The
  // delete runs after the probe returns — never inside its callback.
  threads.emplace_back([&] {
    for (int i = 0; i < kOps; ++i) {
      bool bad = false;
      RowId rid = kInvalidRowId;
      if (OldestLive(t, ordered, 1 + i % kDistricts, &rid, &bad) >= 0 &&
          t.Delete(rid, nullptr).ok()) {
        deleted.fetch_add(1);
      }
      if (bad) mismatch = true;
    }
  });
  // Two Delivery-style readers. Orders are consumed oldest-first and only
  // newer ones are inserted, so each district's oldest live order never
  // moves backwards.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      int64_t last[kDistricts + 1] = {};
      while (!stop.load()) {
        for (int64_t d = 1; d <= kDistricts; ++d) {
          bool bad = false;
          const int64_t o = OldestLive(t, ordered, d, nullptr, &bad);
          if (bad) mismatch = true;
          if (o >= 0 && o < last[d]) went_backwards = true;
          if (o >= 0) last[d] = o;
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop = true;
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_FALSE(went_backwards.load());
  const uint64_t live = static_cast<uint64_t>(inserted - deleted);
  EXPECT_EQ(t.NumLiveRows(), live);
  EXPECT_EQ(ordered.size(), live);
  EXPECT_EQ(t.FindIndex("pk_new_order")->size(), live);
}

// Hash-index probes racing stripe growth and backward-shift erase: writers
// insert and then erase churn keys, so every stripe doubles repeatedly and
// erases shift the fixed keys' slots around while readers probe them.
// Every lookup of a fixed key must return exactly that key's rids.
TEST(StorageRaceTest, HashIndexProbesRaceGrowthAndErase) {
  HashIndex idx("h", {0}, /*unique=*/false);
  constexpr int64_t kFixed = 256;
  auto fixed_rids = [](int64_t k) {
    std::vector<RowId> rids;
    for (int64_t r = 0; r <= k % 3; ++r) rids.push_back(k * 10 + r);
    return rids;
  };
  size_t fixed_entries = 0;
  for (int64_t k = 0; k < kFixed; ++k) {
    for (RowId rid : fixed_rids(k)) {
      ASSERT_TRUE(idx.Insert(Tuple{Value::Int(k)}, rid).ok());
      ++fixed_entries;
    }
  }

  constexpr int kWriters = 2;
  constexpr int64_t kChurn = 6000;  // Keys per writer per round.
  constexpr int kRounds = 2;
  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> probing{0};
  std::atomic<int64_t> lookups{0};
  std::atomic<int64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Start barrier: on a loaded host the readers could otherwise first
      // run after the writers finished and probe nothing.
      while (probing.load() < kReaders) std::this_thread::yield();
      const int64_t base = (w + 1) * 1'000'000;
      for (int round = 0; round < kRounds; ++round) {
        for (int64_t k = base; k < base + kChurn; ++k) {
          EXPECT_TRUE(idx.Insert(Tuple{Value::Int(k)}, k).ok());
        }
        for (int64_t k = base; k < base + kChurn; ++k) {
          idx.Erase(Tuple{Value::Int(k)}, k);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::vector<RowId> got;
      probing.fetch_add(1);
      do {  // At least one full pass, even if the writers are done.
        for (int64_t k = 0; k < kFixed; ++k) {
          got.clear();
          idx.Lookup(Tuple{Value::Int(k)}, &got);
          if (got != fixed_rids(k)) wrong.fetch_add(1);
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      } while (!stop.load());
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop = true;
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(lookups.load(), 0);
  EXPECT_EQ(idx.size(), fixed_entries);
}

}  // namespace
}  // namespace bullfrog
