#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "storage/index.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace bullfrog {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Timestamp(99).AsTimestamp(), 99);
  EXPECT_EQ(Value::Int(5).type(), ValueType::kInt64);
  EXPECT_EQ(Value::Timestamp(5).type(), ValueType::kTimestamp);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_GT(Value::Str("").Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::Str("abc").Compare(Value::Str("abd")), 0);
  EXPECT_EQ(Value::Str("abc"), Value::Str("abc"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Str("hello").Hash(), Value::Str("hello").Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a{Value::Int(1), Value::Str("x")};
  Tuple b{Value::Int(1), Value::Str("x")};
  Tuple c{Value::Int(2), Value::Str("x")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
}

TEST(TupleTest, ToString) {
  Tuple t{Value::Int(1), Value::Str("a")};
  EXPECT_EQ(t.ToString(), "(1, 'a')");
}

class IndexTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  std::unique_ptr<Index> Make(bool unique) {
    if (GetParam() == IndexKind::kHash) {
      return std::make_unique<HashIndex>("idx", std::vector<size_t>{0},
                                         unique);
    }
    return std::make_unique<OrderedIndex>("idx", std::vector<size_t>{0},
                                          unique);
  }
};

TEST_P(IndexTest, InsertAndLookup) {
  auto idx = Make(false);
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 10).ok());
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 11).ok());
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(2)}, 12).ok());
  std::vector<RowId> rids;
  idx->Lookup(Tuple{Value::Int(1)}, &rids);
  EXPECT_EQ(rids.size(), 2u);
  EXPECT_EQ(idx->size(), 3u);
}

TEST_P(IndexTest, UniqueRejectsDuplicates) {
  auto idx = Make(true);
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 10).ok());
  EXPECT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 11).IsAlreadyExists());
  // Re-inserting the same (key, rid) is idempotent.
  EXPECT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 10).ok());
}

TEST_P(IndexTest, TryReserveDetectsExisting) {
  auto idx = Make(true);
  RowId existing = kInvalidRowId;
  auto first = idx->TryReserve(Tuple{Value::Int(5)}, 100, &existing);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto second = idx->TryReserve(Tuple{Value::Int(5)}, 200, &existing);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
  EXPECT_EQ(existing, 100u);
}

TEST_P(IndexTest, EraseRemovesOnlyMatchingRid) {
  auto idx = Make(false);
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 10).ok());
  ASSERT_TRUE(idx->Insert(Tuple{Value::Int(1)}, 11).ok());
  idx->Erase(Tuple{Value::Int(1)}, 10);
  std::vector<RowId> rids;
  idx->Lookup(Tuple{Value::Int(1)}, &rids);
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], 11u);
}

TEST_P(IndexTest, ConcurrentUniqueReservationIsExactlyOnce) {
  auto idx = Make(true);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < 500; ++k) {
        auto r = idx->TryReserve(Tuple{Value::Int(k)},
                                 static_cast<RowId>(t * 1000 + k), nullptr);
        if (r.ok() && *r) winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 500);  // Each key reserved exactly once.
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IndexTest,
                         ::testing::Values(IndexKind::kHash,
                                           IndexKind::kOrdered),
                         [](const auto& info) {
                           return info.param == IndexKind::kHash ? "Hash"
                                                                 : "Ordered";
                         });

TEST(OrderedIndexTest, RangeScanWithPrefixBoundsVisitsKeysInOrder) {
  OrderedIndex idx("r", {0, 1}, false);
  for (int64_t w = 1; w <= 3; ++w) {
    for (int64_t o = 5; o >= 1; --o) {  // Inserted in descending order.
      ASSERT_TRUE(
          idx.Insert(Tuple{Value::Int(w), Value::Int(o)},
                     static_cast<RowId>(w * 100 + o)).ok());
    }
  }
  std::vector<int64_t> orders;
  std::vector<RowId> rids;
  ASSERT_TRUE(idx.RangeScan(Tuple{Value::Int(2)}, Tuple{Value::Int(2)},
                            [&](const Tuple& key, RowId rid) {
                              EXPECT_EQ(key[0].AsInt(), 2);
                              orders.push_back(key[1].AsInt());
                              rids.push_back(rid);
                              return true;
                            })
                  .ok());
  EXPECT_EQ(orders, (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rids, (std::vector<RowId>{201, 202, 203, 204, 205}));
}

TEST(OrderedIndexTest, RangeScanStopsAtFirstFalse) {
  OrderedIndex idx("r", {0, 1}, false);
  for (int64_t o = 1; o <= 300; ++o) {  // Spans many B+-tree leaves.
    ASSERT_TRUE(idx.Insert(Tuple{Value::Int(1), Value::Int(o)},
                           static_cast<RowId>(o)).ok());
  }
  int calls = 0;
  RowId stopped_at = kInvalidRowId;
  ASSERT_TRUE(idx.RangeScan(Tuple{Value::Int(1)}, Tuple{Value::Int(1)},
                            [&](const Tuple&, RowId rid) {
                              ++calls;
                              if (rid < 3) return true;
                              stopped_at = rid;
                              return false;
                            })
                  .ok());
  EXPECT_EQ(calls, 3);  // Visited 1, 2, 3 and nothing after the false.
  EXPECT_EQ(stopped_at, 3u);
}

TEST(HashIndexTest, RangeScanUnsupported) {
  HashIndex idx("h", {0}, false);
  ASSERT_TRUE(idx.Insert(Tuple{Value::Int(1)}, 1).ok());
  int calls = 0;
  EXPECT_EQ(idx.RangeScan(Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                          [&](const Tuple&, RowId) {
                            ++calls;
                            return true;
                          })
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(calls, 0);
}

std::vector<RowId> LookupAll(const Index& idx, int64_t key) {
  std::vector<RowId> rids;
  idx.Lookup(Tuple{Value::Int(key)}, &rids);
  return rids;
}

TEST(HashIndexTest, DuplicateKeysGroupInInsertionOrder) {
  HashIndex idx("h", {0}, false);
  for (RowId rid : {7, 3, 9, 1}) {
    ASSERT_TRUE(idx.Insert(Tuple{Value::Int(4)}, rid).ok());
  }
  ASSERT_TRUE(idx.Insert(Tuple{Value::Int(5)}, 2).ok());
  EXPECT_EQ(LookupAll(idx, 4), (std::vector<RowId>{7, 3, 9, 1}));
  EXPECT_EQ(LookupAll(idx, 5), (std::vector<RowId>{2}));
  EXPECT_TRUE(LookupAll(idx, 6).empty());
  EXPECT_EQ(idx.size(), 5u);  // Entries, not distinct keys.
}

TEST(HashIndexTest, EraseFromMiddleAndFrontOfGroup) {
  HashIndex idx("h", {0}, false);
  for (RowId rid : {10, 11, 12, 13}) {
    ASSERT_TRUE(idx.Insert(Tuple{Value::Int(1)}, rid).ok());
  }
  idx.Erase(Tuple{Value::Int(1)}, 12);  // Middle.
  EXPECT_EQ(LookupAll(idx, 1), (std::vector<RowId>{10, 11, 13}));
  idx.Erase(Tuple{Value::Int(1)}, 10);  // The inline first rid.
  EXPECT_EQ(LookupAll(idx, 1), (std::vector<RowId>{11, 13}));
  idx.Erase(Tuple{Value::Int(1)}, 99);  // Absent rid: no-op.
  idx.Erase(Tuple{Value::Int(2)}, 11);  // Absent key: no-op.
  EXPECT_EQ(LookupAll(idx, 1), (std::vector<RowId>{11, 13}));
  EXPECT_EQ(idx.size(), 2u);
}

TEST(HashIndexTest, ErasingLastRidRemovesKey) {
  HashIndex idx("h", {0}, /*unique=*/true);
  ASSERT_TRUE(idx.Insert(Tuple{Value::Int(8)}, 80).ok());
  idx.Erase(Tuple{Value::Int(8)}, 80);
  EXPECT_TRUE(LookupAll(idx, 8).empty());
  EXPECT_EQ(idx.size(), 0u);
  // The key is gone, so another rid can now reserve it.
  auto reserved = idx.TryReserve(Tuple{Value::Int(8)}, 81, nullptr);
  ASSERT_TRUE(reserved.ok());
  EXPECT_TRUE(*reserved);
  EXPECT_EQ(LookupAll(idx, 8), (std::vector<RowId>{81}));
}

TEST(HashIndexTest, UniqueReinsertIsIdempotent) {
  HashIndex idx("h", {0}, /*unique=*/true);
  ASSERT_TRUE(idx.Insert(Tuple{Value::Int(3)}, 30).ok());
  ASSERT_TRUE(idx.Insert(Tuple{Value::Int(3)}, 30).ok());
  EXPECT_TRUE(idx.Insert(Tuple{Value::Int(3)}, 31).IsAlreadyExists());
  EXPECT_EQ(LookupAll(idx, 3), (std::vector<RowId>{30}));
  EXPECT_EQ(idx.size(), 1u);
}

// Seeded random Insert/TryReserve/Erase/Lookup traffic checked against a
// std::map model: exact rid order, AlreadyExists, idempotent re-insert
// and size(). Enough distinct keys that every stripe doubles several
// times, and erases land inside clusters that wrap the table's end, so a
// hole the erase fails to close hides the keys probed past it.
struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.values() < b.values();
  }
};

void RunAgainstModel(bool unique, bool string_keys, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "unique=" << unique
                                  << " string_keys=" << string_keys
                                  << " seed=" << seed);
  constexpr int kKeys = 6000;
  constexpr int kOps = 30000;
  HashIndex idx("h", {0}, unique);
  std::map<Tuple, std::vector<RowId>, TupleLess> model;
  size_t model_entries = 0;
  std::mt19937_64 rng(seed);
  auto key_of = [&](int k) {
    return string_keys ? Tuple{Value::Str("key-" + std::to_string(k))}
                       : Tuple{Value::Int(k)};
  };
  auto check_all = [&] {
    for (int k = 0; k < kKeys; ++k) {
      const Tuple key = key_of(k);
      std::vector<RowId> got;
      idx.Lookup(key, &got);
      auto it = model.find(key);
      const std::vector<RowId> want =
          it == model.end() ? std::vector<RowId>{} : it->second;
      ASSERT_EQ(got, want) << "key " << key.ToString();
    }
    ASSERT_EQ(idx.size(), model_entries);
  };
  auto erase_from_model = [&](const Tuple& key, RowId rid) {
    auto it = model.find(key);
    if (it == model.end()) return;
    auto pos = std::find(it->second.begin(), it->second.end(), rid);
    if (pos == it->second.end()) return;
    it->second.erase(pos);
    --model_entries;
    if (it->second.empty()) model.erase(it);
  };

  for (int op = 0; op < kOps; ++op) {
    // The first half mostly inserts (growth), the second mostly erases.
    const int insert_pct = op < kOps / 2 ? 70 : 35;
    const Tuple key = key_of(static_cast<int>(rng() % kKeys));
    const RowId rid = rng() % 4;
    auto it = model.find(key);
    const int dice = static_cast<int>(rng() % 100);
    if (dice < insert_pct) {
      if (unique && dice % 2 == 0) {
        RowId existing = kInvalidRowId;
        auto reserved = idx.TryReserve(key, rid, &existing);
        ASSERT_TRUE(reserved.ok());
        ASSERT_EQ(*reserved, it == model.end());
        if (it == model.end()) {
          model[key] = {rid};
          ++model_entries;
        } else {
          ASSERT_EQ(existing, it->second.front());
        }
        continue;
      }
      const Status s = idx.Insert(key, rid);
      if (!unique || it == model.end()) {
        ASSERT_TRUE(s.ok());
        model[key].push_back(rid);
        ++model_entries;
      } else if (it->second.front() == rid) {
        ASSERT_TRUE(s.ok());  // Idempotent re-insert.
      } else {
        ASSERT_TRUE(s.IsAlreadyExists());
      }
    } else if (dice < 90) {
      // Usually erase a rid the key holds; sometimes one it does not.
      const RowId victim = it != model.end() && rng() % 4 != 0
                               ? it->second[rng() % it->second.size()]
                               : rid;
      idx.Erase(key, victim);
      erase_from_model(key, victim);
    } else {
      std::vector<RowId> got;
      idx.Lookup(key, &got);
      ASSERT_EQ(got, it == model.end() ? std::vector<RowId>{} : it->second);
    }
    ASSERT_EQ(idx.size(), model_entries);
    if (op % 2000 == 1999) {
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all());

  // Drain every entry in random order: the table empties completely.
  std::vector<std::pair<Tuple, RowId>> left;
  for (const auto& [key, rids] : model) {
    for (RowId r : rids) left.emplace_back(key, r);
  }
  std::shuffle(left.begin(), left.end(), rng);
  for (size_t i = 0; i < left.size(); ++i) {
    idx.Erase(left[i].first, left[i].second);
    erase_from_model(left[i].first, left[i].second);
    if (i % 1000 == 999) {
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all());
  EXPECT_EQ(idx.size(), 0u);
}

TEST(HashIndexTest, RandomOpsMatchModel) {
  uint64_t seed = 1;
  for (bool unique : {false, true}) {
    for (bool string_keys : {false, true}) {
      RunAgainstModel(unique, string_keys, seed++);
      if (HasFatalFailure()) return;
    }
  }
}

TableSchema TestSchema() {
  return SchemaBuilder("t")
      .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("name", ValueType::kString)
      .AddColumn("score", ValueType::kDouble)
      .SetPrimaryKey({"id"})
      .Build();
}

Tuple Row(int64_t id, const std::string& name, double score) {
  return Tuple{Value::Int(id), Value::Str(name), Value::Double(score)};
}

TEST(TableTest, InsertReadRoundTrip) {
  Table t(TestSchema());
  auto out = t.Insert(Row(1, "a", 0.5));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->inserted);
  Tuple row;
  ASSERT_TRUE(t.Read(out->rid, &row).ok());
  EXPECT_EQ(row[1].AsString(), "a");
  EXPECT_EQ(t.NumLiveRows(), 1u);
}

TEST(TableTest, PrimaryKeyEnforced) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a", 0)).ok());
  EXPECT_TRUE(t.Insert(Row(1, "b", 0)).status().IsAlreadyExists());
  // The failed insert must not leave the row visible.
  EXPECT_EQ(t.NumLiveRows(), 1u);
}

TEST(TableTest, OnConflictDoNothingReportsExisting) {
  Table t(TestSchema());
  auto first = t.Insert(Row(1, "a", 0));
  ASSERT_TRUE(first.ok());
  auto second = t.Insert(Row(1, "b", 0), OnConflict::kDoNothing);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(second->rid, first->rid);
  Tuple row;
  ASSERT_TRUE(t.Read(first->rid, &row).ok());
  EXPECT_EQ(row[1].AsString(), "a");  // Original untouched.
}

TEST(TableTest, SchemaValidationRejectsBadTuples) {
  Table t(TestSchema());
  EXPECT_EQ(t.Insert(Tuple{Value::Int(1)}).status().code(),
            StatusCode::kSchemaMismatch);
  EXPECT_EQ(t.Insert(Tuple{Value::Str("x"), Value::Str("a"),
                           Value::Double(0)})
                .status()
                .code(),
            StatusCode::kSchemaMismatch);
  EXPECT_EQ(t.Insert(Tuple{Value::Null(), Value::Str("a"), Value::Double(0)})
                .status()
                .code(),
            StatusCode::kConstraintViolation);
}

TEST(TableTest, IntAcceptedForDoubleColumn) {
  Table t(TestSchema());
  EXPECT_TRUE(t.Insert(Tuple{Value::Int(1), Value::Str("a"), Value::Int(3)})
                  .ok());
}

TEST(TableTest, UpdateMaintainsIndexes) {
  Table t(TestSchema());
  auto out = t.Insert(Row(1, "a", 0));
  ASSERT_TRUE(out.ok());
  Tuple before;
  ASSERT_TRUE(t.Update(out->rid, Row(2, "a", 1), &before).ok());
  EXPECT_EQ(before[0].AsInt(), 1);
  Index* pk = t.FindIndex("pk_t");
  std::vector<RowId> rids;
  pk->Lookup(Tuple{Value::Int(1)}, &rids);
  EXPECT_TRUE(rids.empty());
  pk->Lookup(Tuple{Value::Int(2)}, &rids);
  EXPECT_EQ(rids.size(), 1u);
}

// Snapshot of every index's full contents, for "untouched" checks.
std::vector<std::vector<RowId>> IndexState(const Table& t,
                                           const std::vector<Tuple>& keys) {
  std::vector<std::vector<RowId>> state;
  for (const auto& index : t.indexes()) {
    for (const Tuple& key : keys) {
      if (key.size() != index->key_columns().size()) continue;
      std::vector<RowId> rids;
      index->Lookup(key, &rids);
      state.push_back(std::move(rids));
    }
    state.push_back({index->size()});
  }
  return state;
}

TEST(TableTest, UpdateOfNonKeyColumnLeavesEveryIndexUntouched) {
  Table t(TestSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, /*unique=*/false,
                            IndexKind::kHash).ok());
  auto a = t.Insert(Row(1, "x", 0));
  auto b = t.Insert(Row(2, "x", 0));
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<Tuple> keys = {Tuple{Value::Int(1)}, Tuple{Value::Int(2)},
                                   Tuple{Value::Str("x")}};
  const auto before = IndexState(t, keys);
  // Re-reserving the unique pk key would fail on the row's own entry, and
  // an erase + re-insert would reorder the by_name group {a, b}.
  ASSERT_TRUE(t.Update(a->rid, Row(1, "x", 9.5), nullptr).ok());
  EXPECT_EQ(IndexState(t, keys), before);
  Tuple row;
  ASSERT_TRUE(t.Read(a->rid, &row).ok());
  EXPECT_EQ(row[2].AsDouble(), 9.5);
}

TEST(TableTest, KeyColumnUpdateMovesExactlyThatIndexEntry) {
  Table t(TestSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, /*unique=*/false,
                            IndexKind::kHash).ok());
  ASSERT_TRUE(t.CreateIndex("by_score", {"score"}, /*unique=*/false,
                            IndexKind::kOrdered).ok());
  auto a = t.Insert(Row(1, "x", 0.5));
  auto b = t.Insert(Row(2, "x", 0.5));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(t.Update(a->rid, Row(1, "y", 0.5), nullptr).ok());
  auto lookup = [&](const char* index, Value key) {
    std::vector<RowId> rids;
    t.FindIndex(index)->Lookup(Tuple{std::move(key)}, &rids);
    return rids;
  };
  EXPECT_EQ(lookup("by_name", Value::Str("x")), (std::vector<RowId>{b->rid}));
  EXPECT_EQ(lookup("by_name", Value::Str("y")), (std::vector<RowId>{a->rid}));
  // The other indexes keep their entries, in their original order.
  EXPECT_EQ(lookup("pk_t", Value::Int(1)), (std::vector<RowId>{a->rid}));
  EXPECT_EQ(lookup("by_score", Value::Double(0.5)),
            (std::vector<RowId>{a->rid, b->rid}));
  for (const auto& index : t.indexes()) EXPECT_EQ(index->size(), 2u);
}

TEST(TableTest, ReadIfCopiesOnlyAcceptedLiveRows) {
  Table t(TestSchema());
  auto a = t.Insert(Row(1, "keep", 0));
  auto b = t.Insert(Row(2, "drop", 0));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(t.Delete(b->rid, nullptr).ok());
  const Table::RowFilter keep = [](const Tuple& row) {
    return row[1].AsString() == "keep";
  };
  Tuple out = Row(9, "untouched", 0);
  EXPECT_TRUE(t.ReadIf(a->rid, keep, &out));
  EXPECT_EQ(out[0].AsInt(), 1);
  out = Row(9, "untouched", 0);
  EXPECT_FALSE(t.ReadIf(a->rid, [](const Tuple&) { return false; }, &out));
  EXPECT_FALSE(t.ReadIf(b->rid, {}, &out));       // Tombstone.
  EXPECT_FALSE(t.ReadIf(1u << 30, {}, &out));     // Never allocated.
  EXPECT_EQ(out[1].AsString(), "untouched");      // Rejections copy nothing.
  EXPECT_TRUE(t.ReadIf(a->rid, {}, nullptr));     // Test without copying.
}

TEST(TableTest, UpdateRejectsPkCollision) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Insert(Row(1, "a", 0)).ok());
  auto second = t.Insert(Row(2, "b", 0));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(
      t.Update(second->rid, Row(1, "b", 0), nullptr).IsAlreadyExists());
}

TEST(TableTest, DeleteTombstonesAndCleansIndexes) {
  Table t(TestSchema());
  auto out = t.Insert(Row(1, "a", 0));
  ASSERT_TRUE(out.ok());
  Tuple before;
  ASSERT_TRUE(t.Delete(out->rid, &before).ok());
  Tuple row;
  EXPECT_TRUE(t.Read(out->rid, &row).IsNotFound());
  EXPECT_EQ(t.NumLiveRows(), 0u);
  EXPECT_EQ(t.NumAllocatedRows(), 1u);  // RowId space is stable.
  std::vector<RowId> rids;
  t.FindIndex("pk_t")->Lookup(Tuple{Value::Int(1)}, &rids);
  EXPECT_TRUE(rids.empty());
  // Same PK can be re-inserted at a fresh RowId.
  auto again = t.Insert(Row(1, "b", 0));
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->rid, out->rid);
}

TEST(TableTest, RestoreRevivesDeletedRow) {
  Table t(TestSchema());
  auto out = t.Insert(Row(1, "a", 0));
  Tuple before;
  ASSERT_TRUE(t.Delete(out->rid, &before).ok());
  ASSERT_TRUE(t.Restore(out->rid, before).ok());
  Tuple row;
  ASSERT_TRUE(t.Read(out->rid, &row).ok());
  EXPECT_EQ(row[1].AsString(), "a");
  std::vector<RowId> rids;
  t.FindIndex("pk_t")->Lookup(Tuple{Value::Int(1)}, &rids);
  EXPECT_EQ(rids.size(), 1u);
}

TEST(TableTest, ScanVisitsOnlyLiveRows) {
  Table t(TestSchema());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(Row(i, "x", 0)).ok());
  Tuple scratch;
  ASSERT_TRUE(t.Delete(3, &scratch).ok());
  ASSERT_TRUE(t.Delete(7, &scratch).ok());
  int visited = 0;
  t.Scan([&](RowId rid, const Tuple&) {
    EXPECT_NE(rid, 3u);
    EXPECT_NE(rid, 7u);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 8);
}

TEST(TableTest, ScanRangeRespectsBounds) {
  Table t(TestSchema());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(Row(i, "x", 0)).ok());
  std::vector<RowId> seen;
  t.ScanRange(2, 5, [&](RowId rid, const Tuple&) {
    seen.push_back(rid);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<RowId>{2, 3, 4}));
}

TEST(TableTest, ScanEarlyStop) {
  Table t(TestSchema());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Insert(Row(i, "x", 0)).ok());
  int visited = 0;
  t.Scan([&](RowId, const Tuple&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

TEST(TableTest, CreateIndexBackfillsExistingRows) {
  Table t(TestSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.Insert(Row(i, i % 2 == 0 ? "even" : "odd", 0)).ok());
  }
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false, IndexKind::kHash)
                  .ok());
  std::vector<RowId> rids;
  t.FindIndex("by_name")->Lookup(Tuple{Value::Str("even")}, &rids);
  EXPECT_EQ(rids.size(), 3u);
}

TEST(TableTest, CreateUniqueIndexFailsOnDuplicateData) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Insert(Row(1, "dup", 0)).ok());
  ASSERT_TRUE(t.Insert(Row(2, "dup", 0)).ok());
  EXPECT_TRUE(t.CreateIndex("uniq_name", {"name"}, true, IndexKind::kHash)
                  .IsConstraintViolation());
  EXPECT_EQ(t.FindIndex("uniq_name"), nullptr);
}

TEST(TableTest, FindIndexCoveredByPrefersMostSelective) {
  Table t(TestSchema());
  ASSERT_TRUE(t.CreateIndex("by_name", {"name"}, false, IndexKind::kHash)
                  .ok());
  // eq columns {0 (id), 1 (name)}: the PK index on {0} and by_name on {1}
  // are both covered; PK is unique so it wins ties, but by_name has the
  // same length — selectivity rule picks the longer, then unique.
  Index* best = t.FindIndexCoveredBy({0, 1});
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->name(), "pk_t");
}

TEST(TableTest, ConcurrentInsertsAssignDistinctRowIds) {
  Table t(TestSchema());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        auto out = t.Insert(Row(w * kPerThread + i, "c", 0));
        ASSERT_TRUE(out.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.NumLiveRows(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(t.NumAllocatedRows(),
            static_cast<uint64_t>(kThreads * kPerThread));
  int count = 0;
  t.Scan([&](RowId, const Tuple&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, kThreads * kPerThread);
}

TEST(TableTest, ConcurrentConflictingInsertsKeepOneWinner) {
  Table t(TestSchema());
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int k = 0; k < 300; ++k) {
        auto out = t.Insert(Row(k, "w", 0), OnConflict::kDoNothing);
        ASSERT_TRUE(out.ok());
        if (out->inserted) winners.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 300);
  EXPECT_EQ(t.NumLiveRows(), 300u);
}

}  // namespace
}  // namespace bullfrog
