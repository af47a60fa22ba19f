// The five lazy-migration unit kinds over one shared data set, for tests
// that must hold for every kind (stress_test, migrator_test).
//
// Data: src(id, grp, val) with `rows` rows, grp = id % groups (indexed),
// val = id * 10; dim(g, label) with one row per group, label = g * 7.
//  - kProjection:      src -> copy(id, grp, val)            bitmap over src
//  - kAggregate:       src -> sums(grp, total) GROUP BY grp hashmap of grps
//  - kJoinHashKey:     src JOIN dim ON grp = g -> joined(id, grp, val,
//                      label), hashmap of join keys
//  - kJoinForeignSide: the same join, bitmap over src (the FKIT)
//  - kJoinAllSiblings: the same join, bitmap over dim (the PKIT); a
//                      predicate on grp reaches dim only through the join
//                      key, so it exercises the narrowing candidate path

#ifndef BULLFROG_TESTS_UNIT_KINDS_H_
#define BULLFROG_TESTS_UNIT_KINDS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "migration/spec.h"
#include "txn/txn_manager.h"

namespace bullfrog {

enum class UnitKind {
  kProjection,
  kAggregate,
  kJoinHashKey,
  kJoinForeignSide,
  kJoinAllSiblings,
};

inline const std::vector<UnitKind>& AllUnitKinds() {
  static const std::vector<UnitKind> kinds = {
      UnitKind::kProjection, UnitKind::kAggregate, UnitKind::kJoinHashKey,
      UnitKind::kJoinForeignSide, UnitKind::kJoinAllSiblings};
  return kinds;
}

inline std::string UnitKindName(UnitKind kind) {
  switch (kind) {
    case UnitKind::kProjection:
      return "ProjectionBitmap";
    case UnitKind::kAggregate:
      return "AggregateHash";
    case UnitKind::kJoinHashKey:
      return "JoinHashKey";
    case UnitKind::kJoinForeignSide:
      return "JoinForeignSide";
    case UnitKind::kJoinAllSiblings:
      return "JoinAllSiblings";
  }
  return "Unknown";
}

/// Injected transform failures: the next `fail_next` calls fail, and after
/// that one call in `one_in` (0 = never), chosen by a splitmix64 sequence
/// from the seed in `counter`. Thread-safe.
struct FaultInjector {
  std::atomic<int> fail_next{0};
  uint64_t one_in = 0;
  std::atomic<uint64_t> counter{0};
  std::atomic<uint64_t> fired{0};

  Status Next() {
    bool fail = fail_next.fetch_sub(1) > 0;
    if (!fail && one_in > 0) {
      uint64_t x = counter.fetch_add(0x9e3779b97f4a7c15ULL);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      fail = (x ^ (x >> 31)) % one_in == 0;
    }
    if (!fail) return Status::OK();
    fired.fetch_add(1);
    return Status::TxnAborted("injected migration failure");
  }
};

/// The tables of one test, in `catalog` with transactions on `txns` (a
/// Database's, for tests that drive sessions), or in a catalog and
/// transaction manager of its own when both are null.
class UnitKindData {
 public:
  using Row = std::vector<int64_t>;

  UnitKindData(int rows, int groups, Catalog* catalog = nullptr,
               TransactionManager* txns = nullptr)
      : rows_(rows),
        groups_(groups),
        catalog_(catalog != nullptr ? *catalog : own_catalog_),
        txns_(txns != nullptr ? *txns : own_txns_) {
    auto src = catalog_.CreateTable(SchemaBuilder("src")
                                        .AddColumn("id", ValueType::kInt64,
                                                   false)
                                        .AddColumn("grp", ValueType::kInt64)
                                        .AddColumn("val", ValueType::kInt64)
                                        .SetPrimaryKey({"id"})
                                        .Build());
    EXPECT_TRUE(src.ok());
    EXPECT_TRUE(
        (*src)->CreateIndex("src_by_grp", {"grp"}, false, IndexKind::kHash)
            .ok());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE((*src)
                      ->Insert(Tuple{Value::Int(i), Value::Int(i % groups),
                                     Value::Int(i * 10)})
                      .ok());
    }
    auto dim = catalog_.CreateTable(SchemaBuilder("dim")
                                        .AddColumn("g", ValueType::kInt64,
                                                   false)
                                        .AddColumn("label", ValueType::kInt64)
                                        .SetPrimaryKey({"g"})
                                        .Build());
    EXPECT_TRUE(dim.ok());
    for (int g = 0; g < groups; ++g) {
      EXPECT_TRUE((*dim)->Insert(Tuple{Value::Int(g), Value::Int(g * 7)}).ok());
    }
    CreateOutput("copy", {"id", "grp", "val"}, {"id"});
    CreateOutput("sums", {"grp", "total"}, {"grp"});
    CreateOutput("joined", {"id", "grp", "val", "label"}, {"id"});
  }

  Catalog& catalog() { return catalog_; }
  TransactionManager& txns() { return txns_; }

  static std::string OutputOf(UnitKind kind) {
    switch (kind) {
      case UnitKind::kProjection:
        return "copy";
      case UnitKind::kAggregate:
        return "sums";
      default:
        return "joined";
    }
  }

  /// The statement for `kind`; every transform call first asks `faults`
  /// (may be null) whether to fail.
  MigrationStatement Statement(UnitKind kind,
                               std::shared_ptr<FaultInjector> faults) const {
    MigrationStatement stmt;
    stmt.name = "stmt_" + UnitKindName(kind);
    stmt.input_tables = {"src"};
    stmt.output_tables = {OutputOf(kind)};
    stmt.provenance.AddPassThrough("grp", "src", "grp");
    auto fault = [faults]() {
      return faults == nullptr ? Status::OK() : faults->Next();
    };
    if (kind == UnitKind::kProjection) {
      stmt.category = MigrationCategory::kOneToOne;
      stmt.provenance.AddPassThrough("id", "src", "id");
      stmt.provenance.AddPassThrough("val", "src", "val");
      stmt.row_transform =
          [fault](const Tuple& in) -> Result<std::vector<TargetRow>> {
        BF_RETURN_NOT_OK(fault());
        return std::vector<TargetRow>{TargetRow{0, in}};
      };
      return stmt;
    }
    if (kind == UnitKind::kAggregate) {
      stmt.category = MigrationCategory::kManyToOne;
      stmt.group_key_columns = {"grp"};
      stmt.provenance.AddDerived("total");
      stmt.group_transform =
          [fault](const Tuple& key, const std::vector<Tuple>& rows)
          -> Result<std::vector<TargetRow>> {
        BF_RETURN_NOT_OK(fault());
        int64_t total = 0;
        for (const Tuple& r : rows) total += r[2].AsInt();
        return std::vector<TargetRow>{
            TargetRow{0, Tuple{key[0], Value::Int(total)}}};
      };
      return stmt;
    }
    stmt.category = MigrationCategory::kManyToMany;
    stmt.input_tables = {"src", "dim"};
    stmt.left_join_column = "grp";
    stmt.right_join_column = "g";
    stmt.join_policy = kind == UnitKind::kJoinHashKey
                           ? JoinPolicy::kHashJoinKey
                           : kind == UnitKind::kJoinForeignSide
                                 ? JoinPolicy::kTrackForeignSideOnly
                                 : JoinPolicy::kMigrateAllSiblings;
    stmt.provenance.AddPassThrough("id", "src", "id");
    stmt.provenance.AddPassThrough("val", "src", "val");
    stmt.provenance.AddPassThrough("label", "dim", "label");
    stmt.join_transform = [fault](const Tuple& l, const Tuple& r)
        -> Result<std::vector<TargetRow>> {
      BF_RETURN_NOT_OK(fault());
      return std::vector<TargetRow>{
          TargetRow{0, Tuple{l[0], l[1], l[2], r[1]}}};
    };
    return stmt;
  }

  /// The exact final rows of `kind`'s output, sorted; only those of
  /// `groups` when given.
  std::vector<Row> Expected(UnitKind kind,
                            const std::set<int64_t>* groups = nullptr) const {
    std::vector<Row> out;
    for (int64_t g = 0; g < groups_; ++g) {
      if (groups != nullptr && groups->count(g) == 0) continue;
      int64_t total = 0;
      for (int64_t id = g; id < rows_; id += groups_) {
        total += id * 10;
        if (kind == UnitKind::kProjection) out.push_back({id, g, id * 10});
        if (kind != UnitKind::kProjection && kind != UnitKind::kAggregate) {
          out.push_back({id, g, id * 10, g * 7});
        }
      }
      if (kind == UnitKind::kAggregate) out.push_back({g, total});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The rows now in `kind`'s output table, sorted.
  std::vector<Row> Output(UnitKind kind) {
    std::vector<Row> out;
    catalog_.FindTable(OutputOf(kind))->Scan([&](RowId, const Tuple& t) {
      Row row;
      for (const Value& v : t.values()) row.push_back(v.AsInt());
      out.push_back(std::move(row));
      return true;
    });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void CreateOutput(const std::string& name,
                    const std::vector<std::string>& columns,
                    const std::vector<std::string>& key) {
    SchemaBuilder b(name);
    for (const std::string& c : columns) {
      b.AddColumn(c, ValueType::kInt64, c != columns[0]);
    }
    EXPECT_TRUE(catalog_.CreateTable(b.SetPrimaryKey(key).Build()).ok());
  }

  const int rows_;
  const int groups_;
  Catalog own_catalog_;
  TransactionManager own_txns_;
  Catalog& catalog_;
  TransactionManager& txns_;
};

}  // namespace bullfrog

#endif  // BULLFROG_TESTS_UNIT_KINDS_H_
