#include <gtest/gtest.h>

#include <map>
#include <random>
#include <thread>

#include "bullfrog/database.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/multistep.h"
#include "migration/upsert.h"
#include "query/scan.h"
#include "txn/txn_manager.h"
#include "unit_kinds.h"

namespace bullfrog {
namespace {

TableSchema SrcSchema() {
  return SchemaBuilder("src")
      .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("grp", ValueType::kInt64)
      .AddColumn("val", ValueType::kInt64)
      .SetPrimaryKey({"id"})
      .Build();
}

class UpsertTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(SrcSchema());
  }
  Tuple Row(int64_t id, int64_t g, int64_t v) {
    return Tuple{Value::Int(id), Value::Int(g), Value::Int(v)};
  }
  TransactionManager txns_;
  std::unique_ptr<Table> table_;
};

TEST_F(UpsertTest, InsertsWhenAbsent) {
  auto txn = txns_.Begin();
  ASSERT_TRUE(UpsertByPk(&txns_, txn.get(), table_.get(), Row(1, 0, 5)).ok());
  ASSERT_TRUE(txns_.Commit(txn.get()).ok());
  EXPECT_EQ(table_->NumLiveRows(), 1u);
}

TEST_F(UpsertTest, UpdatesWhenPresent) {
  auto setup = txns_.Begin();
  ASSERT_TRUE(UpsertByPk(&txns_, setup.get(), table_.get(), Row(1, 0, 5))
                  .ok());
  ASSERT_TRUE(txns_.Commit(setup.get()).ok());
  auto txn = txns_.Begin();
  ASSERT_TRUE(UpsertByPk(&txns_, txn.get(), table_.get(), Row(1, 0, 9)).ok());
  ASSERT_TRUE(txns_.Commit(txn.get()).ok());
  EXPECT_EQ(table_->NumLiveRows(), 1u);
  Tuple row;
  ASSERT_TRUE(table_->Read(0, &row).ok());
  EXPECT_EQ(row[2].AsInt(), 9);
}

TEST_F(UpsertTest, DeleteByPkRemovesMatching) {
  auto setup = txns_.Begin();
  ASSERT_TRUE(UpsertByPk(&txns_, setup.get(), table_.get(), Row(1, 0, 5))
                  .ok());
  ASSERT_TRUE(txns_.Commit(setup.get()).ok());
  auto txn = txns_.Begin();
  ASSERT_TRUE(DeleteByPk(&txns_, txn.get(), table_.get(), Row(1, 0, 0)).ok());
  // Deleting a missing key is a no-op.
  ASSERT_TRUE(DeleteByPk(&txns_, txn.get(), table_.get(), Row(7, 0, 0)).ok());
  ASSERT_TRUE(txns_.Commit(txn.get()).ok());
  EXPECT_EQ(table_->NumLiveRows(), 0u);
}

TEST_F(UpsertTest, RequiresPrimaryKey) {
  Table no_pk(SchemaBuilder("nopk").AddColumn("x", ValueType::kInt64).Build());
  auto txn = txns_.Begin();
  EXPECT_EQ(UpsertByPk(&txns_, txn.get(), &no_pk, Tuple{Value::Int(1)})
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(txns_.Abort(txn.get()).ok());
}

class MultiStepTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 200;
  static constexpr int kGroups = 10;

  void SetUp() override {
    auto src = catalog_.CreateTable(SrcSchema());
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(
        (*src)->CreateIndex("src_by_grp", {"grp"}, false, IndexKind::kHash)
            .ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*src)
                      ->Insert(Tuple{Value::Int(i), Value::Int(i % kGroups),
                                     Value::Int(1)})
                      .ok());
    }
    ASSERT_TRUE(catalog_.CreateTable(SchemaBuilder("sums")
                                         .AddColumn("grp", ValueType::kInt64,
                                                    false)
                                         .AddColumn("total",
                                                    ValueType::kInt64)
                                         .SetPrimaryKey({"grp"})
                                         .Build())
                    .ok());
    plan_.name = "sum";
    MigrationStatement stmt;
    stmt.name = "sum_src";
    stmt.category = MigrationCategory::kManyToOne;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"sums"};
    stmt.group_key_columns = {"grp"};
    stmt.group_transform =
        [](const Tuple& key,
           const std::vector<Tuple>& rows) -> Result<std::vector<TargetRow>> {
      if (rows.empty()) return std::vector<TargetRow>{};
      int64_t total = 0;
      for (const Tuple& r : rows) total += r[2].AsInt();
      return std::vector<TargetRow>{
          TargetRow{0, Tuple{key[0], Value::Int(total)}}};
    };
    plan_.statements.push_back(std::move(stmt));
    plan_.retire_tables = {"src"};
  }

  Catalog catalog_;
  TransactionManager txns_;
  MigrationPlan plan_;
};

TEST_F(MultiStepTest, AggregateCopyAndCutover) {
  std::atomic<bool> cut{false};
  MultiStepCopier::Options opts;
  opts.threads = 2;
  opts.batch = 32;
  opts.pause_us = 0;
  MultiStepCopier copier(&catalog_, &txns_, &plan_, opts, [&]() -> Status {
    cut.store(true);
    return Status::OK();
  });
  copier.Start();
  Stopwatch sw;
  while (!copier.SwitchedOver() && sw.ElapsedMillis() < 10000) {
    Clock::SleepMillis(5);
  }
  ASSERT_TRUE(copier.SwitchedOver());
  EXPECT_TRUE(cut.load());
  Table* sums = catalog_.FindTable("sums");
  EXPECT_EQ(sums->NumLiveRows(), static_cast<uint64_t>(kGroups));
  sums->Scan([&](RowId, const Tuple& row) {
    EXPECT_EQ(row[1].AsInt(), kRows / kGroups);
    return true;
  });
  EXPECT_DOUBLE_EQ(copier.Progress(), 1.0);
}

TEST_F(MultiStepTest, AggregatePropagationRecomputesGroup) {
  MultiStepCopier::Options opts;
  opts.threads = 1;
  opts.batch = 1024;
  opts.pause_us = 0;
  std::atomic<bool> allow_cut{false};
  MultiStepCopier copier(&catalog_, &txns_, &plan_, opts, [&]() -> Status {
    if (!allow_cut.load()) return Status::Busy("not yet");
    return Status::OK();
  });
  copier.Start();
  // Wait until group 3 is copied (progress ~complete but cutover held).
  Stopwatch sw;
  while (copier.Progress() < 1.0 && sw.ElapsedMillis() < 5000) {
    Clock::SleepMillis(2);
  }
  // A dual write: add a row to group 3 (old schema still active).
  Table* src = catalog_.FindTable("src");
  auto txn = txns_.Begin();
  const Tuple row{Value::Int(kRows + 1), Value::Int(3), Value::Int(10)};
  auto out = txns_.Insert(txn.get(), src, row);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(
      copier.Propagate(txn.get(), "src", out->rid, /*before=*/nullptr, &row)
          .ok());
  ASSERT_TRUE(txns_.Commit(txn.get()).ok());
  // The shadow aggregate reflects the write immediately.
  Table* sums = catalog_.FindTable("sums");
  auto rows = CollectWhere(*sums, Eq(Col("grp"), LitInt(3)));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().second[1].AsInt(), kRows / kGroups + 10);
  allow_cut.store(true);
  while (!copier.SwitchedOver() && sw.ElapsedMillis() < 10000) {
    Clock::SleepMillis(5);
  }
  EXPECT_TRUE(copier.SwitchedOver());
}

/// The baseline driven through Database sessions over tests/unit_kinds.h's
/// data, the way clients call PropagateOldWrite.
class MultiStepDatabaseTest : public ::testing::Test {
 protected:
  using Row = UnitKindData::Row;
  using RowTransform = MigrationStatement::RowTransform;

  MultiStepDatabaseTest(int rows, int groups)
      : data_(rows, groups, &db_.catalog(), &db_.txns()) {}
  MultiStepDatabaseTest() : MultiStepDatabaseTest(2000, 10) {}

  /// `wrap`, when given, replaces the submitted statement's row_transform
  /// (stmt_ keeps the plain one for Reference).
  void Submit(UnitKind kind, MultiStepCopier::Options options,
              std::function<RowTransform(RowTransform)> wrap = nullptr) {
    stmt_ = data_.Statement(kind, nullptr);
    MigrationPlan plan;
    plan.name = "ms_" + UnitKindName(kind);
    plan.statements.push_back(stmt_);
    if (wrap) {
      plan.statements[0].row_transform = wrap(stmt_.row_transform);
    }
    MigrationController::SubmitOptions opts;
    opts.strategy = MigrationStrategy::kMultiStep;
    opts.multistep = options;
    ASSERT_TRUE(db_.SubmitMigration(std::move(plan), opts).ok());
  }

  /// Commits `op` in a session over src and dim, retrying retryable
  /// failures. Returns false, without writing, once the copier has cut
  /// over.
  bool Write(const std::function<Status(Database::Session*)>& op) {
    for (;;) {
      Database::Session session = db_.BeginSession({"src", "dim"});
      // The session holds the copier's write gate shared, so the copier
      // cannot cut over while it is open.
      if (!db_.controller().MultiStepActive()) return false;
      Status s = op(&session);
      if (s.ok()) s = db_.Commit(&session);
      if (s.ok()) return true;
      EXPECT_TRUE(s.IsRetryable()) << s.ToString();
      if (!s.IsRetryable()) return false;
      (void)db_.Abort(&session);
      Clock::SleepMicros(100);
    }
  }

  Status SetColumn(Database::Session* session, const std::string& table,
                   const std::string& key_column, int64_t key, size_t column,
                   int64_t value) {
    return db_
        .Update(session, table, Eq(Col(key_column), LitInt(key)),
                [&](const Tuple& row) {
                  Tuple next = row;
                  next[column] = Value::Int(value);
                  return next;
                })
        .status();
  }

  void WaitProgress(double at_least) {
    Stopwatch sw;
    while (db_.controller().Progress() < at_least &&
           sw.ElapsedMillis() < 60000) {
      Clock::SleepMillis(1);
    }
  }

  void WaitComplete() {
    Stopwatch sw;
    while (!db_.controller().IsComplete() && sw.ElapsedMillis() < 60000) {
      Clock::SleepMillis(2);
    }
    ASSERT_TRUE(db_.controller().IsComplete());
  }

  /// The statement's transform over the final inputs, sorted.
  std::vector<Row> Reference() {
    std::vector<TargetRow> targets;
    auto add = [&](Result<std::vector<TargetRow>> rows) {
      ASSERT_TRUE(rows.ok());
      for (TargetRow& t : *rows) targets.push_back(std::move(t));
    };
    std::vector<Tuple> src;
    std::vector<Tuple> dim;
    db_.catalog().FindTable("src")->Scan([&](RowId, const Tuple& row) {
      src.push_back(row);
      return true;
    });
    db_.catalog().FindTable("dim")->Scan([&](RowId, const Tuple& row) {
      dim.push_back(row);
      return true;
    });
    if (stmt_.IsProjection()) {
      for (const Tuple& row : src) add(stmt_.row_transform(row));
    } else if (stmt_.IsAggregate()) {
      std::map<int64_t, std::vector<Tuple>> groups;
      for (const Tuple& row : src) groups[row[1].AsInt()].push_back(row);
      for (const auto& [g, rows] : groups) {
        add(stmt_.group_transform(Tuple{Value::Int(g)}, rows));
      }
    } else {
      for (const Tuple& l : src) {
        for (const Tuple& r : dim) {
          if (l[1] == r[0]) add(stmt_.join_transform(l, r));
        }
      }
    }
    std::vector<Row> out;
    for (const TargetRow& t : targets) {
      Row row;
      for (const Value& v : t.row.values()) row.push_back(v.AsInt());
      out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Database db_;
  UnitKindData data_;
  MigrationStatement stmt_;
};

/// Dual writes that move rows between units. Each test writes once, after
/// the copier's first batch (which copies every unit: 64 rows span all 10
/// groups) and well before the copy ends.
class MultiStepDualWriteTest : public MultiStepDatabaseTest {
 protected:
  void WriteMidCopy(UnitKind kind,
                    const std::function<Status(Database::Session*)>& op) {
    MultiStepCopier::Options options;
    options.threads = 1;
    options.batch = 64;
    options.pause_us = 20000;
    Submit(kind, options);
    // One thread: the second claim starts after the first batch is copied.
    WaitProgress(2.0 * 64 / 2000);
    ASSERT_TRUE(Write(op)) << "the copy ended before the write";
    WaitComplete();
    EXPECT_EQ(data_.Output(kind), Reference());
  }
};

TEST_F(MultiStepDualWriteTest, GroupMoveRecomputesTheGroupLeft) {
  WriteMidCopy(UnitKind::kAggregate, [&](Database::Session* s) {
    return SetColumn(s, "src", "id", 5, /*column=*/1, /*value=*/6);
  });
}

TEST_F(MultiStepDualWriteTest, EmptiedGroupLosesItsRow) {
  WriteMidCopy(UnitKind::kAggregate, [&](Database::Session* s) {
    return db_.Delete(s, "src", Eq(Col("grp"), LitInt(7))).status();
  });
}

TEST_F(MultiStepDualWriteTest, ProjectionKeyChangeDeletesOldKey) {
  WriteMidCopy(UnitKind::kProjection, [&](Database::Session* s) {
    return SetColumn(s, "src", "id", 5, /*column=*/0, /*value=*/50000);
  });
}

/// A delete that commits while the copier derives the deleted row's
/// target must not leave that target behind.
TEST_F(MultiStepDualWriteTest, DeleteDuringRowCopyLeavesNoOrphan) {
  constexpr int64_t kId = 5;
  std::atomic<bool> armed{true};
  std::atomic<bool> entered{false};
  std::atomic<bool> deleted{false};
  MultiStepCopier::Options options;
  options.threads = 1;
  options.batch = 64;
  options.pause_us = 20000;
  Submit(UnitKind::kProjection, options, [&](RowTransform inner) {
    return [&, inner](const Tuple& row) {
      // The copier's first derivation of kId waits (bounded) for the
      // delete; the delete's own propagation passes straight through.
      if (row[0].AsInt() == kId && armed.exchange(false)) {
        entered = true;
        Stopwatch sw;
        while (!deleted && sw.ElapsedMillis() < 1000) Clock::SleepMillis(1);
      }
      return inner(row);
    };
  });
  Stopwatch sw;
  while (!entered && sw.ElapsedMillis() < 30000) Clock::SleepMillis(1);
  ASSERT_TRUE(entered);
  ASSERT_TRUE(Write([&](Database::Session* s) {
    return db_.Delete(s, "src", Eq(Col("id"), LitInt(kId))).status();
  })) << "the copy ended before the write";
  deleted = true;
  WaitComplete();
  EXPECT_EQ(data_.Output(UnitKind::kProjection), Reference());
}

TEST_F(MultiStepDualWriteTest, JoinKeyChangeDeletesOldPairs) {
  // dim's row 3 leaves its class: src's group-3 rows no longer join.
  WriteMidCopy(UnitKind::kJoinHashKey, [&](Database::Session* s) {
    return SetColumn(s, "dim", "g", 3, /*column=*/0, /*value=*/33);
  });
}

/// Exactness against the copier: one writer thread commits inserts,
/// deletes and updates (some move a row to another group, a unit-key
/// change for the aggregate and the join; some change the primary key)
/// while the copier runs through cutover; a tail session inserts rows
/// after the watermark has passed, so TryCutover copies a tail. The shadow
/// table must then equal the statement's transform over the final inputs.
///
/// Left out on purpose: more than one writer (MultiStepCopier's "Known
/// simplification").
class MultiStepExactnessTest
    : public MultiStepDatabaseTest,
      public ::testing::WithParamInterface<UnitKind> {
 protected:
  static constexpr int kRows = 1000;
  static constexpr int kGroups = 10;
  static constexpr uint64_t kBatch = 32;

  MultiStepExactnessTest() : MultiStepDatabaseTest(kRows, kGroups) {}
};

TEST_P(MultiStepExactnessTest, ShadowEqualsTransformOfFinalInputs) {
  const UnitKind kind = GetParam();
  MultiStepCopier::Options options;
  options.threads = 2;
  options.batch = kBatch;
  options.pause_us = 4000;
  Submit(kind, options);
  // Opened before the copy can end, the tail session keeps the copier from
  // cutting over until it ends.
  auto tail =
      std::make_unique<Database::Session>(db_.BeginSession({"src", "dim"}));
  ASSERT_TRUE(db_.controller().MultiStepActive());

  std::thread writer([&] {
    std::mt19937_64 rng(7);
    int64_t next_id = kRows;
    for (int op = 0; op < 300; ++op) {
      const uint64_t r = rng();
      const int64_t id = static_cast<int64_t>(rng() % kRows);
      const int64_t value = static_cast<int64_t>(rng() % 1000);
      std::function<Status(Database::Session*)> write;
      if (r % 10 < 2) {
        const int64_t new_id = next_id++;
        write = [&, new_id, value](Database::Session* s) {
          return db_.Insert(s, "src",
                            Tuple{Value::Int(new_id),
                                  Value::Int(value % kGroups),
                                  Value::Int(value)});
        };
      } else if (r % 10 < 4) {
        write = [&, id, value](Database::Session* s) {
          return SetColumn(s, "src", "id", id, /*column=*/2, value);
        };
      } else if (r % 10 < 6) {
        write = [&, id, value](Database::Session* s) {
          return SetColumn(s, "src", "id", id, /*column=*/1, value % kGroups);
        };
      } else if (r % 10 < 7) {
        write = [&, id](Database::Session* s) {
          return db_.Delete(s, "src", Eq(Col("id"), LitInt(id))).status();
        };
      } else if (r % 10 < 9) {
        const int64_t new_id = next_id++;
        write = [&, id, new_id](Database::Session* s) {
          return SetColumn(s, "src", "id", id, /*column=*/0, new_id);
        };
      } else {
        write = [&, value](Database::Session* s) {
          return SetColumn(s, "dim", "g", value % kGroups, /*column=*/1,
                           value);
        };
      }
      if (!Write(write)) return;
      Clock::SleepMicros(200);
    }
  });

  // Wait until the watermark has passed the end and the copier waits for
  // the write gate in TryCutover (a waiting writer fails try_lock_shared),
  // then insert more than a batch past the watermark.
  WaitProgress(1.0);
  const MigrationController::Views views = db_.controller().CurrentViews();
  WriterPriorityGate& gate = views.routing->multistep->multistep->write_gate();
  while (gate.try_lock_shared()) {
    gate.unlock_shared();
    Clock::SleepMillis(1);
  }
  for (int64_t id = 1'000'000; id < 1'000'000 + 2 * int64_t{kBatch}; ++id) {
    ASSERT_TRUE(db_.Insert(tail.get(), "src",
                           Tuple{Value::Int(id), Value::Int(id % kGroups),
                                 Value::Int(id * 10)})
                    .ok());
  }
  ASSERT_TRUE(db_.Commit(tail.get()).ok());
  tail.reset();
  WaitComplete();
  writer.join();
  EXPECT_EQ(data_.Output(kind), Reference());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MultiStepExactnessTest,
    ::testing::Values(UnitKind::kProjection, UnitKind::kAggregate,
                      UnitKind::kJoinHashKey),
    [](const ::testing::TestParamInfo<UnitKind>& info) {
      return UnitKindName(info.param);
    });

}  // namespace
}  // namespace bullfrog
