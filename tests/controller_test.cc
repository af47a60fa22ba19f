#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/controller.h"
#include "query/scan.h"
#include "replication/applier.h"
#include "txn/txn_manager.h"

namespace bullfrog {

/// White-box access for tests: inspects the controller's gate map.
class MigrationControllerTestPeer {
 public:
  static size_t NumGates(const MigrationController& c) {
    std::lock_guard lock(c.mu_);
    return c.gates_.size();
  }
};

namespace {

/// Fixture: src(id, grp, val) split into out_a(id, val) / out_b(id, grp).
class ControllerTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 300;
  static constexpr int kGroups = 10;

  void SetUp() override {
    controller_ = std::make_unique<MigrationController>(&catalog_, &txns_);
    CreateSource(&catalog_);
  }

  static void CreateSource(Catalog* catalog) {
    auto src = catalog->CreateTable(SchemaBuilder("src")
                                        .AddColumn("id", ValueType::kInt64,
                                                   false)
                                        .AddColumn("grp", ValueType::kInt64)
                                        .AddColumn("val", ValueType::kInt64)
                                        .SetPrimaryKey({"id"})
                                        .Build());
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(
        (*src)->CreateIndex("src_by_grp", {"grp"}, false, IndexKind::kHash)
            .ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE((*src)
                      ->Insert(Tuple{Value::Int(i), Value::Int(i % kGroups),
                                     Value::Int(i)})
                      .ok());
    }
  }

  MigrationPlan SplitPlan() {
    MigrationPlan plan;
    plan.name = "split";
    plan.new_tables = {SchemaBuilder("out_a")
                           .AddColumn("id", ValueType::kInt64, false)
                           .AddColumn("val", ValueType::kInt64)
                           .SetPrimaryKey({"id"})
                           .Build(),
                       SchemaBuilder("out_b")
                           .AddColumn("id", ValueType::kInt64, false)
                           .AddColumn("grp", ValueType::kInt64)
                           .SetPrimaryKey({"id"})
                           .Build()};
    plan.retire_tables = {"src"};
    MigrationStatement stmt;
    stmt.name = "split_src";
    stmt.category = MigrationCategory::kOneToMany;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"out_a", "out_b"};
    stmt.provenance.AddPassThrough("id", "src", "id");
    stmt.provenance.AddPassThrough("grp", "src", "grp");
    stmt.provenance.AddPassThrough("val", "src", "val");
    stmt.row_transform =
        [](const Tuple& in) -> Result<std::vector<TargetRow>> {
      return std::vector<TargetRow>{TargetRow{0, Tuple{in[0], in[2]}},
                                    TargetRow{1, Tuple{in[0], in[1]}}};
    };
    plan.statements.push_back(std::move(stmt));
    return plan;
  }

  MigrationController::SubmitOptions LazyOpts(bool background = true) {
    MigrationController::SubmitOptions opts;
    opts.strategy = MigrationStrategy::kLazy;
    opts.enable_background = background;
    opts.lazy.background_start_delay_ms = 10;
    opts.lazy.background_pause_us = 0;
    return opts;
  }

  void WaitComplete(int timeout_ms = 10000) {
    Stopwatch sw;
    while (!controller_->IsComplete() && sw.ElapsedMillis() < timeout_ms) {
      Clock::SleepMillis(5);
    }
    ASSERT_TRUE(controller_->IsComplete());
  }

  uint64_t CountRows(const std::string& name) {
    Table* t = catalog_.FindTable(name);
    return t == nullptr ? 0 : t->NumLiveRows();
  }

  Catalog catalog_;
  TransactionManager txns_;
  std::unique_ptr<MigrationController> controller_;
};

TEST_F(ControllerTest, LazySubmitIsLogicalSwitchOnly) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  // The switch is immediate: new tables active, old rejected (§2.1 big
  // flip), and no data has physically moved yet.
  EXPECT_TRUE(catalog_.RequireActive("out_a").ok());
  EXPECT_EQ(catalog_.RequireActive("src").status().code(),
            StatusCode::kSchemaMismatch);
  EXPECT_TRUE(catalog_.RequireReadable("src").ok());
  EXPECT_EQ(CountRows("out_a"), 0u);
  EXPECT_TRUE(controller_->HasActiveMigration());
  EXPECT_FALSE(controller_->IsComplete());
}

TEST_F(ControllerTest, PrepareReadMigratesRelevantTuples) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  ASSERT_TRUE(
      controller_->PrepareRead("out_a", Eq(Col("id"), LitInt(7))).ok());
  EXPECT_EQ(CountRows("out_a"), 1u);
  Table* out_a = catalog_.FindTable("out_a");
  auto rows = CollectWhere(*out_a, Eq(Col("id"), LitInt(7)));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().second[1].AsInt(), 7);
}

TEST_F(ControllerTest, BackgroundDrivesMigrationToCompletion) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(true)).ok());
  WaitComplete();
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(CountRows("out_b"), static_cast<uint64_t>(kRows));
  // §2.2: once complete, the old schema is deleted.
  EXPECT_EQ(catalog_.GetState("src"), TableState::kDropped);
  auto timeline = controller_->timeline();
  EXPECT_GE(timeline.background_start_s, 0.0);
  EXPECT_GE(timeline.complete_s, 0.0);
  EXPECT_DOUBLE_EQ(controller_->Progress(), 1.0);
}

TEST_F(ControllerTest, SecondSubmitOverSameTablesQueues) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  // A lazy submit over overlapping tables no longer bounces with kBusy:
  // it joins the migration train behind the in-flight entry and starts
  // automatically once that entry completes.
  MigrationPlan another = SplitPlan();
  another.name = "again";
  const Status st = controller_->Submit(std::move(another), LazyOpts(false));
  EXPECT_EQ(st.code(), StatusCode::kQueued) << st.ToString();
  EXPECT_EQ(controller_->QueuedMigrations(), 1u);
  EXPECT_EQ(controller_->ActiveMigrations(), 1u);
  // Non-lazy strategies cannot ride the train — the eager copy loop
  // needs its inputs to exist at submit time.
  MigrationPlan eager = SplitPlan();
  eager.name = "eager-overlap";
  auto opts = LazyOpts(false);
  opts.strategy = MigrationStrategy::kEager;
  EXPECT_EQ(controller_->Submit(std::move(eager), opts).code(),
            StatusCode::kBusy);
  // Re-submitting a queued name is a duplicate, not a second queue slot.
  MigrationPlan dup = SplitPlan();
  dup.name = "again";
  EXPECT_EQ(controller_->Submit(std::move(dup), LazyOpts(false)).code(),
            StatusCode::kBusy);
}

TEST_F(ControllerTest, PrepareInsertMigratesConflictingKeys) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  // Inserting id=9 into out_a: the old row with id 9 must be migrated
  // first so the PK constraint can be checked over the new schema (§2.1).
  ASSERT_TRUE(controller_
                  ->PrepareInsert("out_a", Tuple{Value::Int(9), Value::Int(0)})
                  .ok());
  Table* out_a = catalog_.FindTable("out_a");
  auto rows = CollectWhere(*out_a, Eq(Col("id"), LitInt(9)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  // Now the insert would correctly conflict.
  EXPECT_TRUE(out_a->Insert(Tuple{Value::Int(9), Value::Int(1)})
                  .status()
                  .IsAlreadyExists());
}

TEST_F(ControllerTest, EagerSubmitBlocksUntilFullyMigrated) {
  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kEager;
  ASSERT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
  // Eager returns only when everything has moved.
  EXPECT_TRUE(controller_->IsComplete());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(catalog_.GetState("src"), TableState::kDropped);
}

TEST_F(ControllerTest, EagerGatesReleasedAfterCompletion) {
  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kEager;
  ASSERT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
  EXPECT_TRUE(controller_->IsComplete());
  // The per-table gates created for the eager copy are dropped once the
  // copy is over: later GuardTables calls must not keep taking shared
  // locks on dead gates forever.
  EXPECT_EQ(MigrationControllerTestPeer::NumGates(*controller_), 0u);
  auto guard = controller_->GuardTables({"out_a", "out_b"});
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
}

TEST_F(ControllerTest, EagerGatesQueueConcurrentRequests) {
  std::atomic<bool> migration_done{false};
  std::atomic<bool> request_finished{false};
  std::thread migrator([&] {
    auto opts = LazyOpts();
    opts.strategy = MigrationStrategy::kEager;
    ASSERT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
    migration_done.store(true);
  });
  // A request that touches out_a must wait for the eager copy.
  Clock::SleepMillis(1);  // Let Submit install the gates.
  std::thread client([&] {
    for (;;) {
      auto guard = controller_->GuardTables({"out_a"});
      if (controller_->HasActiveMigration()) {
        // Gate acquired: the eager copy must have finished (the gates are
        // released only after completion).
        EXPECT_TRUE(controller_->IsComplete());
        request_finished.store(true);
        return;
      }
      // Submit had not created the gate yet; retry.
      Clock::SleepMillis(1);
    }
  });
  migrator.join();
  client.join();
  EXPECT_TRUE(request_finished.load());
}

TEST_F(ControllerTest, MultiStepKeepsOldSchemaActiveUntilCutover) {
  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 32;
  opts.multistep.pause_us = 0;
  ASSERT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
  // During the copy the old schema still serves requests (unless the
  // copier already won the race on this tiny data set).
  if (!controller_->IsComplete()) {
    EXPECT_TRUE(!controller_->UsesNewSchema() || controller_->IsComplete());
  }
  EXPECT_TRUE(catalog_.RequireActive("src").ok() ||
              controller_->IsComplete());
  WaitComplete();
  EXPECT_TRUE(controller_->UsesNewSchema());
  EXPECT_EQ(CountRows("out_a"), static_cast<uint64_t>(kRows));
  EXPECT_EQ(catalog_.GetState("src"), TableState::kDropped);
}

TEST_F(ControllerTest, MultiStepDualWritePropagation) {
  auto opts = LazyOpts();
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 16;
  opts.multistep.pause_us = 2000;  // Pace the copier so the write lands
                                   // mid-copy.
  ASSERT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
  Table* src = catalog_.FindTable("src");
  // Write through the dual-write path while the copier runs: update row 3.
  // The propagation can collide with the copier's in-flight batch txn on
  // the output row (the watermark advances before the batch commits) and
  // die under wait-die; retry like a real client until it lands or the
  // copier finishes.
  int64_t expected = 3;  // Original value if the copier already finished.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto guard = controller_->MultiStepWriteGuard();
    if (!controller_->MultiStepActive()) break;
    auto txn = txns_.Begin();
    const Tuple original{Value::Int(3), Value::Int(3 % kGroups),
                         Value::Int(3)};
    Tuple updated{Value::Int(3), Value::Int(3 % kGroups), Value::Int(777)};
    Status s = txns_.Update(txn.get(), src, 3, updated);
    if (s.ok()) {
      s = controller_->PropagateOldWrite(txn.get(), "src", 3, &original,
                                         &updated);
    }
    if (s.ok()) s = txns_.Commit(txn.get());
    if (s.ok()) {
      expected = 777;
      break;
    }
    ASSERT_TRUE(s.IsRetryable()) << s.ToString();
    (void)txns_.Abort(txn.get());
    Clock::SleepMillis(1);
  }
  WaitComplete();
  // Whether the copier or the propagation got there, the final new-schema
  // value must reflect the write (when it happened mid-copy).
  Table* out_a = catalog_.FindTable("out_a");
  auto rows = CollectWhere(*out_a, Eq(Col("id"), LitInt(3)));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->front().second[1].AsInt(), expected);
}

TEST_F(ControllerTest, ForeignKeyCheckedAgainstActiveParent) {
  // child.fk -> src.id while src is active.
  auto child = catalog_.CreateTable(SchemaBuilder("child")
                                        .AddColumn("cid", ValueType::kInt64,
                                                   false)
                                        .AddColumn("fk", ValueType::kInt64)
                                        .SetPrimaryKey({"cid"})
                                        .AddForeignKey("fk_src", {"fk"},
                                                       "src", {"id"})
                                        .Build());
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(controller_
                  ->CheckForeignKeys("child",
                                     Tuple{Value::Int(1), Value::Int(5)})
                  .ok());
  EXPECT_TRUE(controller_
                  ->CheckForeignKeys(
                      "child", Tuple{Value::Int(2), Value::Int(kRows + 5)})
                  .IsConstraintViolation());
  // NULL FK is vacuously fine.
  EXPECT_TRUE(controller_
                  ->CheckForeignKeys("child",
                                     Tuple{Value::Int(3), Value::Null()})
                  .ok());
}

TEST_F(ControllerTest, ForeignKeyIntoMigratingParentForcesMigration) {
  // child.fk -> out_b.id: the parent is a migration output, so the check
  // must migrate the parent row first (§4.5).
  auto child = catalog_.CreateTable(SchemaBuilder("child")
                                        .AddColumn("cid", ValueType::kInt64,
                                                   false)
                                        .AddColumn("fk", ValueType::kInt64)
                                        .SetPrimaryKey({"cid"})
                                        .AddForeignKey("fk_out", {"fk"},
                                                       "out_b", {"id"})
                                        .Build());
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  EXPECT_EQ(CountRows("out_b"), 0u);
  EXPECT_TRUE(controller_
                  ->CheckForeignKeys("child",
                                     Tuple{Value::Int(1), Value::Int(42)})
                  .ok());
  EXPECT_GE(CountRows("out_b"), 1u);
}

TEST_F(ControllerTest, TakeOwnershipKeepsReplayedTrackers) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(false)).ok());
  // Migrate a couple of units, then "crash".
  ASSERT_TRUE(
      controller_->PrepareRead("out_a", Eq(Col("id"), LitInt(1))).ok());
  ASSERT_TRUE(
      controller_->PrepareRead("out_a", Eq(Col("id"), LitInt(2))).ok());
  EXPECT_EQ(CountRows("out_a"), 2u);

  // Restart: a fresh node with the same source rows. SplitPlan has no
  // script, so no "migrate" record is logged; the node re-submits it in
  // replay mode where that record would sit (before every migration
  // commit), then replays the primary's log — whose committed marks
  // re-mark the tracker (§3.5) — and takes the migration over.
  Database b;
  CreateSource(&b.catalog());
  auto replay = LazyOpts(false);
  replay.replicated_replay = true;
  ASSERT_TRUE(b.controller().Submit(SplitPlan(), replay).ok());
  std::vector<LogRecord> records;
  txns_.redo_log().ReadFrom(0, SIZE_MAX, &records);
  replication::LogApplier applier(&b, /*append_to_local_log=*/true);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());
  ASSERT_TRUE(b.controller().TakeOwnership().ok());

  auto migrators = b.controller().migrators();
  ASSERT_EQ(migrators.size(), 1u);
  EXPECT_EQ(migrators[0]->tracker()->MigratedCount(), 2u);
  Table* out_a = b.catalog().FindTable("out_a");
  ASSERT_NE(out_a, nullptr);
  EXPECT_EQ(out_a->NumLiveRows(), 2u);
  // The replayed tracker remembers both units: preparing the same reads
  // must not duplicate-migrate (the PK would reject it)...
  ASSERT_TRUE(
      b.controller().PrepareRead("out_a", Eq(Col("id"), LitInt(1))).ok());
  ASSERT_TRUE(
      b.controller().PrepareRead("out_a", Eq(Col("id"), LitInt(2))).ok());
  EXPECT_EQ(out_a->NumLiveRows(), 2u);
  // ...while the node now migrates the rest itself.
  ASSERT_TRUE(
      b.controller().PrepareRead("out_a", Eq(Col("id"), LitInt(3))).ok());
  EXPECT_EQ(out_a->NumLiveRows(), 3u);
  EXPECT_EQ(migrators[0]->tracker()->MigratedCount(), 3u);
}

TEST_F(ControllerTest, TakeOwnershipWithoutMigrationIsNoOp) {
  EXPECT_TRUE(controller_->TakeOwnership().ok());
  EXPECT_FALSE(controller_->HasActiveMigration());
}

TEST_F(ControllerTest, SynchronousUniqueValidationRejectsDoomedMigration) {
  // §2.4: a uniqueness constraint over a column with duplicates would
  // doom the migration; the synchronous pre-check reports the error
  // before the new schema goes live.
  MigrationPlan plan = SplitPlan();
  // out_b keyed by grp: kRows rows share kGroups values -> duplicates.
  plan.new_tables[1] = SchemaBuilder("out_b")
                           .AddColumn("id", ValueType::kInt64, false)
                           .AddColumn("grp", ValueType::kInt64, false)
                           .SetPrimaryKey({"grp"})
                           .Build();
  auto opts = LazyOpts(false);
  opts.validate_unique_on_submit = true;
  EXPECT_TRUE(controller_->Submit(std::move(plan), opts)
                  .IsConstraintViolation());
  // Nothing switched: the old table still serves requests, the new ones
  // were torn down.
  EXPECT_TRUE(catalog_.RequireActive("src").ok() ||
              catalog_.GetState("src") == TableState::kRetired);
  EXPECT_FALSE(controller_->HasActiveMigration());
  // A clean plan still submits afterwards.
  // (src may have been retired by the failed attempt before validation —
  // the check runs first, so it must still be active.)
  EXPECT_TRUE(catalog_.RequireActive("src").ok());
}

TEST_F(ControllerTest, SynchronousUniqueValidationAcceptsCleanPlan) {
  auto opts = LazyOpts(false);
  opts.validate_unique_on_submit = true;
  EXPECT_TRUE(controller_->Submit(SplitPlan(), opts).ok());
  EXPECT_TRUE(controller_->HasActiveMigration());
}

TEST_F(ControllerTest, SecondMigrationAfterCompletionAccepted) {
  ASSERT_TRUE(controller_->Submit(SplitPlan(), LazyOpts(true)).ok());
  WaitComplete();
  // Evolve again: out_a -> out_c (add nothing, just copy) — a fresh plan
  // over the previous migration's output.
  MigrationPlan plan2;
  plan2.name = "copy_a";
  plan2.new_tables = {SchemaBuilder("out_c")
                          .AddColumn("id", ValueType::kInt64, false)
                          .AddColumn("val", ValueType::kInt64)
                          .SetPrimaryKey({"id"})
                          .Build()};
  plan2.retire_tables = {"out_a"};
  MigrationStatement stmt;
  stmt.name = "copy";
  stmt.category = MigrationCategory::kOneToOne;
  stmt.input_tables = {"out_a"};
  stmt.output_tables = {"out_c"};
  stmt.provenance.AddPassThrough("id", "out_a", "id");
  stmt.provenance.AddPassThrough("val", "out_a", "val");
  stmt.row_transform =
      [](const Tuple& in) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, in}};
  };
  plan2.statements.push_back(std::move(stmt));
  ASSERT_TRUE(controller_->Submit(std::move(plan2), LazyOpts(true)).ok());
  WaitComplete();
  EXPECT_EQ(CountRows("out_c"), static_cast<uint64_t>(kRows));
}

}  // namespace
}  // namespace bullfrog
