// Stress tests for MigrationController state lifetime under concurrency.
//
// The scenario that used to be a use-after-free: worker threads in the
// middle of PrepareRead / PrepareInsert / Progress / timeline while a
// driver thread submits the *next* migration, which tears down and
// replaces the controller's per-migration state. With the shared-pointer
// snapshot scheme every reader keeps the state it started with alive;
// ThreadSanitizer (BULLFROG_SANITIZE=thread) verifies there is no window
// left.

#include <array>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/controller.h"
#include "query/expr.h"
#include "replication/applier.h"
#include "sql/engine.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

constexpr int kRows = 64;

std::string SrcName(int round) { return "src_" + std::to_string(round); }
std::string DstName(int round) { return "dst_" + std::to_string(round); }

/// 1:1 copy plan src_<round> -> dst_<round>.
MigrationPlan CopyPlan(int round) {
  MigrationPlan plan;
  plan.name = "copy_" + std::to_string(round);
  plan.new_tables = {SchemaBuilder(DstName(round))
                         .AddColumn("id", ValueType::kInt64, false)
                         .AddColumn("v", ValueType::kInt64)
                         .SetPrimaryKey({"id"})
                         .Build()};
  plan.retire_tables = {SrcName(round)};
  MigrationStatement stmt;
  stmt.name = plan.name;
  stmt.category = MigrationCategory::kOneToOne;
  stmt.input_tables = {SrcName(round)};
  stmt.output_tables = {DstName(round)};
  stmt.provenance.AddPassThrough("id", SrcName(round), "id");
  stmt.provenance.AddPassThrough("v", SrcName(round), "v");
  stmt.row_transform =
      [](const Tuple& in) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, in}};
  };
  plan.statements.push_back(std::move(stmt));
  return plan;
}

void LoadSource(Catalog* catalog, int round) {
  auto src = catalog->CreateTable(SchemaBuilder(SrcName(round))
                                      .AddColumn("id", ValueType::kInt64,
                                                 false)
                                      .AddColumn("v", ValueType::kInt64)
                                      .SetPrimaryKey({"id"})
                                      .Build());
  ASSERT_TRUE(src.ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        (*src)->Insert(Tuple{Value::Int(i), Value::Int(i)}).ok());
  }
}

MigrationController::SubmitOptions FastLazyOpts() {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kLazy;
  opts.enable_background = true;
  opts.lazy.background_start_delay_ms = 0;
  opts.lazy.background_pause_us = 0;
  opts.lazy.background_threads = 2;
  return opts;
}

void WaitComplete(MigrationController* controller) {
  Stopwatch sw;
  while (!controller->IsComplete() && sw.ElapsedMillis() < 60000) {
    Clock::SleepMillis(1);
  }
  ASSERT_TRUE(controller->IsComplete());
}

/// N worker threads hammer every reader entry point while the driver
/// repeatedly submits lazy migrations, waits for completion, and submits
/// the next one (destroying the previous migration's state each time).
TEST(ControllerRaceTest, ReadersSurviveRepeatedSubmits) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 10;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> round{-1};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(r + 1);
      while (!done.load(std::memory_order_acquire)) {
        const int cur = round.load(std::memory_order_acquire);
        if (cur < 0) {
          std::this_thread::yield();
          continue;
        }
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto key = static_cast<int64_t>(rng % kRows);
        const std::string dst = DstName(cur);
        // Statuses are intentionally ignored: a reader may race the end
        // of a round (table gone, migration complete) — the point is
        // that no call touches freed state.
        (void)controller.PrepareRead(dst, Eq(Col("id"), LitInt(key)));
        (void)controller.PrepareInsert(
            dst, Tuple{Value::Int(key + kRows), Value::Int(0)});
        (void)controller.Progress();
        (void)controller.timeline();
        (void)controller.IsComplete();
        (void)controller.MultiStepActive();
        (void)controller.UsesNewSchema();
        { auto guard = controller.MultiStepWriteGuard(); }
        (void)controller.migrators();
        (void)controller.background_error();
      }
    });
  }

  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    round.store(i, std::memory_order_release);
    ASSERT_TRUE(controller.Submit(CopyPlan(i), FastLazyOpts()).ok());
    WaitComplete(&controller);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every round's data landed in full.
  for (int i = 0; i < kRounds; ++i) {
    Table* t = catalog.FindTable(DstName(i));
    ASSERT_NE(t, nullptr) << DstName(i);
    EXPECT_EQ(t->NumLiveRows(), static_cast<uint64_t>(kRows)) << DstName(i);
  }
  EXPECT_TRUE(controller.background_error().ok());
}

/// A restarted primary takes over a replayed mid-flight migration while
/// readers hammer the statement and status paths. The handoff flips the
/// published state's replay flag in place and starts its background
/// worker; the migration then completes with every row exactly once.
TEST(ControllerRaceTest, OwnershipHandoffUnderReaders) {
  Database a;
  sql::SqlEngine engine(&a);
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE src (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO src VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i) + ")")
                    .ok());
  }
  MigrationController::SubmitOptions opts;
  opts.enable_background = false;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE dst PRIMARY KEY (id) AS "
                      "SELECT id, v FROM src; DROP TABLE src;",
                      opts)
                  .ok());
  // Pull every fourth row on the primary so the replay carries marks.
  for (int k = 0; k < kRows; k += 4) {
    ASSERT_TRUE(
        a.controller().PrepareRead("dst", Eq(Col("id"), LitInt(k))).ok());
  }

  // Restart: replay the primary's log into a fresh node, mid-migration.
  Database b;
  std::vector<LogRecord> records;
  a.txns().redo_log().ReadFrom(0, SIZE_MAX, &records);
  replication::LogApplier applier(&b, /*append_to_local_log=*/true);
  ASSERT_TRUE(applier.Apply(std::move(records)).ok());
  ASSERT_TRUE(b.controller().HasActiveMigration());
  ASSERT_FALSE(b.controller().IsComplete());
  MigrationController& controller = b.controller();

  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      uint64_t rng = 0xdeadbeefULL + static_cast<uint64_t>(r);
      while (!done.load(std::memory_order_acquire)) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto key = static_cast<int64_t>(rng % kRows);
        Status s = controller.PrepareRead("dst", Eq(Col("id"), LitInt(key)));
        if (!s.ok()) {
          errors.fetch_add(1);
          ADD_FAILURE() << "PrepareRead: " << s.ToString();
        }
        (void)controller.Progress();
        (void)controller.migrators();
        (void)controller.StatusReport();
      }
    });
  }

  Clock::SleepMillis(2);
  EXPECT_TRUE(controller.TakeOwnership().ok());
  WaitComplete(&controller);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0);
  Table* t = b.catalog().FindTable("dst");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->NumLiveRows(), static_cast<uint64_t>(kRows));
  EXPECT_TRUE(controller.background_error().ok());
}

/// Concurrent Submits: exactly one wins per round; the rest observe
/// kBusy, never a torn state.
TEST(ControllerRaceTest, ConcurrentSubmitsSingleWinner) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 6;
  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    std::atomic<int> winners{0};
    std::atomic<int> busy{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&, i] {
        Status st = controller.Submit(CopyPlan(i), FastLazyOpts());
        if (st.ok()) {
          winners.fetch_add(1);
        } else if (st.code() == StatusCode::kBusy ||
                   st.code() == StatusCode::kNotFound) {
          // kNotFound: a loser that started after the winner completed
          // the whole (tiny) migration and dropped its input; building
          // its migrators, before any catalog change, finds none.
          busy.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected submit status: " << st.ToString();
        }
      });
    }
    for (auto& t : submitters) t.join();
    EXPECT_EQ(winners.load(), 1) << "round " << i;
    EXPECT_EQ(busy.load(), 2) << "round " << i;
    WaitComplete(&controller);
  }
}

/// IsComplete() must not report a migration complete while one of its
/// retired inputs still exists: a checkpoint taken on "complete" would
/// capture the input as RETIRED. Each plan also retires kPads idle
/// tables, so completion drops many tables one by one and the poller
/// below has a wide window to observe any gap between "complete" and the
/// last drop.
TEST(ControllerRaceTest, CompleteOnlyAfterRetiredInputsDropped) {
  Catalog catalog;
  TransactionManager txns;
  MigrationController controller(&catalog, &txns);

  constexpr int kRounds = 8;
  constexpr int kPads = 64;
  int early = 0;
  for (int i = 0; i < kRounds; ++i) {
    LoadSource(&catalog, i);
    MigrationPlan plan = CopyPlan(i);
    for (int p = 0; p < kPads; ++p) {
      const std::string pad = "pad_" + std::to_string(i) + "_" +
                              std::to_string(p);
      ASSERT_TRUE(catalog
                      .CreateTable(SchemaBuilder(pad)
                                       .AddColumn("id", ValueType::kInt64)
                                       .Build())
                      .ok());
      plan.retire_tables.push_back(pad);
    }
    const std::vector<std::string> retired = plan.retire_tables;
    ASSERT_TRUE(controller.Submit(std::move(plan), FastLazyOpts()).ok());
    Stopwatch sw;
    while (!controller.IsComplete() && sw.ElapsedMillis() < 60000) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(controller.IsComplete());
    for (const std::string& t : retired) {
      if (catalog.GetState(t) != TableState::kDropped) {
        ++early;
        break;
      }
    }
  }
  EXPECT_EQ(early, 0) << "rounds that reported complete before every "
                         "retired input was dropped";
}

/// A switch that fails on a taken output name is invisible to clients:
/// while a thread keeps submitting the colliding script, readers never
/// find its first output and always read every row of its input. Once
/// the name is free, the same script converges.
TEST(ControllerRaceTest, FailingSwitchIsInvisibleToReaders) {
  const std::string script =
      "CREATE TABLE fresh PRIMARY KEY (id) AS SELECT id FROM users; "
      "CREATE TABLE taken PRIMARY KEY (id) AS SELECT id, v FROM users; "
      "DROP TABLE users;";
  Database db;
  {
    sql::SqlEngine engine(&db);
    ASSERT_TRUE(
        engine.Execute("CREATE TABLE users (id INT PRIMARY KEY, v INT)").ok());
    ASSERT_TRUE(engine.Execute("CREATE TABLE taken (id INT PRIMARY KEY)").ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(engine
                      .Execute("INSERT INTO users VALUES (" +
                               std::to_string(i) + ", " + std::to_string(i) +
                               ")")
                      .ok());
    }
  }
  std::atomic<bool> done{false};
  std::atomic<int> fresh_seen{0};
  std::atomic<int> short_users{0};
  std::atomic<int> user_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      sql::SqlEngine engine(&db);
      while (!done.load(std::memory_order_acquire)) {
        auto users = engine.Execute("SELECT id, v FROM users");
        if (!users.ok() || users->rows.size() != static_cast<size_t>(kRows)) {
          short_users.fetch_add(1);
        }
        user_reads.fetch_add(1);
        if (engine.Execute("SELECT id FROM fresh").ok()) {
          fresh_seen.fetch_add(1);
        }
      }
    });
  }
  sql::SqlEngine submitter(&db);
  MigrationController::SubmitOptions opts = FastLazyOpts();
  int unexpected = 0;
  Stopwatch sw;
  for (int i = 0; i < 200 || user_reads.load() < 100; ++i) {
    if (sw.ElapsedMillis() > 30000) break;
    const Status st = submitter.SubmitMigrationScript(script, opts);
    if (!st.IsAlreadyExists()) ++unexpected;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(unexpected, 0);
  EXPECT_EQ(fresh_seen.load(), 0);
  EXPECT_EQ(short_users.load(), 0);
  EXPECT_GT(user_reads.load(), 0);
  EXPECT_FALSE(db.controller().HasActiveMigration());
  EXPECT_EQ(db.controller().RecentFailures().size(),
            MigrationController::kMaxFailures);

  ASSERT_TRUE(db.catalog().DropTable("taken").ok());
  const Status st = submitter.SubmitMigrationScript(script, opts);
  ASSERT_TRUE(st.ok()) << st.ToString();
  WaitComplete(&db.controller());
  for (const char* table : {"fresh", "taken"}) {
    auto n = submitter.Execute(std::string("SELECT COUNT(*) AS n FROM ") +
                               table);
    ASSERT_TRUE(n.ok()) << table << ": " << n.status();
    EXPECT_EQ(n->rows[0][0].AsInt(), kRows) << table;
  }
}

/// Seeded random interleavings of the migration train: disjoint first
/// hops, chained hops, duplicate names, a submit held in its plan factory
/// (starting), status reads and background completion. Each chain's
/// background workers wait at a per-chain gate until a completion step
/// opens it, so every hop of a chain still closed is known unfinished.
/// After every step the status readers must agree with what the test
/// knows; at the end every chain has converged.
class TrainInterleavingTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr int kRows = 16;
  static constexpr int kChains = 6;  // The last one is the final hold's.
  static constexpr int kMaxHops = 3;
  static constexpr int kSteps = 30;

  struct Chain {
    int hops = 0;  // Accepted hops; hop h moves c<k>_<h> to c<k>_<h+1>.
    std::atomic<bool> open{false};
  };

  void TearDown() override {
    for (Chain& c : chains_) c.open = true;
    hold_ = false;
    if (holder_.joinable()) holder_.join();
  }

  static std::string TableName(int chain, int hop) {
    return "c" + std::to_string(chain) + "_" + std::to_string(hop);
  }
  static std::string HopName(int chain, int hop) {
    return "sql:" + TableName(chain, hop + 1);
  }

  void Seed(int chain) {
    sql::SqlEngine engine(&db_);
    const std::string t = TableName(chain, 0);
    ASSERT_TRUE(
        engine.Execute("CREATE TABLE " + t + " (id INT PRIMARY KEY, v INT)")
            .ok());
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(engine
                      .Execute("INSERT INTO " + t + " VALUES (" +
                               std::to_string(i) + ", " + std::to_string(i) +
                               ")")
                      .ok());
    }
  }

  /// Submits hop `hop` of `chain`. With `hold`, the plan factory waits
  /// while *hold is set.
  Status SubmitHop(int chain, int hop, std::atomic<bool>* hold) {
    const std::string script = "CREATE TABLE " + TableName(chain, hop + 1) +
                               " PRIMARY KEY (id) AS SELECT id, v FROM " +
                               TableName(chain, hop) + "; DROP TABLE " +
                               TableName(chain, hop) + ";";
    auto parsed = sql::ParseSqlScript(script);
    if (!parsed.ok()) return parsed.status();
    auto footprint = sql::MigrationScriptFootprint(*parsed);
    if (!footprint.ok()) return footprint.status();
    MigrationController::SubmitOptions opts = FastLazyOpts();
    opts.lazy.background_threads = 1;
    Chain* c = &chains_[static_cast<size_t>(chain)];
    return db_.controller().SubmitScript(
        footprint->name, script, footprint->tables,
        [this, script, c, hold]() -> Result<MigrationPlan> {
          if (hold != nullptr) {
            held_entered_ = true;
            while (*hold) Clock::SleepMillis(1);
          }
          BF_ASSIGN_OR_RETURN(auto stmts, sql::ParseSqlScript(script));
          BF_ASSIGN_OR_RETURN(MigrationPlan plan,
                              sql::CompileMigration(stmts, &db_.catalog()));
          plan.source_script = script;
          for (MigrationStatement& stmt : plan.statements) {
            stmt.row_transform = [inner = stmt.row_transform,
                                  c](const Tuple& in) {
              Stopwatch sw;
              while (!c->open && sw.ElapsedMillis() < 60000) {
                Clock::SleepMillis(1);
              }
              return inner(in);
            };
          }
          return plan;
        },
        opts);
  }

  /// Submits a script whose second output name is taken: it must fail
  /// before its switch, hold no train entry, and show in the report.
  void SubmitColliding() {
    sql::SqlEngine engine(&db_);
    if (db_.catalog().FindTable("x_src") == nullptr) {
      ASSERT_TRUE(engine.Execute("CREATE TABLE x_src (id INT PRIMARY KEY, v INT)")
                      .ok());
      ASSERT_TRUE(engine.Execute("CREATE TABLE x_taken (id INT PRIMARY KEY)")
                      .ok());
    }
    const Status s = engine.SubmitMigrationScript(
        "CREATE TABLE x_fresh PRIMARY KEY (id) AS SELECT id, v FROM x_src; "
        "CREATE TABLE x_taken PRIMARY KEY (id) AS SELECT id, v FROM x_src; "
        "DROP TABLE x_src;",
        FastLazyOpts());
    EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
    EXPECT_EQ(db_.catalog().FindTable("x_fresh"), nullptr);
    EXPECT_EQ(db_.catalog().GetState("x_src"), TableState::kActive);
    const std::string report = db_.controller().StatusReport();
    for (const char* entry :
         {"migration: sql:x_fresh", "starting: sql:x_fresh",
          "]: sql:x_fresh"}) {
      EXPECT_EQ(report.find(entry), std::string::npos) << report;
    }
    EXPECT_NE(report.find("failed: sql:x_fresh"), std::string::npos)
        << report;
  }

  bool Closed(int k) const {
    const Chain& c = chains_[static_cast<size_t>(k)];
    return c.hops > 0 && !c.open;
  }

  /// Holds chain k's first hop in its plan factory on a helper thread.
  void Hold(int k) {
    Seed(k);
    hold_ = true;
    held_entered_ = false;
    held_ = k;
    holder_ = std::thread([this, k] { held_status_ = SubmitHop(k, 0, &hold_); });
    Stopwatch sw;
    while (!held_entered_ && sw.ElapsedMillis() < 30000) Clock::SleepMillis(1);
    ASSERT_TRUE(held_entered_);
  }

  void Release() {
    hold_ = false;
    holder_.join();
    EXPECT_TRUE(held_status_.ok()) << held_status_.ToString();
    chains_[static_cast<size_t>(held_)].hops = 1;
    held_ = -1;
  }

  /// Opens chain k and waits until its last hop has dropped its input.
  void Complete(int k) {
    Chain& c = chains_[static_cast<size_t>(k)];
    c.open = true;
    const std::string last_input = TableName(k, c.hops - 1);
    Stopwatch sw;
    while (db_.catalog().GetState(last_input) != TableState::kDropped &&
           sw.ElapsedMillis() < 60000) {
      Clock::SleepMillis(1);
    }
    Table* out = db_.catalog().FindTable(TableName(k, c.hops));
    ASSERT_NE(out, nullptr) << TableName(k, c.hops);
    EXPECT_EQ(out->NumLiveRows(), static_cast<uint64_t>(kRows));
  }

  void Check(const std::string& step) {
    SCOPED_TRACE(step);
    MigrationController& c = db_.controller();
    bool unfinished = held_ >= 0;
    for (int k = 0; k < kChains; ++k) unfinished |= Closed(k);
    const bool complete = c.IsComplete();
    const double progress = c.Progress();
    const std::string report = c.StatusReport();
    std::vector<MigrationController::CheckpointMigration> train;
    const Status described = c.DescribeTrainForCheckpoint(&train);
    if (unfinished) {
      EXPECT_FALSE(complete);
      EXPECT_LT(progress, 1.0);
      EXPECT_EQ(report.find("migration: none"), std::string::npos) << report;
    }
    if (held_ >= 0) {
      EXPECT_NE(report.find(HopName(held_, 0)), std::string::npos) << report;
      EXPECT_TRUE(described.IsBusy()) << described.ToString();
    }
    if (complete) {
      // Reported complete: every hop the test submitted dropped its input.
      for (int k = 0; k < kChains; ++k) {
        const Chain& ch = chains_[static_cast<size_t>(k)];
        if (ch.hops == 0) continue;
        EXPECT_EQ(db_.catalog().GetState(TableName(k, ch.hops - 1)),
                  TableState::kDropped)
            << "chain " << k;
      }
    }
  }

  std::array<Chain, kChains> chains_;
  Database db_;  // After chains_: its workers read the chain gates.
  std::atomic<bool> hold_{false};
  std::atomic<bool> held_entered_{false};
  int held_ = -1;
  Status held_status_;
  std::thread holder_;
};

TEST_P(TrainInterleavingTest, StatusTracksEveryEntry) {
  std::mt19937 rng(GetParam());
  auto pick = [&](auto&& eligible) {
    std::vector<int> ks;
    for (int k = 0; k < kChains - 1; ++k) {
      if (eligible(k)) ks.push_back(k);
    }
    return ks.empty() ? -1 : ks[rng() % ks.size()];
  };
  for (int step = 0; step < kSteps; ++step) {
    std::string what;
    switch (rng() % 7) {
      case 0: {  // A disjoint first hop, or a chained one behind a closed hop.
        const int k = pick([&](int k) {
          const Chain& c = chains_[static_cast<size_t>(k)];
          return k != held_ && !c.open && c.hops < kMaxHops;
        });
        if (k < 0) break;
        Chain& c = chains_[static_cast<size_t>(k)];
        if (c.hops == 0) Seed(k);
        const Status s = SubmitHop(k, c.hops, nullptr);
        if (c.hops == 0) {
          EXPECT_TRUE(s.ok()) << s.ToString();
        } else {
          EXPECT_TRUE(s.IsQueued()) << s.ToString();
        }
        ++c.hops;
        what = "submit " + HopName(k, c.hops - 1);
        break;
      }
      case 1: {  // A duplicate of an unfinished hop.
        const int k = pick([&](int k) { return Closed(k) || k == held_; });
        if (k < 0) break;
        const int hop =
            k == held_ ? 0 : static_cast<int>(rng() % chains_[k].hops);
        const Status s = SubmitHop(k, hop, nullptr);
        EXPECT_TRUE(s.IsBusy()) << s.ToString();
        what = "duplicate " + HopName(k, hop);
        break;
      }
      case 2: {
        if (held_ >= 0) break;
        const int k = pick([&](int k) {
          return chains_[static_cast<size_t>(k)].hops == 0 &&
                 !chains_[static_cast<size_t>(k)].open;
        });
        if (k < 0) break;
        Hold(k);
        what = "hold " + HopName(k, 0);
        break;
      }
      case 3:
        if (held_ < 0) break;
        what = "release " + HopName(held_, 0);
        Release();
        break;
      case 4:
        what = "status";
        break;
      case 5: {  // Background completion of a closed chain.
        const int k = pick([&](int k) { return Closed(k); });
        if (k < 0) break;
        Complete(k);
        what = "complete chain " + std::to_string(k);
        break;
      }
      case 6:
        SubmitColliding();
        what = "failed submit";
        break;
    }
    if (!what.empty()) Check("step " + std::to_string(step) + ": " + what);
  }

  // The held entry alone in flight: drain everything else first.
  if (held_ < 0) Hold(kChains - 1);
  for (int k = 0; k < kChains; ++k) {
    if (Closed(k)) Complete(k);
  }
  Check("held entry alone");
  const int held = held_;
  Release();
  Complete(held);
  Check("drained");
  WaitComplete(&db_.controller());
  for (int k = 0; k < kChains; ++k) {
    const Chain& c = chains_[static_cast<size_t>(k)];
    if (c.hops == 0) continue;
    Table* out = db_.catalog().FindTable(TableName(k, c.hops));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->NumLiveRows(), static_cast<uint64_t>(kRows)) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainInterleavingTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace bullfrog
