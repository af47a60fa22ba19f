// Schema view race test, written for TSan and ASan: client sessions
// resolve tables and migrations against published catalog and routing
// views while the migration controller republishes them underneath —
// lazy, eager and multistep submits, their completions, the prune of
// completed entries at the next submit, and a dropped table name being
// re-created by a later hop. Every read must either return the right row
// or be rejected with a schema error (the name it used was retired or
// dropped); any other status, a wrong value, or a sanitizer report fails
// the test.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

constexpr int kRows = 64;

std::string HopScript(const std::string& src, const std::string& dst) {
  return "CREATE TABLE " + dst + " PRIMARY KEY (id) AS SELECT id, v FROM " +
         src + "; DROP TABLE " + src + ";";
}

bool WaitComplete(MigrationController* c, int timeout_ms = 60000) {
  Stopwatch sw;
  while (!c->IsComplete() && sw.ElapsedMillis() < timeout_ms) {
    Clock::SleepMillis(2);
  }
  return c->IsComplete();
}

TEST(SchemaViewRaceTest, SessionsReadAcrossRepublishedViews) {
  Database db;
  sql::SqlEngine engine(&db);
  ASSERT_TRUE(
      engine.Execute("CREATE TABLE kv_a (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(engine
                    .Execute("INSERT INTO kv_a VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i * 10) + ")")
                    .ok());
  }

  // The name clients address; flipped by the migrating thread once the
  // new table is authoritative. `hop` counts started hops: a session that
  // saw it move may have addressed a name a later hop re-created (say, as
  // a multistep shadow still being filled), so only sessions that ran
  // within one hop have their rows checked.
  const std::string names[2] = {"kv_a", "kv_b"};
  std::atomic<int> current{0};
  std::atomic<int> hop{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_reads{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      int64_t key = r;
      while (!stop.load()) {
        const int hop_before = hop.load();
        const std::string& table = names[current.load()];
        auto s = db.BeginSession({table});
        Status st;
        // Several statements per session, so views captured at begin are
        // reused and refreshed across republications.
        for (int k = 0; k < 4 && st.ok(); ++k) {
          key = (key + 7) % kRows;
          auto rows = db.Select(&s, table, Eq(Col("id"), LitInt(key)));
          if (!rows.ok()) {
            st = rows.status();
            break;
          }
          const bool right =
              rows->size() == 1 && (*rows)[0].second[1].AsInt() == key * 10;
          if (!right && hop.load() == hop_before) {
            ADD_FAILURE() << table << " id=" << key << " returned "
                          << rows->size() << " rows";
            stop.store(true);
            break;
          }
          ok_reads.fetch_add(1);
        }
        if (st.ok()) st = db.Commit(&s);
        if (st.ok()) continue;
        db.Abort(&s);
        if (st.code() == StatusCode::kSchemaMismatch || st.IsNotFound() ||
            st.IsRetryable()) {
          rejected.fetch_add(1);
          continue;
        }
        ADD_FAILURE() << "unexpected status on " << table << ": " << st;
        stop.store(true);
      }
    });
  }

  // Hops alternate kv_a -> kv_b -> kv_a ..., so every hop after the first
  // re-creates the name the hop before last dropped, while sessions may
  // still hold views naming the dropped table.
  const MigrationStrategy kStrategies[] = {
      MigrationStrategy::kLazy,      MigrationStrategy::kEager,
      MigrationStrategy::kMultiStep, MigrationStrategy::kLazy,
      MigrationStrategy::kMultiStep, MigrationStrategy::kEager,
  };
  int from = 0;
  for (MigrationStrategy strategy : kStrategies) {
    if (stop.load()) break;
    Clock::SleepMillis(20);
    hop.fetch_add(1);
    MigrationController::SubmitOptions opts;
    opts.strategy = strategy;
    opts.lazy.background_start_delay_ms = 20;
    opts.lazy.background_pause_us = 0;
    opts.multistep.batch = 16;
    const Status submitted = engine.SubmitMigrationScript(
        HopScript(names[from], names[1 - from]), opts);
    ASSERT_TRUE(submitted.ok()) << submitted;
    // Lazy: the new table serves reads from the switch on. Eager returns
    // after its copy. Multistep keeps the old schema until its cutover.
    if (strategy == MigrationStrategy::kLazy) current.store(1 - from);
    ASSERT_TRUE(WaitComplete(&db.controller()));
    current.store(1 - from);
    from = 1 - from;
  }
  Clock::SleepMillis(20);
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(ok_reads.load(), 0u);
  // The final table holds every row exactly once.
  auto s = db.BeginSession({names[from]});
  auto rows = db.Select(&s, names[from], nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), static_cast<size_t>(kRows));
  ASSERT_TRUE(db.Commit(&s).ok());
}

}  // namespace
}  // namespace bullfrog
