// File-backed redo-log persistence: writes flow through a LogFileWriter
// sink, and a fresh "process" reading the file back finds exactly the
// acked commits — the records a restart's WAL replay re-marks the §3.5
// trackers from.

#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "migration/statement_migrator.h"
#include "txn/log_file.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

class LogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bf_log_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(LogFileTest, RoundTripAllValueTypes) {
  {
    LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    LogRecord r1;
    r1.txn_id = 7;
    r1.op = LogOp::kInsert;
    r1.table = "t";
    r1.rid = 42;
    r1.after = Tuple{Value::Int(-5), Value::Double(2.5), Value::Str("héllo"),
                     Value::Timestamp(99), Value::Null()};
    LogRecord r2;
    r2.txn_id = 7;
    r2.op = LogOp::kCommit;
    ASSERT_TRUE(writer.Append({r1, r2}).ok());
  }
  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  const LogRecord& r = (*records)[0];
  EXPECT_EQ(r.txn_id, 7u);
  EXPECT_EQ(r.op, LogOp::kInsert);
  EXPECT_EQ(r.table, "t");
  EXPECT_EQ(r.rid, 42u);
  ASSERT_EQ(r.after.size(), 5u);
  EXPECT_EQ(r.after[0].AsInt(), -5);
  EXPECT_DOUBLE_EQ(r.after[1].AsDouble(), 2.5);
  EXPECT_EQ(r.after[2].AsString(), "héllo");
  EXPECT_EQ(r.after[3].AsTimestamp(), 99);
  EXPECT_TRUE(r.after[4].is_null());
  EXPECT_EQ((*records)[1].op, LogOp::kCommit);
}

TEST_F(LogFileTest, AppendAcrossReopens) {
  for (int pass = 0; pass < 3; ++pass) {
    LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    LogRecord r;
    r.txn_id = static_cast<uint64_t>(pass);
    r.op = LogOp::kCommit;
    ASSERT_TRUE(writer.Append({r}).ok());
  }
  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].txn_id, 2u);
}

TEST_F(LogFileTest, TornTailIgnored) {
  {
    LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    LogRecord r;
    r.txn_id = 1;
    r.op = LogOp::kCommit;
    ASSERT_TRUE(writer.Append({r}).ok());
  }
  // Simulate a crash mid-write: append garbage that parses as a
  // truncated record header.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[] = {1, 2, 3};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);  // The torn tail is dropped.
}

TEST_F(LogFileTest, TruncatedTrailingRecordIsEndOfLog) {
  // Write two full records, then chop the file at every byte offset
  // inside the second record. Recovery must treat the truncated tail as
  // end-of-log: the first record always survives, never an error, and
  // never a phantom second record built from partial bytes.
  {
    LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    LogRecord r1;
    r1.txn_id = 3;
    r1.op = LogOp::kInsert;
    r1.table = "accounts";
    r1.rid = 11;
    r1.after = Tuple{Value::Int(1), Value::Str("alice")};
    ASSERT_TRUE(writer.Append({r1}).ok());
    LogRecord r2;
    r2.txn_id = 3;
    r2.op = LogOp::kUpdate;
    r2.table = "accounts";
    r2.rid = 11;
    r2.after = Tuple{Value::Int(1), Value::Str("bob"), Value::Double(0.5)};
    ASSERT_TRUE(writer.Append({r2}).ok());
  }
  auto full = ReadLogFile(path_);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), 2u);

  // Snapshot the intact bytes so each iteration can rewrite the file.
  std::string bytes;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  // Find where record 2 starts: re-serialize record 1 alone.
  const std::string solo_path = path_ + ".solo";
  {
    LogFileWriter writer;
    ASSERT_TRUE(writer.Open(solo_path).ok());
    LogRecord r1;
    r1.txn_id = 3;
    r1.op = LogOp::kInsert;
    r1.table = "accounts";
    r1.rid = 11;
    r1.after = Tuple{Value::Int(1), Value::Str("alice")};
    ASSERT_TRUE(writer.Append({r1}).ok());
  }
  size_t first_len = 0;
  {
    std::FILE* f = std::fopen(solo_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    first_len = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
  }
  std::remove(solo_path.c_str());
  ASSERT_GT(first_len, 0u);
  ASSERT_LT(first_len, bytes.size());

  for (size_t cut = first_len; cut < bytes.size(); ++cut) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, f), cut);
    std::fclose(f);
    auto records = ReadLogFile(path_);
    ASSERT_TRUE(records.ok()) << "cut at " << cut << ": " << records.status();
    ASSERT_EQ(records->size(), 1u) << "cut at " << cut;
    EXPECT_EQ((*records)[0].table, "accounts");
    EXPECT_EQ((*records)[0].after[1].AsString(), "alice");
  }
}

TEST_F(LogFileTest, MissingFileIsNotFound) {
  EXPECT_TRUE(ReadLogFile(path_ + ".nope").status().IsNotFound());
}

TEST_F(LogFileTest, WriterErrorsWithoutOpen) {
  LogFileWriter writer;
  EXPECT_FALSE(writer.Append({}).ok());
  EXPECT_FALSE(writer.is_open());
}

/// Units of `tracker_id`'s kMigrationMark records whose transaction has a
/// kCommit record in `records`: the marks a replay applies.
std::set<int64_t> CommittedMarks(const std::vector<LogRecord>& records,
                                 const std::string& tracker_id) {
  std::set<uint64_t> committed;
  for (const LogRecord& r : records) {
    if (r.op == LogOp::kCommit) committed.insert(r.txn_id);
  }
  std::set<int64_t> units;
  for (const LogRecord& r : records) {
    if (r.op == LogOp::kMigrationMark && r.table == tracker_id &&
        committed.count(r.txn_id) > 0) {
      units.insert(r.after[0].AsInt());
    }
  }
  return units;
}

TEST_F(LogFileTest, SinkMakesCommitsDurableAndRecoverable) {
  // "Process 1": run a partial migration with a file sink attached.
  {
    Catalog catalog;
    TransactionManager txns;
    auto writer = std::make_shared<LogFileWriter>();
    ASSERT_TRUE(writer->Open(path_).ok());
    txns.redo_log().SetSink(
        [writer](const std::vector<LogRecord>& batch) {
          return writer->Append(batch);
        });

    auto src = catalog.CreateTable(SchemaBuilder("src")
                                       .AddColumn("id", ValueType::kInt64,
                                                  false)
                                       .SetPrimaryKey({"id"})
                                       .Build());
    ASSERT_TRUE(src.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*src)->Insert(Tuple{Value::Int(i)}).ok());
    }
    ASSERT_TRUE(catalog.CreateTable(SchemaBuilder("dst")
                                        .AddColumn("id", ValueType::kInt64,
                                                   false)
                                        .SetPrimaryKey({"id"})
                                        .Build())
                    .ok());
    MigrationStatement stmt;
    stmt.name = "copy";
    stmt.category = MigrationCategory::kOneToOne;
    stmt.input_tables = {"src"};
    stmt.output_tables = {"dst"};
    stmt.provenance.AddPassThrough("id", "src", "id");
    stmt.row_transform =
        [](const Tuple& in) -> Result<std::vector<TargetRow>> {
      return std::vector<TargetRow>{TargetRow{0, in}};
    };
    auto m = MakeStatementMigrator(&catalog, &txns, std::move(stmt), {});
    ASSERT_TRUE(m.ok());
    ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(5))).ok());
    ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(9))).ok());
  }  // "Crash": everything volatile is gone.

  // "Process 2": the file holds both migrated units' committed marks.
  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(CommittedMarks(*records, "bitmap:copy"),
            (std::set<int64_t>{5, 9}));
}

LogRecord Mark(const std::string& tracker_id, int unit) {
  LogRecord r;
  r.op = LogOp::kMigrationMark;
  r.table = tracker_id;
  r.after = Tuple{Value::Int(unit)};
  return r;
}

TEST_F(LogFileTest, FailedSinkBatchErrorsAndIsNeverRecovered) {
  // The sink fails the 2nd batch: that commit must error, earlier and
  // later commits must succeed, and recovery must never replay the
  // failed (unacked) commit.
  auto writer = std::make_shared<LogFileWriter>();
  ASSERT_TRUE(writer->Open(path_).ok());
  mvcc::SnapshotManager clock;
  RedoLog log(&clock);
  std::atomic<int> batch_no{0};
  log.SetSink([&, writer](const std::vector<LogRecord>& batch) -> Status {
    if (batch_no.fetch_add(1) == 1) {
      return Status::Internal("injected I/O failure");
    }
    return writer->Append(batch);
  });

  // Sequential commits: each is its own group-commit batch.
  ASSERT_TRUE(log.AppendCommitted(1, {Mark("bitmap:copy", 1)}).ok());
  Status failed = log.AppendCommitted(2, {Mark("bitmap:copy", 2)});
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected I/O failure"), std::string::npos);
  ASSERT_TRUE(log.AppendCommitted(3, {Mark("bitmap:copy", 3)}).ok());
  // The failed commit is invisible in memory too: 2 commits x 2 records.
  EXPECT_EQ(log.size(), 4u);

  // "Crash" and read the file back: units 1 and 3 were acked, unit 2
  // never was — recovery must not resurrect it.
  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ(CommittedMarks(*records, "bitmap:copy"),
            (std::set<int64_t>{1, 3}));
}

TEST_F(LogFileTest, ConcurrentCommitsRecoverExactlyTheAckedSet) {
  // 8 committers race through the group-commit writer while the sink
  // fails every 4th batch. Whatever each committer observed (ack vs
  // error) must match exactly what the file holds: an acked commit is
  // always there for replay, a failed one never is.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<bool> acked[kThreads * kPerThread] = {};
  {
    auto writer = std::make_shared<LogFileWriter>();
    ASSERT_TRUE(writer->Open(path_).ok());
    mvcc::SnapshotManager clock;
    RedoLog log(&clock);
    std::atomic<int> batch_no{0};
    log.SetSink([&, writer](const std::vector<LogRecord>& batch) -> Status {
      if (batch_no.fetch_add(1) % 4 == 3) {
        return Status::Internal("injected I/O failure");
      }
      return writer->Append(batch);
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int unit = t * kPerThread + i;
          Status st = log.AppendCommitted(static_cast<uint64_t>(unit + 1),
                                          {Mark("bitmap:copy", unit)});
          acked[unit].store(st.ok());
        }
      });
    }
    for (auto& th : threads) th.join();
  }  // "Crash".

  auto records = ReadLogFile(path_);
  ASSERT_TRUE(records.ok());
  const std::set<int64_t> marks = CommittedMarks(*records, "bitmap:copy");
  size_t expected = 0;
  for (int unit = 0; unit < kThreads * kPerThread; ++unit) {
    EXPECT_EQ(marks.count(unit) > 0, acked[unit].load()) << "unit " << unit;
    if (acked[unit].load()) ++expected;
  }
  EXPECT_EQ(marks.size(), expected);
}

TEST_F(LogFileTest, ReadLogFileReportsReadErrors) {
  // A directory opens for read but fread fails with EISDIR: ReadLogFile
  // must surface the I/O error instead of treating it as an empty log
  // with a torn tail (which would silently drop committed transactions).
  EXPECT_EQ(ReadLogFile(::testing::TempDir()).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace bullfrog
