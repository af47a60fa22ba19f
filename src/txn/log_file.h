#ifndef BULLFROG_TXN_LOG_FILE_H_
#define BULLFROG_TXN_LOG_FILE_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/value_codec.h"
#include "txn/wal.h"

namespace bullfrog {

/// Serializes one redo record in the log-file wire format (documented on
/// LogFileWriter below). Shared by the on-disk log, the replication
/// stream (server REPLICATE frames), and checkpoint-relative WAL
/// segments, so all three stay byte-compatible.
void EncodeLogRecord(std::string* out, const LogRecord& record);

/// Decodes one record; returns false (leaving reader.pos untouched) on a
/// torn or truncated record.
bool DecodeLogRecord(codec::ByteReader* reader, LogRecord* record);

/// Appends redo records to a binary log file. Attach one to a RedoLog
/// (RedoLog::SetSink) to make commits durable; after a process restart,
/// ReadLogFile feeds the WAL replay (replication::WalDir::Recover), whose
/// LogApplier rebuilds tables and migration trackers alike — the §3.5
/// story across real crashes.
///
/// Format (little-endian, per record):
///   u64 txn_id | u8 op | u32 table_len | table bytes | u64 rid |
///   u32 num_values | values
/// where each value is: u8 type_tag | payload
///   (0 = NULL, 1 = int64, 2 = double, 3 = string [u32 len + bytes],
///    4 = timestamp int64).
///
/// Thread-safe: appends are serialized internally.
class LogFileWriter {
 public:
  LogFileWriter() = default;
  ~LogFileWriter();

  LogFileWriter(const LogFileWriter&) = delete;
  LogFileWriter& operator=(const LogFileWriter&) = delete;

  /// Opens (appends to) the file. Syncing on append defaults to the
  /// process-wide BF_WAL_FSYNC knob (see common/fsync.h).
  Status Open(const std::string& path);

  /// Appends records, flushes, and (unless syncing is disabled via
  /// BF_WAL_FSYNC=0 or set_sync(false)) fdatasyncs, so a committed
  /// transaction survives a crash of the whole machine, not just the
  /// process.
  Status Append(const std::vector<LogRecord>& records);

  /// Overrides the sync-on-append policy (tests/benches).
  void set_sync(bool sync) { sync_ = sync; }

  void Close();
  bool is_open() const { return file_ != nullptr; }

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool sync_ = true;  // Resolved against BF_WAL_FSYNC in Open().
};

/// Reads every record from a log file written by LogFileWriter. Returns
/// an error for unreadable files; a trailing partial record (torn write
/// at crash) is ignored, like a WAL scan would.
Result<std::vector<LogRecord>> ReadLogFile(const std::string& path);

}  // namespace bullfrog

#endif  // BULLFROG_TXN_LOG_FILE_H_
