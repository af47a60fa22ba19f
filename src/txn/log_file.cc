#include "txn/log_file.h"

#include <cstring>

#include "common/fsync.h"
#include "storage/value_codec.h"

namespace bullfrog {

void EncodeLogRecord(std::string* out, const LogRecord& record) {
  codec::PutU64(out, record.txn_id);
  out->push_back(static_cast<char>(record.op));
  codec::PutLenPrefixed(out, record.table);
  codec::PutU64(out, record.rid);
  codec::PutU32(out, static_cast<uint32_t>(record.after.size()));
  for (size_t i = 0; i < record.after.size(); ++i) {
    codec::PutValue(out, record.after[i]);
  }
}

bool DecodeLogRecord(codec::ByteReader* reader, LogRecord* record) {
  const size_t start = reader->pos;
  LogRecord r;
  uint8_t op;
  uint32_t nvals;
  if (!reader->GetU64(&r.txn_id) || !reader->GetU8(&op) ||
      !reader->GetLenPrefixed(&r.table) || !reader->GetU64(&r.rid) ||
      !reader->GetU32(&nvals)) {
    reader->pos = start;
    return false;
  }
  r.op = static_cast<LogOp>(op);
  for (uint32_t i = 0; i < nvals; ++i) {
    Value v;
    if (!reader->GetValue(&v)) {
      reader->pos = start;
      return false;
    }
    r.after.push_back(std::move(v));
  }
  *record = std::move(r);
  return true;
}

LogFileWriter::~LogFileWriter() { Close(); }

Status LogFileWriter::Open(const std::string& path) {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) return Status::InvalidArgument("already open");
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open log file '" + path + "'");
  }
  sync_ = WalFsyncEnabled();
  return Status::OK();
}

Status LogFileWriter::Append(const std::vector<LogRecord>& records) {
  std::string buf;
  for (const LogRecord& r : records) EncodeLogRecord(&buf, r);
  std::lock_guard lock(mu_);
  if (file_ == nullptr) return Status::InvalidArgument("log file not open");
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return Status::Internal("short write to log file");
  }
  if (std::fflush(file_) != 0) {
    return Status::Internal("fflush failed on log file");
  }
  if (sync_) BF_RETURN_NOT_OK(SyncFileHandle(file_));
  return Status::OK();
}

void LogFileWriter::Close() {
  std::lock_guard lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::vector<LogRecord>> ReadLogFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open log file '" + path + "'");
  }
  std::string data;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  // A mid-file I/O error is NOT a torn tail: silently truncating here
  // would make recovery drop committed (acked) transactions. Only a clean
  // EOF may fall through to the decode loop's torn-tail handling.
  if (std::ferror(f) != 0) {
    std::fclose(f);
    return Status::Internal("read error in log file '" + path + "'");
  }
  std::fclose(f);

  std::vector<LogRecord> out;
  codec::ByteReader reader(data);
  for (;;) {
    LogRecord r;
    if (!DecodeLogRecord(&reader, &r)) break;  // Torn tail: stop cleanly.
    out.push_back(std::move(r));
    if (reader.pos >= data.size()) break;
  }
  return out;
}

}  // namespace bullfrog
