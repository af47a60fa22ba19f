#include "replication/wal_dir.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>
#include <vector>

#include "bullfrog/database.h"
#include "common/fsync.h"
#include "replication/applier.h"
#include "replication/checkpoint.h"

namespace bullfrog::replication {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kCkptPrefix[] = "ckpt-";
constexpr char kCkptSuffix[] = ".bf";

/// Parses "<prefix><number><suffix>"; false for anything else.
bool ParseNumbered(const std::string& name, const char* prefix,
                   const char* suffix, uint64_t* number) {
  const size_t plen = std::strlen(prefix);
  const size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen || name.compare(0, plen, prefix) != 0 ||
      name.compare(name.size() - slen, slen, suffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  // strtoull saturates at ULLONG_MAX on overflow (setting ERANGE); a
  // wrapped offset would mis-sort the segment list and corrupt replay
  // order, so reject it instead of trusting the clamped value.
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *number = v;
  return true;
}

/// All files in `dir` matching the prefix/suffix pattern, sorted by their
/// embedded offset.
std::vector<std::pair<uint64_t, fs::path>> ListNumbered(const std::string& dir,
                                                        const char* prefix,
                                                        const char* suffix) {
  std::vector<std::pair<uint64_t, fs::path>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t n;
    if (ParseNumbered(entry.path().filename().string(), prefix, suffix, &n)) {
      out.emplace_back(n, entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status ReadFileBytes(const fs::path& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path.string() + "'");
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::Internal("read error on '" + path.string() + "'");
  return Status::OK();
}

Status WriteFileAtomic(const fs::path& final_path, const std::string& bytes) {
  const fs::path tmp = final_path.string() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create '" + tmp.string() + "'");
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  const bool flushed = std::fflush(f) == 0;
  // Sync the temp file before the rename: rename-then-crash must never
  // expose a final name whose contents are not yet on disk.
  const Status synced = flushed ? SyncFileHandle(f) : Status::OK();
  std::fclose(f);
  if (!ok || !flushed) {
    return Status::Internal("short write to '" + tmp.string() + "'");
  }
  BF_RETURN_NOT_OK(synced);
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return Status::Internal("rename to '" + final_path.string() +
                            "': " + ec.message());
  }
  // And the directory entry itself, so the rename survives a crash.
  return SyncParentDir(final_path.string());
}

}  // namespace

WalDir::~WalDir() = default;

Status WalDir::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create '" + dir + "': " + ec.message());
  }
  dir_ = dir;
  return Status::OK();
}

Status WalDir::Recover(Database* db) {
  if (dir_.empty()) return Status::InvalidArgument("WalDir not opened");

  // Checkpoints newest-first; a corrupt or unreadable blob falls back to
  // the next-older one, and if none survive, to a plain full-WAL replay.
  // LoadCheckpoint mutates the target database incrementally, so each
  // candidate blob is validated against a scratch Database first — a
  // blob that dies halfway must not leave `db` half-populated.
  const auto ckpts = ListNumbered(dir_, kCkptPrefix, kCkptSuffix);
  base_ = 0;
  bool loaded = false;
  for (size_t i = ckpts.size(); i-- > 0 && !loaded;) {
    const fs::path& path = ckpts[i].second;
    std::string blob;
    Status s = ReadFileBytes(path, &blob);
    if (s.ok()) {
      Database scratch;
      uint64_t scratch_offset = 0;
      s = LoadCheckpoint(&scratch, blob, &scratch_offset);
    }
    if (!s.ok()) {
      std::fprintf(stderr,
                   "bullfrog: recovery skipping corrupt checkpoint %s: %s\n",
                   path.c_str(), s.ToString().c_str());
      continue;
    }
    uint64_t offset = 0;
    BF_RETURN_NOT_OK(LoadCheckpoint(db, blob, &offset));
    base_ = offset;
    loaded = true;
    if (i + 1 < ckpts.size()) {
      std::fprintf(stderr,
                   "bullfrog: recovered from older checkpoint %s "
                   "(skipped %zu newer)\n",
                   path.c_str(), ckpts.size() - 1 - i);
    }
  }
  if (!loaded && !ckpts.empty()) {
    std::fprintf(stderr,
                 "bullfrog: all %zu checkpoints unusable, falling back to "
                 "full WAL replay\n",
                 ckpts.size());
  }

  // The fallback is only sound if the WAL still covers [base_, head):
  // GC against a (now unusable) newer checkpoint may have removed the
  // prefix, in which case replay would silently lose those records.
  {
    const auto segments = ListNumbered(dir_, kSegmentPrefix, kSegmentSuffix);
    if (!segments.empty() && segments[0].first > base_) {
      return Status::Internal(
          "WAL starts at offset " + std::to_string(segments[0].first) +
          " but recovery needs offset " + std::to_string(base_) +
          " (records were garbage-collected against a checkpoint that "
          "failed to load) — unrecoverable");
    }
  }

  // Replay segments past the checkpoint. Records also flow into the
  // in-memory redo log (AppendRaw — no sink is attached yet), so after
  // recovery global offset = base_ + in-memory index, and downstream
  // consumers (tracker recovery, replication tails) see the real suffix.
  LogApplier applier(db, /*append_to_local_log=*/true);
  const auto segments = ListNumbered(dir_, kSegmentPrefix, kSegmentSuffix);
  for (size_t i = 0; i < segments.size(); ++i) {
    const uint64_t seg_base = segments[i].first;
    // A segment bounded above by its successor's base is fully covered by
    // the checkpoint when that bound is below it — skip without reading.
    if (i + 1 < segments.size() && segments[i + 1].first <= base_) continue;
    BF_ASSIGN_OR_RETURN(std::vector<LogRecord> records,
                        ReadLogFile(segments[i].second.string()));
    size_t skip = 0;
    if (seg_base < base_) {
      skip = static_cast<size_t>(base_ - seg_base);
      if (skip >= records.size()) continue;
    }
    BF_RETURN_NOT_OK(applier.Apply(std::vector<LogRecord>(
        std::make_move_iterator(records.begin() + skip),
        std::make_move_iterator(records.end()))));
  }
  return Status::OK();
}

Status WalDir::StartLogging(Database* db) {
  if (dir_.empty()) return Status::InvalidArgument("WalDir not opened");
  return RotateSegment(db);
}

Status WalDir::RotateSegment(Database* db) {
  auto writer = std::make_shared<LogFileWriter>();
  // The final name embeds the global offset of the segment's first
  // record, which is only known at the instant the sink swaps in — so
  // open under a temporary name and rename once SwapSink reports it
  // (rename does not disturb the open FILE*).
  const fs::path tmp = fs::path(dir_) / "wal-rotating.log.tmp";
  std::error_code ec;
  fs::remove(tmp, ec);
  BF_RETURN_NOT_OK(writer->Open(tmp.string()));
  const size_t at = db->txns().redo_log().SwapSink(
      [writer](const std::vector<LogRecord>& batch) {
        return writer->Append(batch);
      });
  const uint64_t seg_base = base_ + at;
  const fs::path final_path =
      fs::path(dir_) / (kSegmentPrefix + std::to_string(seg_base) +
                        kSegmentSuffix);
  fs::rename(tmp, final_path, ec);
  if (ec) {
    return Status::Internal("rename segment to '" + final_path.string() +
                            "': " + ec.message());
  }
  BF_RETURN_NOT_OK(SyncParentDir(final_path.string()));
  writer_ = std::move(writer);
  return Status::OK();
}

Status WalDir::Checkpoint(Database* db) {
  if (dir_.empty()) return Status::InvalidArgument("WalDir not opened");

  std::string blob;
  BF_RETURN_NOT_OK(CaptureCheckpoint(db, &blob, base_));
  // The covered offset sits after the magic + version header.
  codec::ByteReader reader(blob);
  char magic[4];
  uint32_t version;
  uint64_t offset = 0;
  if (!reader.GetBytes(magic, sizeof(magic)) || !reader.GetU32(&version) ||
      !reader.GetU64(&offset)) {
    return Status::Internal("checkpoint blob missing header");
  }
  const fs::path ckpt_path =
      fs::path(dir_) / (kCkptPrefix + std::to_string(offset) + kCkptSuffix);
  BF_RETURN_NOT_OK(WriteFileAtomic(ckpt_path, blob));

  // Rotate so the checkpoint is (modulo a racing commit) a segment
  // boundary, letting GC retire the whole previous segment.
  if (writer_ != nullptr) BF_RETURN_NOT_OK(RotateSegment(db));

  // GC: a segment is dead when its upper bound (successor's base) is at
  // or below the checkpoint; older checkpoints are superseded outright.
  const auto segments = ListNumbered(dir_, kSegmentPrefix, kSegmentSuffix);
  std::error_code ec;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= offset) fs::remove(segments[i].second, ec);
  }
  for (const auto& [off, path] : ListNumbered(dir_, kCkptPrefix, kCkptSuffix)) {
    if (off < offset) fs::remove(path, ec);
  }
  return Status::OK();
}

}  // namespace bullfrog::replication
