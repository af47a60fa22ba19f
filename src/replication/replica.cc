#include "replication/replica.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/request_trace.h"
#include "replication/checkpoint.h"
#include "storage/value_codec.h"
#include "txn/log_file.h"

namespace bullfrog::replication {

Replica::Replica(Database* db, ReplicaOptions options)
    : db_(db),
      options_(std::move(options)),
      // The local redo log mirrors the primary's suffix so the replica's
      // own offset space lines up with the stream's.
      applier_(db, /*append_to_local_log=*/true) {
  obs::MetricsRegistry& m = db_->metrics();
  applied_gauge_ = m.GetGauge("bullfrog_replica_applied_records");
  apply_lag_gauge_ = m.GetGauge("bullfrog_replica_apply_lag_records");
  read_through_total_ = m.GetCounter("bullfrog_replica_read_through_total");
}

Replica::~Replica() { Stop(); }

Status Replica::Start() {
  if (started_.exchange(true)) return Status::InvalidArgument("already started");

  // Bootstrap: fetch a checkpoint, retrying while the primary is still
  // coming up (kUnavailable) or defers the capture (kBusy — e.g. a
  // multistep migration in flight). Backoff is exponential,
  // bootstrap_retry_ms doubling up to bootstrap_max_backoff_ms, and the
  // current wait is published in the status line (ADMIN "replication")
  // instead of failing hard.
  server::Client boot;
  std::string blob;
  Status last = Status::Unavailable("bootstrap never attempted");
  int64_t backoff_ms = options_.bootstrap_retry_ms;
  auto next_backoff = [&] {
    const int64_t wait = backoff_ms;
    backoff_ms = std::min(backoff_ms * 2, options_.bootstrap_max_backoff_ms);
    return wait;
  };
  auto set_phase = [&](int attempt, int64_t wait_ms) {
    std::lock_guard lock(mu_);
    phase_ = "bootstrapping attempt=" + std::to_string(attempt + 1) + "/" +
             std::to_string(options_.bootstrap_retries) + " backoff_ms=" +
             std::to_string(wait_ms) + " last=" + last.ToString();
  };
  for (int attempt = 0; attempt < options_.bootstrap_retries; ++attempt) {
    if (!boot.connected()) {
      last = boot.Connect(options_.primary);
      if (!last.ok()) {
        const int64_t wait = next_backoff();
        set_phase(attempt, wait);
        Clock::SleepMillis(wait);
        continue;
      }
    }
    Result<std::string> ckpt = boot.FetchCheckpoint();
    if (ckpt.ok()) {
      blob = std::move(*ckpt);
      last = Status::OK();
      break;
    }
    last = ckpt.status();
    // A deferred checkpoint is expected behavior, not degradation: keep
    // the connection and retry. Transport-level failures reconnect.
    if (!last.IsBusy() && boot.connected()) boot.Close();
    const int64_t wait = next_backoff();
    set_phase(attempt, wait);
    Clock::SleepMillis(wait);
  }
  if (!last.ok()) {
    {
      std::lock_guard lock(mu_);
      phase_ = "bootstrap failed";
    }
    started_.store(false);
    return Status::Unavailable("replica bootstrap failed: " + last.message());
  }

  uint64_t wal_offset = 0;
  Status load = LoadCheckpoint(db_, blob, &wal_offset);
  if (!load.ok()) {
    {
      std::lock_guard lock(mu_);
      phase_ = "bootstrap failed";
    }
    started_.store(false);
    return load;
  }
  applied_.store(wal_offset, std::memory_order_release);
  primary_size_.store(wal_offset, std::memory_order_release);

  {
    std::lock_guard lock(mu_);
    phase_ = "streaming";
  }
  stopping_.store(false);
  apply_thread_ = std::thread([this] { ApplyLoop(); });
  return Status::OK();
}

void Replica::Stop() {
  stopping_.store(true);
  if (apply_thread_.joinable()) apply_thread_.join();
  std::lock_guard lock(forward_mu_);
  forward_client_.Close();
}

void Replica::ApplyLoop() {
  server::Client tail;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!tail.connected()) {
      Status c = tail.Connect(options_.primary);
      if (!c.ok()) {
        {
          std::lock_guard lock(mu_);
          last_error_ = c.message();
        }
        Clock::SleepMillis(options_.bootstrap_retry_ms);
        continue;
      }
    }
    const uint64_t next = applied_.load(std::memory_order_acquire);
    Result<std::string> payload =
        tail.TailLog(next, options_.tail_batch, options_.tail_wait_ms);
    if (!payload.ok()) {
      {
        std::lock_guard lock(mu_);
        last_error_ = payload.status().message();
      }
      // Transport errors close the client; anything else (a server-side
      // error status) is worth a pause before retrying too.
      if (tail.connected()) tail.Close();
      Clock::SleepMillis(options_.bootstrap_retry_ms);
      continue;
    }
    std::vector<LogRecord> batch;
    Status s = DecodeTailFrame(*payload, next, &batch);
    // Coalesce: a full frame means the primary has more committed log
    // ready right now — keep fetching with zero wait and fold the frames
    // into one Apply, so a backlogged replica pays the per-apply
    // bookkeeping once per coalesced batch instead of once per frame.
    size_t frame_n = batch.size();
    while (s.ok() && frame_n == options_.tail_batch &&
           batch.size() <
               static_cast<size_t>(options_.tail_batch) *
                   std::max<uint32_t>(options_.tail_coalesce_frames, 1) &&
           !stopping_.load(std::memory_order_acquire)) {
      Result<std::string> more =
          tail.TailLog(next + batch.size(), options_.tail_batch,
                       /*wait_ms=*/0);
      if (!more.ok()) break;  // Apply what we have; retry transport later.
      const size_t before = batch.size();
      s = DecodeTailFrame(*more, next + before, &batch);
      frame_n = batch.size() - before;
    }
    if (!s.ok()) {
      // A hard decode/divergence error means local state may be wrong;
      // stop advancing rather than compounding it. The error stays
      // visible in ADMIN "replication" until the operator intervenes.
      std::lock_guard lock(mu_);
      last_error_ = "apply failed (replica halted): " + s.message();
      return;
    }
    const size_t n = batch.size();
    if (n > 0) {
      Status applied_st = applier_.Apply(std::move(batch));
      if (!applied_st.ok()) {
        std::lock_guard lock(mu_);
        last_error_ = "apply failed (replica halted): " + applied_st.message();
        return;
      }
      applied_.fetch_add(n, std::memory_order_acq_rel);
    }
    const uint64_t applied = applied_.load(std::memory_order_acquire);
    const uint64_t primary = primary_size_.load(std::memory_order_acquire);
    applied_gauge_->Set(static_cast<int64_t>(applied));
    apply_lag_gauge_->Set(primary > applied
                              ? static_cast<int64_t>(primary - applied)
                              : 0);
    if (n > 0) {
      std::lock_guard lock(mu_);
      last_error_.clear();
      applied_cv_.notify_all();
    }
  }
}

Status Replica::DecodeTailFrame(const std::string& payload,
                                uint64_t expected_start,
                                std::vector<LogRecord>* out) {
  codec::ByteReader reader(payload);
  uint64_t primary_size = 0;
  uint64_t start_lsn = 0;
  uint32_t n = 0;
  if (!reader.GetU64(&primary_size) || !reader.GetU64(&start_lsn) ||
      !reader.GetU32(&n)) {
    return Status::Internal("malformed tail frame header");
  }
  if (start_lsn != expected_start) {
    // The primary answered for a different offset than we asked: a gap
    // (log truncated under us) or stream divergence. Applying it would
    // silently corrupt the replica.
    return Status::Internal(
        "tail frame gap: expected start_lsn " +
        std::to_string(expected_start) + ", got " +
        std::to_string(start_lsn));
  }
  out->reserve(out->size() + n);
  for (uint32_t i = 0; i < n; ++i) {
    LogRecord r;
    if (!DecodeLogRecord(&reader, &r)) {
      return Status::Internal("torn record in tail frame");
    }
    out->push_back(std::move(r));
  }
  primary_size_.store(primary_size, std::memory_order_release);
  return Status::OK();
}

bool Replica::WaitApplied(uint64_t offset, int64_t timeout_ms) {
  std::unique_lock lock(mu_);
  return applied_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] {
                                return applied_.load(
                                           std::memory_order_acquire) >=
                                       offset;
                              });
}

Status Replica::ForwardRead(const std::string& sql, const std::string& table) {
  std::lock_guard lock(forward_mu_);
  read_through_total_->Inc();
  if (!forward_client_.connected()) {
    Status c = forward_client_.Connect(options_.primary);
    if (!c.ok()) return Status::OK();  // Degrade: serve local state.
  }
  // Running the same SELECT on the primary migrates exactly the rows this
  // query needs (§2.1 lazy path); the result itself is discarded — only
  // the migration side-effects matter, and they arrive through the log.
  // If the replica-side request carries a trace, forward its id so the
  // primary's slowlog shows the same trace id as the replica's profile.
  const obs::TraceContext* trace = obs::CurrentTrace();
  Result<server::ResultSet> rows =
      forward_client_.Query(sql, trace != nullptr ? trace->id() : 0);
  if (!rows.ok()) {
    forward_client_.Close();
    return Status::OK();  // Degrade: serve local state.
  }
  Result<std::string> text = forward_client_.Admin("offset");
  if (!text.ok() || text->compare(0, 7, "offset=") != 0) {
    forward_client_.Close();
    return Status::OK();
  }
  const uint64_t target = std::strtoull(text->c_str() + 7, nullptr, 10);
  // Best effort: on timeout the local scan still runs, just possibly
  // against not-yet-migrated state (same anomaly an async replica always
  // has for plain writes).
  (void)WaitApplied(target, options_.forward_wait_ms);
  return Status::OK();
}

std::string Replica::StatusReport() {
  const uint64_t applied = applied_.load(std::memory_order_acquire);
  const uint64_t primary = primary_size_.load(std::memory_order_acquire);
  std::string out = "role=replica primary=" + options_.primary +
                    " applied=" + std::to_string(applied) +
                    " primary_offset=" + std::to_string(primary) +
                    " behind=" +
                    std::to_string(primary > applied ? primary - applied : 0);
  std::lock_guard lock(mu_);
  if (phase_ != "streaming") out += " phase=\"" + phase_ + "\"";
  if (!last_error_.empty()) out += " last_error=" + last_error_;
  return out;
}

}  // namespace bullfrog::replication
