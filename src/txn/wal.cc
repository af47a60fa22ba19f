#include "txn/wal.h"

#include <chrono>
#include <iterator>

#include "common/clock.h"
#include "obs/request_trace.h"

namespace bullfrog {

namespace {

/// Annotates a sink failure so the committing session's error names the
/// durability layer, not just the underlying fwrite/fsync errno text.
Status AnnotateSinkFailure(const Status& st) {
  return Status(st.code(), "durable WAL append failed: " + st.message());
}

/// Most commits the writer drains into one sink call.
constexpr size_t kMaxBatch = 128;

/// Accumulation-window deadline: once the queue is non-empty, the longest
/// the writer holds the sync open for more commits to arrive.
constexpr int64_t kMaxWaitUs = 500;

/// Accumulation-window tick: how long the writer waits for one more
/// arrival before concluding the stream went dry.
constexpr int64_t kGrowTickUs = 150;

}  // namespace

RedoLog::~RedoLog() {
  {
    std::lock_guard lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void RedoLog::SequenceLocked(std::span<Pending* const> batch,
                             std::vector<LogRecord>* records) {
  // The clock moves only under mu_ (here and in AdvanceClock), so
  // visible() + 1 is the next timestamp. Moved-from records keep their
  // vector's size, which the LSNs still need.
  uint64_t ts = clock_->visible();
  uint64_t lsn = records_.size();
  for (Pending* p : batch) {
    lsn += p->records.size();
    p->ticket = CommitTicket{lsn, ++ts};
  }
  records_.insert(records_.end(), std::make_move_iterator(records->begin()),
                  std::make_move_iterator(records->end()));
  for (const Pending* p : batch) {
    for (const InstalledVersion& v : p->versions) {
      v.version->commit_ts.store(p->ticket.commit_ts,
                                 std::memory_order_release);
    }
  }
  // Stamped first: a snapshot at the published clock sees every version
  // of every commit at or below it.
  clock_->Publish(ts);
}

void RedoLog::AdvanceClock() {
  std::lock_guard lock(mu_);
  clock_->Publish(clock_->visible() + 1);
}

RedoLog::OrderPoint RedoLog::PinOrderPoint() {
  std::lock_guard lock(mu_);
  return OrderPoint{records_.size(), clock_->Pin()};
}

Status RedoLog::RunSinkLocked(const std::vector<LogRecord>& records) {
  if (!sink_) return Status::OK();
  Stopwatch sw;
  Status st = sink_(records);
  if (sync_latency_hist_ != nullptr) {
    sync_latency_hist_->ObserveNanos(sw.ElapsedNanos());
  }
  return st;
}

void RedoLog::StartWriterLocked() {
  if (writer_.joinable()) return;
  std::lock_guard lock(queue_mu_);
  if (!stop_) writer_ = std::thread([this] { WriterLoop(); });
}

size_t RedoLog::SwapSink(Sink sink) {
  // sink_mu_ first: an in-flight batch finishes against the old sink and
  // is sequenced before we read the swap offset, so every record below
  // the returned offset is durable in the old segment and everything
  // queued behind us lands in the new one. mu_ makes the swap atomic with
  // a no-sink commit's ordering section.
  std::lock_guard sink_lock(sink_mu_);
  size_t offset;
  {
    std::lock_guard lock(mu_);
    sink_ = std::move(sink);
    offset = records_.size();
  }
  if (sink_) StartWriterLocked();
  return offset;
}

Status RedoLog::AppendCommitted(uint64_t txn_id,
                                std::vector<LogRecord> records,
                                std::span<const InstalledVersion> versions,
                                CommitTicket* ticket) {
  // A read-only transaction has nothing to make durable: skip the commit
  // record (and the fsync it would cost) entirely.
  if (records.empty() && versions.empty()) {
    if (ticket != nullptr) *ticket = CommitTicket{};
    return Status::OK();
  }
  for (LogRecord& r : records) r.txn_id = txn_id;
  LogRecord commit;
  commit.txn_id = txn_id;
  commit.op = LogOp::kCommit;
  records.push_back(std::move(commit));

  Pending pending;
  pending.records = std::move(records);
  pending.versions = versions;
  Pending* const one = &pending;
  // The whole wait for the ordering section — the lock below, or the
  // group-commit writer's sync and sequencing — is this commit's
  // wal_sync stage.
  obs::ScopedSpan span("wal_sync", obs::Stage::kWalSync);
  std::unique_lock lock(mu_);
  if (!sink_) {
    SequenceLocked({&one, 1}, &pending.records);
    lock.unlock();
    grow_cv_.notify_all();
    if (acks_counter_ != nullptr) acks_counter_->Inc();
    if (ticket != nullptr) *ticket = pending.ticket;
    return Status::OK();
  }
  lock.unlock();

  bool queued = false;
  bool was_empty = false;
  {
    std::lock_guard queue_lock(queue_mu_);
    if (!stop_) {
      was_empty = queue_.empty();
      queue_.push_back(&pending);
      queued = true;
    }
  }
  if (queued) {
    // Only the empty -> non-empty transition needs a wake: a non-empty
    // queue means the writer is either mid-batch or accumulating on a
    // timed tick, and will see this entry without a futex wake per
    // commit.
    if (was_empty) queue_cv_.notify_one();
  } else {
    // Shutdown race: the writer is gone (or going); run the batch on
    // this thread rather than parking forever.
    ProcessBatch({&one, 1});
  }
  // Futex-style park on our own flag: the writer's release store (and
  // notify_one) publishes result/ticket to exactly this thread, so a
  // batch of N acks costs N targeted wakes, not N threads contending one
  // condition-variable mutex.
  pending.done.wait(0, std::memory_order_acquire);
  if (!pending.result.ok()) return pending.result;
  if (ticket != nullptr) *ticket = pending.ticket;
  return Status::OK();
}

void RedoLog::WriterLoop() {
  for (;;) {
    std::vector<Pending*> batch;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained.
      if (queue_.size() < kMaxBatch && !stop_) {
        // Adaptive accumulation: on hardware where fdatasync burns CPU,
        // the "batches form during the previous sync" assumption fails —
        // the sync starves the very committers that would fill the next
        // batch. So hold the sync open in short ticks while commits keep
        // arriving, and fire the moment an entire tick adds nothing (a
        // lone committer pays one tick, far less than the sync itself).
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(kMaxWaitUs);
        size_t last = queue_.size();
        while (!stop_ && queue_.size() < kMaxBatch &&
               std::chrono::steady_clock::now() < deadline) {
          queue_cv_.wait_for(lock, std::chrono::microseconds(kGrowTickUs));
          if (queue_.size() == last) break;  // Arrival stream went dry.
          last = queue_.size();
        }
      }
      while (!queue_.empty() && batch.size() < kMaxBatch) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    ProcessBatch(batch);
  }
}

void RedoLog::ProcessBatch(std::span<Pending* const> batch) {
  // One sink call for the whole batch: LogFileWriter turns this into a
  // single fwrite + fdatasync. Records are moved, not copied — the
  // committer never looks at them again.
  std::vector<LogRecord> combined;
  size_t total = 0;
  for (const Pending* p : batch) total += p->records.size();
  combined.reserve(total);
  for (Pending* p : batch) {
    for (LogRecord& r : p->records) combined.push_back(std::move(r));
  }

  Status st;
  {
    std::lock_guard sink_lock(sink_mu_);
    st = RunSinkLocked(combined);
    if (st.ok()) {
      // Sequence while still holding sink_mu_ so SwapSink cannot slide a
      // new sink (and read its base offset) between our durable write
      // and the ordering section. mu_ itself is held only for the
      // sequencing — readers never wait on the fsync above.
      std::lock_guard lock(mu_);
      SequenceLocked(batch, &combined);
    }
  }
  if (st.ok()) grow_cv_.notify_all();

  // Observe BEFORE releasing any ack: a committer may scrape metrics the
  // instant its ack fires, and must see this batch accounted for.
  if (batch_size_hist_ != nullptr) {
    batch_size_hist_->Observe(static_cast<double>(batch.size()));
  }
  if (st.ok() && acks_counter_ != nullptr) acks_counter_->Inc(batch.size());

  // Release waiters front-to-back so acks fire in LSN order. Each store
  // + notify targets one parked committer; result/ticket writes above
  // happen-before the acquire load in AppendCommitted.
  const Status failure = st.ok() ? Status::OK() : AnnotateSinkFailure(st);
  for (Pending* p : batch) {
    p->result = failure;
    p->done.store(1, std::memory_order_release);
    p->done.notify_one();
  }
}

void RedoLog::AppendRaw(std::vector<LogRecord> records) {
  {
    std::lock_guard lock(mu_);
    for (LogRecord& r : records) records_.push_back(std::move(r));
  }
  grow_cv_.notify_all();
}

size_t RedoLog::ReadFrom(size_t from, size_t limit,
                         std::vector<LogRecord>* out) const {
  std::lock_guard lock(mu_);
  out->clear();
  for (size_t i = from; i < records_.size() && out->size() < limit; ++i) {
    out->push_back(records_[i]);
  }
  return records_.size();
}

size_t RedoLog::WaitForSize(size_t from, int64_t timeout_ms) const {
  std::unique_lock lock(mu_);
  if (timeout_ms > 0) {
    grow_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this, from] { return records_.size() > from; });
  }
  return records_.size();
}

void RedoLog::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  batch_size_hist_ = registry->GetHistogram(
      "bullfrog_wal_group_commit_batch_size", "",
      obs::MetricsRegistry::ExponentialBounds(1.0, 2.0, 10));
  sync_latency_hist_ = registry->GetHistogram(
      "bullfrog_wal_sync_seconds", "", obs::MetricsRegistry::LatencyBounds());
  acks_counter_ = registry->GetCounter("bullfrog_wal_acks_released_total");
}

}  // namespace bullfrog
