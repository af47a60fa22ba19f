#include "shard/sharded_database.h"

#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>

#include "common/env.h"

namespace bullfrog::shard {

ShardedDatabase::ShardedDatabase(size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  executors_.reserve(num_shards);
  std::vector<Database*> raw;
  raw.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Database>());
    executors_.push_back(std::make_unique<Executor>());
    raw.push_back(shards_.back().get());
  }
  coordinator_ = std::make_unique<MigrationCoordinator>(std::move(raw));
}

ShardedDatabase::~ShardedDatabase() {
  // Executors first: no shard task may outlive its Database.
  executors_.clear();
}

void ShardedDatabase::RunOnShards(const std::function<void(size_t)>& fn) {
  std::latch done(static_cast<ptrdiff_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    executors_[i]->Post([&, i] {
      fn(i);
      done.count_down();
    });
  }
  done.wait();
}

Status ShardedDatabase::OpenDurable(const std::string& dir) {
  if (durable()) return Status::InvalidArgument("already durable");

  // The shard count is part of the data's identity: key k lives in
  // shard-hash(k)%N, so reopening N-way data with M shards would make
  // every misplaced key look deleted. Record N on first open, verify on
  // every later one.
  const std::string meta_path = dir + "/shards.meta";
  {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("create " + dir + ": " + ec.message());
    }
    std::ifstream meta(meta_path);
    if (meta.good()) {
      size_t stored = 0;
      meta >> stored;
      if (stored != shards_.size()) {
        return Status::InvalidArgument(
            "data dir " + dir + " was written with --shards=" +
            std::to_string(stored) + ", reopened with --shards=" +
            std::to_string(shards_.size()) +
            " (resharding is not supported)");
      }
    } else {
      std::ofstream out(meta_path, std::ios::trunc);
      out << shards_.size() << "\n";
      if (!out.good()) {
        return Status::Internal("write " + meta_path + " failed");
      }
    }
  }

  // Recover the shards in parallel — each segment directory is
  // self-contained, so N recoveries are independent replay loops.
  std::vector<std::unique_ptr<replication::WalDir>> dirs(shards_.size());
  std::vector<Status> results(shards_.size(), Status::OK());
  RunOnShards([&](size_t i) {
    auto wal = std::make_unique<replication::WalDir>();
    Database* db = shards_[i].get();
    Status st = wal->Open(dir + "/shard-" + std::to_string(i));
    if (st.ok()) st = wal->Recover(db);
    // A shard that crashed mid lazy migration re-owns it locally, on the
    // trackers its own replayed migration marks rebuilt.
    if (st.ok()) st = db->controller().TakeOwnership();
    if (st.ok()) st = wal->StartLogging(db);
    results[i] = st;
    dirs[i] = std::move(wal);
  });
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return Status(results[i].code(), "shard " + std::to_string(i) +
                                           " recovery: " +
                                           results[i].message());
    }
  }
  wal_dirs_ = std::move(dirs);
  return Status::OK();
}

Status ShardedDatabase::Checkpoint() {
  if (!durable()) return Status::InvalidArgument("not durable");
  std::vector<Status> results(shards_.size(), Status::OK());
  RunOnShards([&](size_t i) {
    results[i] = wal_dirs_[i]->Checkpoint(shards_[i].get());
  });
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return Status(results[i].code(), "shard " + std::to_string(i) +
                                           " checkpoint: " +
                                           results[i].message());
    }
  }
  return Status::OK();
}

std::vector<uint64_t> ShardedDatabase::LogOffsets() {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t base = wal_dirs_.empty() ? 0 : wal_dirs_[i]->base();
    out.push_back(base + shards_[i]->txns().redo_log().size());
  }
  return out;
}

std::string ShardedDatabase::RenderMetrics() {
  std::string out = metrics_.RenderPrometheus();
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += "# shard " + std::to_string(i) + "\n";
    out += shards_[i]->metrics().RenderPrometheus();
  }
  return out;
}

std::string ShardedDatabase::RenderProfile(uint64_t id) {
  std::string out = profiles_.RenderProfile(id);
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Shard stores only fill when a shard-local root traced a statement
    // (embedded use); skip empty ones to keep the common output tight.
    if (shards_[i]->profiles().recent_size() == 0) continue;
    out += "# shard " + std::to_string(i) + "\n";
    out += shards_[i]->profiles().RenderProfile(id);
  }
  return out;
}

std::string ShardedDatabase::RenderSlowlog() {
  std::string out = profiles_.RenderSlowlog();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->profiles().recent_size() == 0) continue;
    out += "# shard " + std::to_string(i) + "\n";
    out += shards_[i]->profiles().RenderSlowlog();
  }
  return out;
}

std::string ShardedDatabase::RenderTimeseries() {
  std::string out =
      timeseries_ != nullptr ? timeseries_->Render() : "timeseries not running\n";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->timeseries() == nullptr) continue;
    out += "# shard " + std::to_string(i) + "\n";
    out += shards_[i]->timeseries()->Render();
  }
  return out;
}

void ShardedDatabase::StartTimeseries(int64_t interval_ms) {
  std::lock_guard<std::mutex> lock(timeseries_mu_);
  if (timeseries_ != nullptr) return;
  if (interval_ms <= 0) interval_ms = EnvInt64("BF_TIMESERIES_MS", 100);
  auto ts = std::make_unique<obs::TimeseriesSampler>(interval_ms);
  ts->AddSource("txn_commits", [this] {
    double total = 0;
    for (auto& s : shards_) total += static_cast<double>(s->txns().num_committed());
    return total;
  });
  ts->AddSource("migration_progress",
                [this] { return coordinator_->Progress(); });
  ts->AddSource("units_migrated", [this] {
    double total = 0;
    for (auto& s : shards_) {
      total += static_cast<double>(s->controller().UnitsMigrated());
    }
    return total;
  });
  ts->Start();
  timeseries_ = std::move(ts);
}

std::string ShardedDatabase::RenderTraces() {
  std::string out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += "# shard " + std::to_string(i) + "\n";
    out += shards_[i]->tracer().Render();
  }
  return out;
}

std::string ShardedDatabase::StatusReport() {
  std::ostringstream out;
  out << coordinator_->StatusReport();
  const auto offsets = LogOffsets();
  out << "log offsets:";
  for (size_t i = 0; i < offsets.size(); ++i) {
    out << " shard" << i << "=" << offsets[i];
  }
  out << "\n";
  return out.str();
}

}  // namespace bullfrog::shard
