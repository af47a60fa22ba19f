#include "shard/coordinator.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "shard/partition.h"
#include "sql/engine.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"

namespace bullfrog::shard {

Status MigrationCoordinator::FanOut(
    const std::function<Status(size_t)>& submit_one) {
  std::unique_lock fan_out(submit_mu_, std::try_to_lock);
  if (!fan_out.owns_lock()) {
    return Status::Busy("a coordinated migration submit is in flight");
  }
  // Fan the submit out to every shard in parallel: each shard performs
  // its own logical switch and starts its own lazy/background machinery.
  // Eager submits block until that shard's copy is done, so the parallel
  // fan-out is also what makes eager sharded migration N-way parallel.
  std::vector<Status> results(shards_.size(), Status::OK());
  {
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers.emplace_back([&, i] { results[i] = submit_one(i); });
    }
    for (auto& w : workers) w.join();
  }

  // A rejecting shard left its catalog untouched and recorded the reason.
  // A shard that accepted keeps draining (cross-shard all-or-nothing needs
  // a prepare phase), so a partial submit names the accepting shards; a
  // refusal by every shard keeps its code (a duplicate is still kBusy).
  // kQueued: a shard parked the entry behind an overlapping migration; it
  // auto-starts there when the predecessor completes.
  Status rejected, queued;
  std::string accepted;
  for (size_t i = 0; i < results.size(); ++i) {
    const Status& r = results[i];
    const std::string shard = "shard " + std::to_string(i);
    if (!r.ok() && !r.IsQueued()) {
      if (rejected.ok()) {
        rejected = Status(r.code(),
                          shard + " rejected the migration: " + r.message());
      }
      continue;
    }
    accepted += (accepted.empty() ? "" : ",") + std::to_string(i);
    if (r.IsQueued() && queued.ok()) {
      queued = Status::Queued(shard + ": " + r.message());
    }
  }
  if (rejected.ok()) return queued;
  if (accepted.empty()) return rejected;
  return Status::Internal("migration partly applied: accepted by shards " +
                          accepted + ", which keep draining; " +
                          rejected.ToString());
}

Status MigrationCoordinator::Submit(
    const std::string& script,
    const MigrationController::SubmitOptions& options) {
  Status valid = ValidatePartitionPreservation(script);
  // NotFound: an input table does not exist *yet* — the script chains
  // onto a train entry that creates it, so it will queue per shard and
  // validation re-runs inside the deferred compile factory at start time.
  if (!valid.ok() && !valid.IsNotFound()) return valid;

  // Each shard compiles the script against its own catalog when its
  // entry starts (shard catalogs are identical by construction — every DDL
  // goes through all of them), so an overlapping script can queue before
  // its input tables exist. Partition-key preservation is re-proven on
  // the compiled plan against that shard's catalog: the entry may
  // auto-start while another shard is still a hop behind (or ahead) in the
  // train, and a violation fails the start like any other.
  return FanOut([&](size_t i) {
    Database* db = shards_[i];
    return sql::SubmitMigrationScript(
        db, script, options, [this, db](const MigrationPlan& plan) {
          return ValidatePlan(plan, db->catalog());
        });
  });
}

Status MigrationCoordinator::Submit(
    const std::function<MigrationPlan()>& plan_factory,
    const MigrationController::SubmitOptions& options) {
  BF_RETURN_NOT_OK(ValidatePlan(plan_factory(), shards_[0]->catalog()));
  return FanOut([&](size_t i) {
    return shards_[i]->SubmitMigration(plan_factory(), options);
  });
}

bool MigrationCoordinator::IsComplete() const {
  return std::all_of(shards_.begin(), shards_.end(), [](Database* db) {
    return db->controller().IsComplete();
  });
}

double MigrationCoordinator::Progress() const {
  // Each shard's Progress is 1.0 when its train is complete or empty.
  double sum = 0.0;
  for (Database* db : shards_) sum += db->controller().Progress();
  return shards_.empty() ? 1.0 : sum / static_cast<double>(shards_.size());
}

uint64_t MigrationCoordinator::TotalUnitsMigrated() const {
  uint64_t total = 0;
  for (const ShardProgress& p : PerShard()) total += p.units_migrated;
  return total;
}

std::vector<MigrationCoordinator::ShardProgress>
MigrationCoordinator::PerShard() const {
  std::vector<ShardProgress> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const MigrationController& c = shards_[i]->controller();
    ShardProgress p;
    p.shard = i;
    p.progress = c.Progress();
    p.complete = c.IsComplete();
    p.active_migrations = c.ActiveMigrations();
    p.queued_migrations = c.QueuedMigrations();
    p.complete_s = c.timeline().complete_s;
    for (StatementMigrator* m : c.migrators()) {
      const MigrationStats& s = m->stats();
      p.units_migrated += s.units_migrated.load(std::memory_order_relaxed);
      p.units_lazy += s.units_lazy.load(std::memory_order_relaxed);
      p.units_background += s.units_background.load(std::memory_order_relaxed);
      p.units_forced += s.units_forced.load(std::memory_order_relaxed);
      p.rows_migrated += s.rows_migrated.load(std::memory_order_relaxed);
    }
    out.push_back(p);
  }
  return out;
}

std::string MigrationCoordinator::StatusReport() const {
  const auto per_shard = PerShard();
  uint64_t total_units = 0;
  for (const ShardProgress& p : per_shard) total_units += p.units_migrated;
  const bool any_entry =
      std::any_of(shards_.begin(), shards_.end(), [](Database* db) {
        return db->controller().HasActiveMigration();
      });
  const char* state =
      !any_entry ? "idle" : (IsComplete() ? "complete" : "draining");

  std::ostringstream out;
  out << "coordinated migration: state=" << state
      << " shards=" << per_shard.size() << " progress=" << Progress()
      << " units_total=" << total_units << "\n";
  for (const auto& p : per_shard) {
    out << "  shard " << p.shard << ": progress=" << p.progress
        << " complete=" << (p.complete ? 1 : 0)
        << " active=" << p.active_migrations
        << " queued=" << p.queued_migrations
        << " units=" << p.units_migrated << " (lazy=" << p.units_lazy
        << " background=" << p.units_background
        << " forced=" << p.units_forced << ") rows=" << p.rows_migrated;
    if (p.complete_s >= 0.0) out << " complete_s=" << p.complete_s;
    const auto failures = shards_[p.shard]->controller().RecentFailures();
    if (!failures.empty()) {
      out << " last_failure=" << failures.back().name << ": "
          << failures.back().reason;
    }
    out << "\n";
  }
  return out.str();
}

Status MigrationCoordinator::ValidatePartitionPreservation(
    const std::string& script) const {
  if (shards_.size() <= 1) return Status::OK();

  auto stmts = sql::ParseSqlScript(script);
  if (!stmts.ok()) return stmts.status();
  // Shard catalogs are identical; compile once against shard 0 to get the
  // plan's provenance (CompileMigration only reads input schemas).
  auto plan = sql::CompileMigration(*stmts, &shards_[0]->catalog());
  if (!plan.ok()) return plan.status();
  return ValidatePlan(*plan, shards_[0]->catalog());
}

Status MigrationCoordinator::ValidatePlan(const MigrationPlan& plan,
                                          const Catalog& catalog) const {
  if (shards_.size() <= 1) return Status::OK();

  // Output-table name -> its first-PK-column (the post-migration routing
  // key), from the plan's new-table schemas.
  auto output_partition_column =
      [&](const std::string& table) -> std::optional<std::string> {
    for (const TableSchema& schema : plan.new_tables) {
      if (schema.name() != table) continue;
      if (schema.primary_key().empty()) return std::nullopt;
      return schema.primary_key()[0];
    }
    return std::nullopt;
  };

  for (const MigrationStatement& stmt : plan.statements) {
    // Every input must itself be partitioned by a key (placement of
    // PK-less tables is whole-row hash — no column identifies the shard,
    // so no output can be proven co-located).
    for (const std::string& input : stmt.input_tables) {
      if (!PartitionKeyOf(catalog, input)) {
        return Status::Unsupported(
            "sharded migration: input table '" + input +
            "' has no partition key (primary key required)");
      }
    }
    for (const std::string& output : stmt.output_tables) {
      auto out_col = output_partition_column(output);
      // PK-less outputs are always read by fan-out, so their rows may
      // stay wherever their inputs were — nothing to prove.
      if (!out_col) continue;
      for (const std::string& input : stmt.input_tables) {
        auto in_key = PartitionKeyOf(catalog, input);
        auto source = stmt.provenance.SourceIn(*out_col, input);
        if (!source || *source != in_key->column) {
          return Status::Unsupported(
              "sharded migration: output '" + output + "' partition column '" +
              *out_col + "' is not a pass-through of input '" + input +
              "' partition column '" + in_key->column +
              "' — rows would change shards, which a shared-nothing "
              "migration cannot do");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace bullfrog::shard
