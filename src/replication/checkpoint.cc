#include "replication/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "catalog/schema_codec.h"
#include "migration/replication_log.h"
#include "mvcc/version.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"
#include "storage/value_codec.h"

namespace bullfrog::replication {

namespace {

constexpr char kMagic[4] = {'B', 'F', 'C', 'K'};
// The only version LoadCheckpoint accepts (header layout in checkpoint.h).
constexpr uint32_t kVersion = 3;

/// Tables worth snapshotting, sorted by name for a deterministic blob.
std::vector<std::pair<std::string, TableState>> SnapshotTables(Catalog* cat) {
  std::vector<std::pair<std::string, TableState>> out;
  for (const std::string& n : cat->TablesInState(TableState::kActive)) {
    out.emplace_back(n, TableState::kActive);
  }
  for (const std::string& n : cat->TablesInState(TableState::kRetired)) {
    out.emplace_back(n, TableState::kRetired);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Encodes one table as of `view`. The rows are buffered first: the live
/// count must be the count *at the snapshot*, and NumLiveRows() tracks
/// latest.
void EncodeTable(std::string* out, const std::string& name, TableState state,
                 Table* t, const mvcc::ReadView& view) {
  codec::PutLenPrefixed(out, name);
  out->push_back(state == TableState::kRetired ? 1 : 0);
  EncodeTableSchema(out, t->schema());
  codec::PutU32(out, static_cast<uint32_t>(t->indexes().size()));
  for (const auto& index : t->indexes()) {
    std::vector<std::string> cols;
    for (size_t c : index->key_columns()) {
      cols.push_back(t->schema().column(c).name);
    }
    EncodeIndexDef(out, name, index->name(), cols, index->unique(),
                   index->kind() == IndexKind::kOrdered);
  }
  codec::PutU64(out, t->NumAllocatedRows());
  std::string rows;
  uint64_t nlive = 0;
  t->ScanAt(view, [&](RowId rid, const Tuple& row) {
    ++nlive;
    codec::PutU64(&rows, rid);
    codec::PutU32(&rows, static_cast<uint32_t>(row.size()));
    for (const Value& v : row.values()) codec::PutValue(&rows, v);
    return true;
  });
  codec::PutU64(out, nlive);
  out->append(rows);
}

void EncodeTables(std::string* out, Database* db, const mvcc::ReadView& view) {
  // Buffer per-table blobs so tables that race to kDropped between the
  // listing and the encode (a completing migration's retire-drop runs on
  // a worker thread) can still be skipped after the fact.
  std::vector<std::string> blobs;
  for (const auto& [name, state] : SnapshotTables(&db->catalog())) {
    Table* t = db->catalog().FindTable(name);
    if (t == nullptr ||
        db->catalog().GetState(name) == TableState::kDropped) {
      continue;
    }
    std::string blob;
    EncodeTable(&blob, name, state, t, view);
    blobs.push_back(std::move(blob));
  }
  codec::PutU32(out, static_cast<uint32_t>(blobs.size()));
  for (const std::string& b : blobs) out->append(b);
}

}  // namespace

Status CaptureCheckpoint(Database* db, std::string* out,
                         uint64_t offset_base) {
  // Shared switch gate: Submit serializes against us; client requests
  // (which also hold it shared) keep flowing. See checkpoint.h for the
  // O/T barrier argument.
  auto guard = db->controller().GuardTables({});
  std::vector<MigrationController::CheckpointMigration> train;
  if (!db->controller().IsComplete()) {
    Status d = db->controller().DescribeTrainForCheckpoint(&train);
    if (!d.ok() && !d.IsNotFound()) {
      return d;  // Busy: multistep/eager or script-less migration.
    }
  }
  const uint64_t wal_offset =
      offset_base + db->txns().redo_log().size();
  db->txns().snapshots().WaitForAllocatedCommits();
  mvcc::SnapshotManager::PinGuard pin(&db->txns().snapshots());
  const mvcc::ReadView view{pin.ts(), /*txn=*/0};

  out->clear();
  out->append(kMagic, sizeof(kMagic));
  codec::PutU32(out, kVersion);
  codec::PutU64(out, wal_offset);
  codec::PutU64(out, pin.ts());
  EncodeTables(out, db, view);
  out->push_back(static_cast<char>(train.size()));
  for (const auto& m : train) {
    out->push_back(m.started ? 1 : 0);
    codec::PutLenPrefixed(out, m.blob);
  }
  return Status::OK();
}

Status LoadCheckpoint(Database* db, const std::string& blob,
                      uint64_t* wal_offset) {
  codec::ByteReader reader(blob);
  char magic[4];
  if (!reader.GetBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a checkpoint blob (bad magic)");
  }
  uint32_t version;
  if (!reader.GetU32(&version)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  if (version != kVersion) {
    return Status::Unsupported("unsupported checkpoint version " +
                               std::to_string(version));
  }
  uint64_t snapshot_ts = 0;
  if (!reader.GetU64(wal_offset) || !reader.GetU64(&snapshot_ts)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  uint32_t ntables;
  if (!reader.GetU32(&ntables)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  for (uint32_t i = 0; i < ntables; ++i) {
    std::string name;
    uint8_t state;
    TableSchema schema;
    if (!reader.GetLenPrefixed(&name) || !reader.GetU8(&state) ||
        !DecodeTableSchema(&reader, &schema)) {
      return Status::InvalidArgument("truncated checkpoint table header");
    }
    // Direct catalog create: checkpoint restore must not re-log DDL.
    BF_ASSIGN_OR_RETURN(Table * t, db->catalog().CreateTable(schema));
    uint32_t nindexes;
    if (!reader.GetU32(&nindexes)) {
      return Status::InvalidArgument("truncated checkpoint index list");
    }
    for (uint32_t j = 0; j < nindexes; ++j) {
      std::string table, index_name;
      std::vector<std::string> cols;
      bool unique, ordered;
      if (!DecodeIndexDef(&reader, &table, &index_name, &cols, &unique,
                          &ordered)) {
        return Status::InvalidArgument("truncated checkpoint index def");
      }
      // The Table constructor auto-creates the PK and unique-constraint
      // indexes; re-creating those here reports AlreadyExists — fine.
      Status s = t->CreateIndex(index_name, cols, unique,
                                ordered ? IndexKind::kOrdered : IndexKind::kHash);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
    uint64_t allocated, nlive;
    if (!reader.GetU64(&allocated) || !reader.GetU64(&nlive)) {
      return Status::InvalidArgument("truncated checkpoint row header");
    }
    t->ReserveRows(allocated);
    for (uint64_t r = 0; r < nlive; ++r) {
      uint64_t rid;
      uint32_t nvals;
      if (!reader.GetU64(&rid) || !reader.GetU32(&nvals)) {
        return Status::InvalidArgument("truncated checkpoint row");
      }
      Tuple row;
      row.reserve(nvals);
      for (uint32_t v = 0; v < nvals; ++v) {
        Value value;
        if (!reader.GetValue(&value)) {
          return Status::InvalidArgument("truncated checkpoint value");
        }
        row.push_back(std::move(value));
      }
      BF_RETURN_NOT_OK(t->RestoreAt(rid, row));
    }
    if (state == 1) BF_RETURN_NOT_OK(db->catalog().RetireTable(name));
  }
  // The migration train: `u8 n` × (`u8 started | lp blob`).
  std::vector<std::pair<bool, std::string>> entries;
  uint8_t n;
  if (!reader.GetU8(&n)) {
    return Status::InvalidArgument("truncated checkpoint migration flag");
  }
  for (uint8_t i = 0; i < n; ++i) {
    uint8_t started;
    if (!reader.GetU8(&started)) {
      return Status::InvalidArgument("truncated checkpoint migrate entry");
    }
    std::string blob;
    if (!reader.GetLenPrefixed(&blob)) {
      return Status::InvalidArgument("malformed checkpoint migrate blob");
    }
    entries.emplace_back(started != 0, std::move(blob));
  }
  for (const auto& [started, migrate_blob] : entries) {
    MigrationStrategy strategy;
    uint64_t granularity;
    std::string script;
    if (!DecodeMigrateBlob(migrate_blob, &strategy, &granularity,
                           &script)) {
      return Status::InvalidArgument("malformed checkpoint migrate blob");
    }
    BF_ASSIGN_OR_RETURN(std::vector<sql::Statement> stmts,
                        sql::ParseSqlScript(script));
    BF_ASSIGN_OR_RETURN(sql::MigrationFootprint footprint,
                        sql::MigrationScriptFootprint(stmts));
    MigrationController::SubmitOptions opts;
    opts.strategy = strategy;
    opts.lazy.granularity = granularity;
    opts.replicated_replay = true;
    if (started) {
      // The restored catalog is already post-switch for started
      // entries; only the machinery is rebuilt. Granule marks committed
      // below the checkpoint offset are gone — the trackers start
      // empty — so duplicate detection must be the insert-time ON
      // CONFLICT mode: re-migrated granules simply dedupe against the
      // rows the checkpoint already carried (§3.7).
      opts.lazy.duplicate_detection = DuplicateDetection::kOnConflictClause;
      opts.resume_after_switch = true;
    }
    // Queued entries re-queue behind the started ones they overlapped
    // at capture time (compilation stays deferred — their input tables
    // do not exist yet) and start when the WAL suffix replays their
    // "migrate_start" record.
    Status s = db->controller().SubmitScript(
        std::move(footprint.name), script, std::move(footprint.tables),
        [db, script]() -> Result<MigrationPlan> {
          BF_ASSIGN_OR_RETURN(std::vector<sql::Statement> parsed,
                              sql::ParseSqlScript(script));
          BF_ASSIGN_OR_RETURN(
              MigrationPlan plan,
              sql::CompileMigration(parsed, &db->catalog()));
          plan.source_script = script;
          return plan;
        },
        opts);
    if (!s.ok() && !s.IsQueued()) return s;
  }
  return Status::OK();
}

std::string DumpForDigest(Database* db) {
  std::string out;
  for (const auto& [name, state] : SnapshotTables(&db->catalog())) {
    Table* t = db->catalog().FindTable(name);
    if (t == nullptr) continue;
    out += "table " + name +
           " state=" + std::string(TableStateName(state)) +
           " live=" + std::to_string(t->NumLiveRows()) + "\n";
    out += "  schema " + t->schema().ToString() + "\n";
    t->Scan([&](RowId rid, const Tuple& row) {
      out += "  " + std::to_string(rid) + ":";
      for (const Value& v : row.values()) out += " " + v.ToString();
      out += "\n";
      return true;
    });
  }
  return out;
}

}  // namespace bullfrog::replication
