#include "catalog/catalog.h"

namespace bullfrog {

std::string_view TableStateName(TableState s) {
  switch (s) {
    case TableState::kActive:
      return "ACTIVE";
    case TableState::kRetired:
      return "RETIRED";
    case TableState::kDropped:
      return "DROPPED";
  }
  return "UNKNOWN";
}

Result<Table*> Catalog::CreateTable(TableSchema schema) {
  std::lock_guard lock(mu_);
  const std::string name = schema.name();
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  std::shared_ptr<CatalogView> next = CopyLocked();
  auto it = next->tables_.find(name);
  if (it != next->tables_.end() && it->second.state != TableState::kDropped) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  CatalogView::Entry entry;
  entry.table = std::make_shared<Table>(std::move(schema));
  if (snapshots_ != nullptr) entry.table->SetSnapshots(snapshots_);
  entry.state = TableState::kActive;
  entry.created_at_version = next->schema_version_;
  Table* raw = entry.table.get();
  // A re-created name replaces the dropped entry here; the dropped table
  // lives on in the views still holding it.
  next->tables_[name] = std::move(entry);
  view_.Publish(std::move(next));
  return raw;
}

Result<Table*> CatalogView::RequireActive(const std::string& name) const {
  const Entry* e = Find(name);
  if (e == nullptr) {
    return Status::NotFound("no table '" + name + "'");
  }
  if (e->state != TableState::kActive) {
    return Status::SchemaMismatch(
        "table '" + name + "' is " + std::string(TableStateName(e->state)) +
        "; requests against the old schema are rejected after a big-flip "
        "migration");
  }
  return e->table.get();
}

Result<Table*> CatalogView::RequireReadable(const std::string& name) const {
  const Entry* e = Find(name);
  if (e == nullptr) {
    return Status::NotFound("no table '" + name + "'");
  }
  if (e->state == TableState::kDropped) {
    return Status::NotFound("table '" + name + "' has been dropped");
  }
  return e->table.get();
}

Status Catalog::SetState(const std::string& name, TableState state) {
  std::lock_guard lock(mu_);
  std::shared_ptr<CatalogView> next = CopyLocked();
  auto it = next->tables_.find(name);
  if (it == next->tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  if (state == TableState::kRetired &&
      it->second.state == TableState::kDropped) {
    return Status::InvalidArgument("table '" + name + "' already dropped");
  }
  it->second.state = state;
  view_.Publish(std::move(next));
  return Status::OK();
}

Status Catalog::RetireTable(const std::string& name) {
  return SetState(name, TableState::kRetired);
}

Status Catalog::DropTable(const std::string& name) {
  return SetState(name, TableState::kDropped);
}

uint64_t Catalog::BumpSchemaVersion() {
  std::lock_guard lock(mu_);
  std::shared_ptr<CatalogView> next = CopyLocked();
  const uint64_t version = ++next->schema_version_;
  view_.Publish(std::move(next));
  return version;
}

std::vector<std::string> Catalog::TablesInState(TableState s) const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : view()->entries()) {
    if (entry.state == s) out.push_back(name);
  }
  return out;
}

}  // namespace bullfrog
