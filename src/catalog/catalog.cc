#include "catalog/catalog.h"

#include <algorithm>

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
  BF_RETURN_NOT_OK(SwitchLocked({std::move(schema)}, {}, {}));
  return view_.Load()->FindTable(name);
}

Status Catalog::Switch(const std::vector<TableSchema>& create,
                       const std::vector<IndexSpec>& indexes,
                       const std::vector<std::string>& retire) {
  std::lock_guard lock(mu_);
  return SwitchLocked(create, indexes, retire);
}

Status Catalog::SwitchLocked(const std::vector<TableSchema>& create,
                             const std::vector<IndexSpec>& indexes,
                             const std::vector<std::string>& retire) {
  // Every change lands in a private copy; an early return publishes
  // nothing, and the tables built so far die with the copy.
  std::shared_ptr<CatalogView> next = CopyLocked();
  auto& tables = next->tables_;
  for (const TableSchema& schema : create) {
    const std::string& name = schema.name();
    if (name.empty()) {
      return Status::InvalidArgument("table name must be non-empty");
    }
    auto it = tables.find(name);
    if (it != tables.end() && it->second.state != TableState::kDropped) {
      return Status::AlreadyExists("table '" + name + "' already exists");
    }
    CatalogView::Entry entry;
    entry.table = std::make_shared<Table>(schema);
    if (snapshots_ != nullptr) entry.table->SetSnapshots(snapshots_);
    // A re-created name replaces the dropped entry here; the dropped table
    // lives on in the views still holding it.
    tables[name] = std::move(entry);
  }
  for (const IndexSpec& spec : indexes) {
    if (std::none_of(create.begin(), create.end(), [&](const auto& t) {
          return t.name() == spec.table;
        })) {
      return Status::InvalidArgument("index '" + spec.index_name +
                                     "' is not on a new table");
    }
    BF_RETURN_NOT_OK(tables[spec.table].table->CreateIndex(
        spec.index_name, spec.columns, spec.unique,
        spec.ordered ? IndexKind::kOrdered : IndexKind::kHash));
  }
  for (const std::string& name : retire) {
    auto it = tables.find(name);
    if (it == tables.end() || it->second.state != TableState::kActive) {
      return Status::InvalidArgument("cannot retire table '" + name +
                                     "': it is not active");
    }
    it->second.state = TableState::kRetired;
  }
  view_.Publish(std::move(next));
  return Status::OK();
}

void Catalog::UndoSwitch(const std::vector<TableSchema>& created,
                         const std::vector<std::string>& retired) {
  std::lock_guard lock(mu_);
  std::shared_ptr<CatalogView> next = CopyLocked();
  for (const TableSchema& schema : created) next->tables_.erase(schema.name());
  for (const std::string& name : retired) {
    auto it = next->tables_.find(name);
    if (it != next->tables_.end() && it->second.state == TableState::kRetired) {
      it->second.state = TableState::kActive;
    }
  }
  view_.Publish(std::move(next));
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

Status Catalog::DropTable(const std::string& name) {
  std::lock_guard lock(mu_);
  std::shared_ptr<CatalogView> next = CopyLocked();
  auto it = next->tables_.find(name);
  if (it == next->tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  it->second.state = TableState::kDropped;
  view_.Publish(std::move(next));
  return Status::OK();
}

}  // namespace bullfrog
