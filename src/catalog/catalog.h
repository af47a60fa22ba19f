#ifndef BULLFROG_CATALOG_CATALOG_H_
#define BULLFROG_CATALOG_CATALOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/published.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/table.h"

namespace bullfrog {

/// Lifecycle state of a table in the catalog.
///
/// The logical old->new switch at the heart of BullFrog (§2.1) is a pure
/// catalog operation: when a non-backwards-compatible ("big flip")
/// migration is submitted, input tables move to kRetired — client requests
/// against them are rejected, but migration workers may still read them —
/// and the new tables become kActive immediately, before any data moves.
enum class TableState : uint8_t {
  kActive,   ///< Part of the current schema; client requests allowed.
  kRetired,  ///< Old-schema table during/after a big-flip migration.
  kDropped,  ///< Fully migrated and logically deleted.
};

std::string_view TableStateName(TableState s);

/// An immutable snapshot of the catalog: every table name with its table
/// and lifecycle state. Catalog publishes a new view on every change; a
/// holder keeps using its view (and the tables it owns) however the
/// catalog moves on, so a session resolving names against an older view
/// never touches a table a later drop-and-re-create freed.
class CatalogView {
 public:
  struct Entry {
    std::shared_ptr<Table> table;
    TableState state = TableState::kActive;
  };

  /// The entry for `name` in any state, or nullptr.
  const Entry* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : &it->second;
  }
  /// The table regardless of state, or nullptr.
  Table* FindTable(const std::string& name) const {
    const Entry* e = Find(name);
    return e == nullptr ? nullptr : e->table.get();
  }
  /// The table only if it is in the expected state; otherwise a
  /// descriptive error. Client request paths use RequireActive, migration
  /// workers use RequireReadable (kActive or kRetired).
  Result<Table*> RequireActive(const std::string& name) const;
  Result<Table*> RequireReadable(const std::string& name) const;
  /// kDropped for unknown names.
  TableState GetState(const std::string& name) const {
    const Entry* e = Find(name);
    return e == nullptr ? TableState::kDropped : e->state;
  }
  const std::unordered_map<std::string, Entry>& entries() const {
    return tables_;
  }

 private:
  friend class Catalog;
  std::unordered_map<std::string, Entry> tables_;
};

/// The catalog: named tables and their lifecycle states. Thread-safe:
/// every change publishes a new CatalogView; lookups resolve against the
/// current view without a lock.
class Catalog {
 public:
  using ViewRef = Published<CatalogView>::Ref;

  Catalog() : view_(std::make_shared<CatalogView>()) {}
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// The current view. Sessions hold one and Refresh it per statement.
  ViewRef view() const { return view_.Load(); }
  /// Replaces *held with the current view if the catalog changed since.
  void Refresh(ViewRef* held) const { view_.Refresh(held); }

  /// Creates an empty kActive table under the given schema.
  Result<Table*> CreateTable(TableSchema schema);

  /// The atomic schema switch (§2.1). Under mu_: checks that no name in
  /// `create` is taken, builds those tables and `indexes` (which must be
  /// on them) privately, checks that every `retire` table is kActive, then
  /// publishes one view in which the created tables are kActive and the
  /// retired ones kRetired. On any failure nothing is published.
  Status Switch(const std::vector<TableSchema>& create,
                const std::vector<IndexSpec>& indexes,
                const std::vector<std::string>& retire);
  /// Undoes a successful Switch(created, ..., retired) in one publish: the
  /// created tables leave the catalog, so their names are free again, and
  /// the retired ones are kActive again.
  void UndoSwitch(const std::vector<TableSchema>& created,
                  const std::vector<std::string>& retired);

  /// Lookups against the current view (see CatalogView).
  Table* FindTable(const std::string& name) const {
    return view()->FindTable(name);
  }
  Result<Table*> RequireActive(const std::string& name) const {
    return view()->RequireActive(name);
  }
  Result<Table*> RequireReadable(const std::string& name) const {
    return view()->RequireReadable(name);
  }
  TableState GetState(const std::string& name) const {
    return view()->GetState(name);
  }

  /// Moves a retired table to kDropped (migration complete, §2.2: "the old
  /// schema can be deleted"). The storage is retained (we do not reclaim)
  /// but no further access is permitted.
  Status DropTable(const std::string& name);

  /// Wires every future table's version reclamation to the snapshot
  /// manager (Table::SetSnapshots). Call before creating tables.
  void SetSnapshots(const mvcc::SnapshotManager* snapshots) {
    std::lock_guard lock(mu_);
    snapshots_ = snapshots;
  }

 private:
  /// Copies the current view for a change (caller holds mu_).
  std::shared_ptr<CatalogView> CopyLocked() const {
    return std::make_shared<CatalogView>(*view_.Load());
  }
  /// Switch's body (caller holds mu_).
  Status SwitchLocked(const std::vector<TableSchema>& create,
                      const std::vector<IndexSpec>& indexes,
                      const std::vector<std::string>& retire);

  std::mutex mu_;  // Serializes writers (copy, change, publish).
  Published<CatalogView> view_;
  const mvcc::SnapshotManager* snapshots_ = nullptr;  // Under mu_.
};

}  // namespace bullfrog

#endif  // BULLFROG_CATALOG_CATALOG_H_
