#ifndef BULLFROG_CATALOG_SCHEMA_H_
#define BULLFROG_CATALOG_SCHEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace bullfrog {

/// A column definition.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt64;
  bool nullable = true;
};

/// A FOREIGN KEY declaration: `columns` of this table must match the
/// `parent_columns` (a unique/PK key) of `parent_table`.
struct ForeignKey {
  std::string name;
  std::vector<std::string> columns;
  std::string parent_table;
  std::vector<std::string> parent_columns;
};

/// A UNIQUE constraint over one or more columns (the primary key is stored
/// separately but behaves like one of these).
struct UniqueConstraint {
  std::string name;
  std::vector<std::string> columns;
};

/// Logical description of one table: columns + declared constraints.
///
/// The schema does not enforce anything by itself — enforcement lives in
/// Table (unique via indexes) and in the constraint checker. Per §2.3, a
/// migration must re-declare any constraints wanted on the new schema; the
/// catalog never copies them implicitly.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string name, std::vector<Column> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Returns the positional index of `name`, or nullopt.
  std::optional<size_t> ColumnIndex(const std::string& name) const;

  /// Returns the positional index of `name` or an InvalidArgument error
  /// naming the table — convenience for planner code.
  Result<size_t> RequireColumn(const std::string& name) const;

  /// Primary key column names (possibly empty = no PK).
  const std::vector<std::string>& primary_key() const { return primary_key_; }
  void set_primary_key(std::vector<std::string> cols) {
    primary_key_ = std::move(cols);
  }
  /// Positional indices of the PK columns.
  std::vector<size_t> PrimaryKeyIndices() const;

  const std::vector<UniqueConstraint>& unique_constraints() const {
    return uniques_;
  }
  void AddUnique(UniqueConstraint u) { uniques_.push_back(std::move(u)); }

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }
  void AddForeignKey(ForeignKey fk) { foreign_keys_.push_back(std::move(fk)); }

  /// Validates that `t` positionally matches this schema (arity, types,
  /// null-ability). NULL is accepted for nullable columns of any type.
  Status ValidateTuple(const Tuple& t) const;

  /// Extracts the sub-tuple for the named columns (e.g. a key).
  Result<Tuple> Project(const Tuple& t,
                        const std::vector<std::string>& cols) const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::string> primary_key_;
  std::vector<UniqueConstraint> uniques_;
  std::vector<ForeignKey> foreign_keys_;
};

/// Fluent builder used by DDL call-sites and tests.
class SchemaBuilder {
 public:
  explicit SchemaBuilder(std::string table_name) {
    schema_.set_name(std::move(table_name));
  }

  SchemaBuilder& AddColumn(std::string name, ValueType type,
                           bool nullable = true) {
    cols_.push_back(Column{std::move(name), type, nullable});
    return *this;
  }

  SchemaBuilder& SetPrimaryKey(std::vector<std::string> cols) {
    schema_.set_primary_key(std::move(cols));
    return *this;
  }

  SchemaBuilder& AddUnique(std::string name, std::vector<std::string> cols) {
    schema_.AddUnique(UniqueConstraint{std::move(name), std::move(cols)});
    return *this;
  }

  SchemaBuilder& AddForeignKey(std::string name,
                               std::vector<std::string> cols,
                               std::string parent,
                               std::vector<std::string> parent_cols) {
    schema_.AddForeignKey(ForeignKey{std::move(name), std::move(cols),
                                     std::move(parent),
                                     std::move(parent_cols)});
    return *this;
  }

  TableSchema Build() {
    TableSchema out = schema_;
    out = TableSchema(schema_.name(), cols_);
    out.set_primary_key(schema_.primary_key());
    for (const auto& u : schema_.unique_constraints()) out.AddUnique(u);
    for (const auto& fk : schema_.foreign_keys()) out.AddForeignKey(fk);
    return out;
  }

 private:
  TableSchema schema_;
  std::vector<Column> cols_;
};

/// DDL for a secondary index on a table (PK/unique indexes are implied by
/// the table's schema).
struct IndexSpec {
  std::string table;
  std::string index_name;
  std::vector<std::string> columns;
  bool unique = false;
  bool ordered = false;
};

}  // namespace bullfrog

#endif  // BULLFROG_CATALOG_SCHEMA_H_
