#ifndef BULLFROG_MIGRATION_SPEC_H_
#define BULLFROG_MIGRATION_SPEC_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/status.h"
#include "query/rewriter.h"
#include "storage/tuple.h"

namespace bullfrog {

/// §3.1 — the four migration categories. They determine which tracking
/// data structure is used: bitmap for 1:1/1:n ("bitmap migrations"),
/// hashmap for n:1/n:n ("hashmap migrations").
enum class MigrationCategory : uint8_t {
  kOneToOne,    ///< e.g. add/drop column, type change, FK side of FK-PK join.
  kOneToMany,   ///< e.g. table split, PK side of FK-PK join.
  kManyToOne,   ///< e.g. GROUP BY aggregation.
  kManyToMany,  ///< e.g. general many-to-many join.
};

std::string_view MigrationCategoryName(MigrationCategory c);

/// §3.6 — tracking policy options for join migrations.
enum class JoinPolicy : uint8_t {
  /// Option 1: migrating a PKIT tuple immediately migrates all FKIT tuples
  /// with that key. Tracked on the PKIT (bitmap); FKIT untracked.
  kMigrateAllSiblings,
  /// Option 2: track only the FKIT (bitmap); PKIT tuples are read as
  /// needed, never tracked (inner-join semantics make concurrent reads of
  /// the same PKIT tuple harmless).
  kTrackForeignSideOnly,
  /// Option 3: track join-key equivalence classes in a hashmap — the
  /// general n:n scheme.
  kHashJoinKey,
};

/// A row destined for one of a statement's output tables.
struct TargetRow {
  size_t output_index = 0;  ///< Index into MigrationStatement::output_tables.
  Tuple row;
};

/// One migration statement: input table(s) -> output table(s) with a
/// transform. A schema migration (MigrationPlan) is one or more of these;
/// when the same input table appears in several statements, each statement
/// gets its own tracker (§3.1).
///
/// Exactly one of the transform families is populated, matching
/// `category`:
///  - row_transform         for kOneToOne / kOneToMany (bitmap),
///  - group_* fields        for kManyToOne (hashmap over GROUP BY keys),
///  - join_* fields         for joins (bitmap or hashmap per JoinPolicy).
struct MigrationStatement {
  std::string name;
  MigrationCategory category = MigrationCategory::kOneToOne;

  /// Input tables in the old schema. One entry, except joins (two).
  std::vector<std::string> input_tables;
  /// Output tables in the new schema (already created by the plan).
  std::vector<std::string> output_tables;

  /// Where each output column's value comes from — drives §2.1 predicate
  /// pushdown from the new schema to the old tables.
  ColumnProvenance provenance;

  /// ---- bitmap transforms (1:1 / 1:n) --------------------------------
  /// Maps one input row to zero or more output rows. Zero rows = filtered
  /// out (e.g. a constraint that makes the output a subset).
  using RowTransform =
      std::function<Result<std::vector<TargetRow>>(const Tuple& in)>;
  RowTransform row_transform;

  /// ---- aggregate transforms (n:1) ------------------------------------
  /// GROUP BY columns (names in input_tables[0]).
  std::vector<std::string> group_key_columns;
  /// Maps a full group (key + all member rows) to output rows.
  using GroupTransform = std::function<Result<std::vector<TargetRow>>(
      const Tuple& group_key, const std::vector<Tuple>& rows)>;
  GroupTransform group_transform;

  /// ---- join transforms ------------------------------------------------
  /// Join columns: input_tables[0] is the FKIT/left side,
  /// input_tables[1] the PKIT/right side.
  std::string left_join_column;
  std::string right_join_column;
  JoinPolicy join_policy = JoinPolicy::kHashJoinKey;
  /// Maps one joined pair to output rows.
  using JoinTransform = std::function<Result<std::vector<TargetRow>>(
      const Tuple& left, const Tuple& right)>;
  JoinTransform join_transform;

  bool IsJoin() const { return join_transform != nullptr; }
  bool IsAggregate() const { return group_transform != nullptr; }
  /// Plain projection statement driven by a bitmap (1:1 / 1:n).
  bool IsProjection() const { return row_transform != nullptr; }
};

/// A complete schema migration: new-table DDL plus the statements that
/// populate them. Submitted to the MigrationController in a single step
/// (§2.1): the logical switch is immediate; physical movement is lazy.
struct MigrationPlan {
  std::string name;
  /// Schemas of the tables to create in the new schema.
  std::vector<TableSchema> new_tables;
  /// Secondary indexes to create on the new tables (PK/unique indexes are
  /// implied by the schemas).
  std::vector<IndexSpec> new_indexes;
  /// Old-schema tables to retire at submit time (big flip). Usually the
  /// union of the statements' input tables; listed explicitly because a
  /// backwards-compatible migration may keep some inputs active.
  std::vector<std::string> retire_tables;
  std::vector<MigrationStatement> statements;
  /// The SQL migration script this plan was compiled from, when it came in
  /// through SqlEngine::SubmitMigrationScript. Transforms are opaque
  /// std::functions, so replication ships this script and recompiles it on
  /// the replica; programmatic (script-less) plans are not replicated.
  std::string source_script;
};

}  // namespace bullfrog

#endif  // BULLFROG_MIGRATION_SPEC_H_
