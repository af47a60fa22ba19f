#ifndef BULLFROG_QUERY_REWRITER_H_
#define BULLFROG_QUERY_REWRITER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/expr.h"

namespace bullfrog {

/// Records, for each output-table column of a migration statement, where
/// its value comes from in the old schema.
///
/// This is the information the original prototype recovered from
/// PostgreSQL's post-view-expansion query plan (§2.1): it is what lets
/// BullFrog convert filters over the *new* schema into filters over the
/// *old* tables so only potentially-relevant tuples are migrated.
///
/// A column may be a pass-through of one input column (possibly replicated
/// across several input tables, like a join key that exists on both
/// sides), or derived (an arbitrary expression such as
/// `capacity - passenger_count`), in which case predicates over it cannot
/// be pushed down and only widen the candidate set.
class ColumnProvenance {
 public:
  struct Source {
    std::string input_table;
    std::string input_column;
  };

  /// Declares `output_column` as a pass-through of
  /// `input_table.input_column`. May be called multiple times for the same
  /// output column (join keys present on both inputs).
  void AddPassThrough(const std::string& output_column,
                      std::string input_table, std::string input_column);

  /// Declares `output_column` as derived (not rewritable).
  void AddDerived(const std::string& output_column);

  /// All sources for an output column (empty if derived/unknown).
  const std::vector<Source>& SourcesOf(const std::string& output_column) const;

  /// The source of `output_column` within a specific input table, if any.
  std::optional<std::string> SourceIn(const std::string& output_column,
                                      const std::string& input_table) const;

 private:
  std::unordered_map<std::string, std::vector<Source>> map_;
};

/// The result of pushing a new-schema predicate down to the old schema:
/// one (possibly null) predicate per input table. A null predicate means
/// no conjunct could be pushed to that table — every tuple is potentially
/// relevant (§2.4 worst case). The produced predicates select a superset
/// of the tuples needed to answer the client request, never a subset.
struct RewrittenPredicates {
  std::unordered_map<std::string, ExprPtr> per_table;
  /// Number of conjuncts that could not be pushed to any input table.
  size_t dropped_conjuncts = 0;
};

/// Rewrites `pred` (over the output table's columns) into per-input-table
/// predicates using `prov`. `input_tables` lists the statement's input
/// tables; every one of them gets an entry in the result.
RewrittenPredicates RewritePredicate(const ExprPtr& pred,
                                     const ColumnProvenance& prov,
                                     const std::vector<std::string>&
                                         input_tables);

/// Rewrites a single expression for one input table: every column node is
/// replaced by its source column in `input_table`. Returns nullptr when
/// some referenced column has no pass-through source in that table.
ExprPtr RewriteExprForTable(const ExprPtr& e, const ColumnProvenance& prov,
                            const std::string& input_table);

}  // namespace bullfrog

#endif  // BULLFROG_QUERY_REWRITER_H_
