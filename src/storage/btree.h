#ifndef BULLFROG_STORAGE_BTREE_H_
#define BULLFROG_STORAGE_BTREE_H_

#include <functional>
#include <memory>
#include <vector>

#include "storage/tuple.h"

namespace bullfrog {

/// An in-memory B+-tree multimap from Tuple keys to RowIds, the storage
/// structure behind OrderedIndex.
///
/// - Duplicate keys are supported; entries are made unique by ordering on
///   (key, rid).
/// - Leaves are linked left-to-right, so range scans stream in key order.
/// - NOT internally synchronized: OrderedIndex wraps it in a
///   reader-writer latch (range scans need a stable view anyway).
///
/// Keys compare cell-wise with prefix semantics: a shorter tuple sorts
/// before any of its extensions, which is what makes prefix range probes
/// (lo = hi = the prefix) work.
class BTree {
 public:
  BTree() = default;
  ~BTree() = default;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts (key, rid), moving the key into the tree. Duplicate
  /// (key, rid) pairs are ignored. Returns true if inserted.
  bool Insert(Tuple key, RowId rid);

  /// Removes (key, rid) if present. Returns true if removed.
  /// Deletion uses lazy underflow handling (entries are removed; nodes
  /// are freed only when fully empty) — simple and sufficient for an
  /// index whose table tombstones rows rather than compacting.
  bool Erase(const Tuple& key, RowId rid);

  /// Appends every rid whose key equals `key` (exactly) to *out.
  void Lookup(const Tuple& key, std::vector<RowId>* out) const;

  /// Invokes fn(key, rid) for every entry whose key is >= lo and whose
  /// prefix does not exceed hi (inclusive, prefix semantics — see
  /// OrderedIndex::RangeScan). Stops early if fn returns false.
  void Range(const Tuple& lo, const Tuple& hi,
             const std::function<bool(const Tuple&, RowId)>& fn) const;

  /// Full in-order traversal.
  void ForEach(const std::function<bool(const Tuple&, RowId)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height (0 for an empty tree); exposed for tests.
  int height() const;

  /// Validates the B+-tree invariants (ordering, fanout bounds, uniform
  /// leaf depth, linked-leaf order); exposed for tests. Returns false and
  /// stops at the first violation.
  bool CheckInvariants() const;

 private:
  // Fanout chosen small enough that tests exercise splits heavily and
  // large enough to keep the tree shallow for real tables.
  static constexpr int kMaxKeys = 32;

  struct Node;
  using NodePtr = std::unique_ptr<Node>;

  struct Entry {
    Tuple key;
    RowId rid;
  };

  struct Node {
    bool leaf = true;
    // Leaves: entries.size() in [1, kMaxKeys] (root may be empty).
    std::vector<Entry> entries;
    // Internal: children.size() == separators.size() + 1; separator[i] is
    // the smallest (key, rid) in children[i + 1]'s subtree.
    std::vector<Entry> separators;
    std::vector<NodePtr> children;
    Node* next_leaf = nullptr;  // Leaf chain.
  };

  /// Total order on (key, rid) with cell-wise prefix key comparison.
  static int CompareKeyRid(const Tuple& a, RowId arid, const Tuple& b,
                           RowId brid);
  /// Key-only comparison (prefix semantics).
  static int CompareKeys(const Tuple& a, const Tuple& b);

  /// Descends to the leaf that would contain (key, rid).
  Node* FindLeaf(const Tuple& key, RowId rid) const;

  /// Splits `child` (children_[index] of `parent`), hoisting a separator.
  void SplitChild(Node* parent, size_t index);

  /// Inserts into a non-full subtree rooted at `node`; moves from `key`
  /// only if it inserts.
  bool InsertNonFull(Node* node, Tuple& key, RowId rid);

  NodePtr root_;
  size_t size_ = 0;
};

}  // namespace bullfrog

#endif  // BULLFROG_STORAGE_BTREE_H_
