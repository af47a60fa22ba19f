#include "storage/btree.h"

#include <algorithm>
#include <cassert>

namespace bullfrog {

int BTree::CompareKeys(const Tuple& a, const Tuple& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

int BTree::CompareKeyRid(const Tuple& a, RowId arid, const Tuple& b,
                         RowId brid) {
  const int c = CompareKeys(a, b);
  if (c != 0) return c;
  if (arid < brid) return -1;
  if (arid > brid) return 1;
  return 0;
}

BTree::Node* BTree::FindLeaf(const Tuple& key, RowId rid) const {
  Node* node = root_.get();
  if (node == nullptr) return nullptr;
  while (!node->leaf) {
    size_t i = 0;
    while (i < node->separators.size() &&
           CompareKeyRid(key, rid, node->separators[i].key,
                         node->separators[i].rid) >= 0) {
      ++i;
    }
    node = node->children[i].get();
  }
  return node;
}

void BTree::SplitChild(Node* parent, size_t index) {
  Node* child = parent->children[index].get();
  auto right = std::make_unique<Node>();
  right->leaf = child->leaf;

  if (child->leaf) {
    const size_t mid = child->entries.size() / 2;
    right->entries.assign(
        std::make_move_iterator(child->entries.begin() + mid),
        std::make_move_iterator(child->entries.end()));
    child->entries.resize(mid);
    right->next_leaf = child->next_leaf;
    child->next_leaf = right.get();
    // Separator: a copy of the right leaf's first entry.
    Entry sep{right->entries.front().key, right->entries.front().rid};
    parent->separators.insert(parent->separators.begin() + index,
                              std::move(sep));
  } else {
    const size_t mid = child->separators.size() / 2;
    Entry sep = std::move(child->separators[mid]);
    right->separators.assign(
        std::make_move_iterator(child->separators.begin() + mid + 1),
        std::make_move_iterator(child->separators.end()));
    child->separators.resize(mid);
    right->children.assign(
        std::make_move_iterator(child->children.begin() + mid + 1),
        std::make_move_iterator(child->children.end()));
    child->children.resize(mid + 1);
    parent->separators.insert(parent->separators.begin() + index,
                              std::move(sep));
  }
  parent->children.insert(parent->children.begin() + index + 1,
                          std::move(right));
}

bool BTree::InsertNonFull(Node* node, Tuple& key, RowId rid) {
  if (node->leaf) {
    auto it = std::lower_bound(
        node->entries.begin(), node->entries.end(), 0,
        [&](const Entry& e, int) {
          return CompareKeyRid(e.key, e.rid, key, rid) < 0;
        });
    if (it != node->entries.end() &&
        CompareKeyRid(it->key, it->rid, key, rid) == 0) {
      return false;  // Duplicate (key, rid).
    }
    node->entries.insert(it, Entry{std::move(key), rid});
    return true;
  }
  size_t i = 0;
  while (i < node->separators.size() &&
         CompareKeyRid(key, rid, node->separators[i].key,
                       node->separators[i].rid) >= 0) {
    ++i;
  }
  Node* child = node->children[i].get();
  const size_t load =
      child->leaf ? child->entries.size() : child->separators.size();
  if (load >= kMaxKeys) {
    SplitChild(node, i);
    if (CompareKeyRid(key, rid, node->separators[i].key,
                      node->separators[i].rid) >= 0) {
      ++i;
    }
    child = node->children[i].get();
  }
  return InsertNonFull(child, key, rid);
}

bool BTree::Insert(Tuple key, RowId rid) {
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>();
  }
  const size_t root_load =
      root_->leaf ? root_->entries.size() : root_->separators.size();
  if (root_load >= kMaxKeys) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  const bool inserted = InsertNonFull(root_.get(), key, rid);
  if (inserted) ++size_;
  return inserted;
}

bool BTree::Erase(const Tuple& key, RowId rid) {
  Node* leaf = FindLeaf(key, rid);
  if (leaf == nullptr) return false;
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), 0,
      [&](const Entry& e, int) {
        return CompareKeyRid(e.key, e.rid, key, rid) < 0;
      });
  if (it == leaf->entries.end() ||
      CompareKeyRid(it->key, it->rid, key, rid) != 0) {
    return false;
  }
  leaf->entries.erase(it);
  --size_;
  // Lazy underflow: empty leaves are tolerated (they stay linked and are
  // skipped by scans). The tree stays correct; space is reclaimed when
  // the index is rebuilt.
  return true;
}

void BTree::Lookup(const Tuple& key, std::vector<RowId>* out) const {
  Range(key, key, [&](const Tuple& k, RowId rid) {
    if (CompareKeys(k, key) == 0) out->push_back(rid);
    return true;
  });
}

void BTree::Range(const Tuple& lo, const Tuple& hi,
                  const std::function<bool(const Tuple&, RowId)>& fn) const {
  if (root_ == nullptr) return;
  // Start at the first entry with key >= lo (rid 0 = smallest).
  Node* leaf = FindLeaf(lo, 0);
  while (leaf != nullptr) {
    for (const Entry& e : leaf->entries) {
      if (CompareKeys(e.key, lo) < 0) continue;
      // Prefix-inclusive upper bound: stop once the first min(|k|, |hi|)
      // cells exceed hi.
      bool greater = false;
      const size_t n = std::min(e.key.size(), hi.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = e.key[i].Compare(hi[i]);
        if (c > 0) {
          greater = true;
          break;
        }
        if (c < 0) break;
      }
      if (greater) return;
      if (!fn(e.key, e.rid)) return;
    }
    leaf = leaf->next_leaf;
  }
}

void BTree::ForEach(
    const std::function<bool(const Tuple&, RowId)>& fn) const {
  if (root_ == nullptr) return;
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.front().get();
  for (const Node* leaf = node; leaf != nullptr; leaf = leaf->next_leaf) {
    for (const Entry& e : leaf->entries) {
      if (!fn(e.key, e.rid)) return;
    }
  }
}

int BTree::height() const {
  if (root_ == nullptr) return 0;
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

bool BTree::CheckInvariants() const {
  if (root_ == nullptr) return true;
  // 1. Uniform leaf depth + fanout bounds + separator ordering.
  bool ok = true;
  int leaf_depth = -1;
  std::function<void(const Node*, int)> visit = [&](const Node* node,
                                                    int depth) {
    if (!ok) return;
    if (node->leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (leaf_depth != depth) ok = false;
      for (size_t i = 1; i < node->entries.size(); ++i) {
        if (CompareKeyRid(node->entries[i - 1].key, node->entries[i - 1].rid,
                          node->entries[i].key, node->entries[i].rid) >= 0) {
          ok = false;
        }
      }
      if (node->entries.size() > kMaxKeys) ok = false;
      return;
    }
    if (node->children.size() != node->separators.size() + 1) {
      ok = false;
      return;
    }
    if (node->separators.size() > kMaxKeys) ok = false;
    for (size_t i = 1; i < node->separators.size(); ++i) {
      if (CompareKeyRid(node->separators[i - 1].key,
                        node->separators[i - 1].rid, node->separators[i].key,
                        node->separators[i].rid) >= 0) {
        ok = false;
      }
    }
    for (const NodePtr& child : node->children) {
      visit(child.get(), depth + 1);
    }
  };
  visit(root_.get(), 0);
  if (!ok) return false;

  // 2. Leaf chain yields a globally sorted sequence with size() entries.
  size_t count = 0;
  bool has_prev = false;
  Tuple prev_key;
  RowId prev_rid = 0;
  bool sorted = true;
  ForEach([&](const Tuple& k, RowId rid) {
    if (has_prev && CompareKeyRid(prev_key, prev_rid, k, rid) >= 0) {
      sorted = false;
      return false;
    }
    prev_key = k;
    prev_rid = rid;
    has_prev = true;
    ++count;
    return true;
  });
  return sorted && count == size_;
}

}  // namespace bullfrog
