#include "storage/index.h"

#include <algorithm>

namespace bullfrog {

HashIndex::HashIndex(std::string name, std::vector<size_t> key_columns,
                     bool unique, size_t stripes)
    : Index(std::move(name), std::move(key_columns), unique),
      shards_(stripes) {}

Status HashIndex::Insert(Tuple key, RowId rid) {
  const uint64_t h = key.Hash();
  Shard& s = ShardFor(h);
  std::unique_lock lock(s.mu);
  auto it = s.map.find(Probe{&key, h});
  if (it == s.map.end()) {
    s.map.emplace(HashedKey{std::move(key), h}, Group{rid, {}});
  } else if (unique()) {
    if (it->second.first != rid) {
      return Status::AlreadyExists("duplicate key " + key.ToString() +
                                   " in unique index '" + name() + "'");
    }
    return Status::OK();  // Idempotent re-insert of the same entry.
  } else {
    it->second.rest.push_back(rid);
  }
  ++s.entries;
  return Status::OK();
}

Result<bool> HashIndex::TryReserve(Tuple key, RowId rid, RowId* existing) {
  if (!unique()) {
    return Status::Unsupported("TryReserve requires a unique index");
  }
  const uint64_t h = key.Hash();
  Shard& s = ShardFor(h);
  std::unique_lock lock(s.mu);
  auto it = s.map.find(Probe{&key, h});
  if (it != s.map.end()) {
    if (existing != nullptr) *existing = it->second.first;
    return false;
  }
  s.map.emplace(HashedKey{std::move(key), h}, Group{rid, {}});
  ++s.entries;
  return true;
}

void HashIndex::Erase(const Tuple& key, RowId rid) {
  const uint64_t h = key.Hash();
  Shard& s = ShardFor(h);
  std::unique_lock lock(s.mu);
  auto it = s.map.find(Probe{&key, h});
  if (it == s.map.end()) return;
  Group& g = it->second;
  if (g.first == rid) {
    if (g.rest.empty()) {
      s.map.erase(it);
    } else {
      g.first = g.rest.front();
      g.rest.erase(g.rest.begin());
    }
  } else {
    auto pos = std::find(g.rest.begin(), g.rest.end(), rid);
    if (pos == g.rest.end()) return;
    g.rest.erase(pos);
  }
  --s.entries;
}

void HashIndex::Lookup(const Tuple& key, std::vector<RowId>* out) const {
  const uint64_t h = key.Hash();
  const Shard& s = ShardFor(h);
  std::shared_lock lock(s.mu);
  auto it = s.map.find(Probe{&key, h});
  if (it == s.map.end()) return;
  out->push_back(it->second.first);
  out->insert(out->end(), it->second.rest.begin(), it->second.rest.end());
}

Status HashIndex::RangeScan(
    const Tuple&, const Tuple&,
    const std::function<bool(const Tuple&, RowId)>&) const {
  return Status::Unsupported("range scan on hash index '" + name() + "'");
}

size_t HashIndex::size() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    std::shared_lock lock(s.mu);
    total += s.entries;
  }
  return total;
}

OrderedIndex::OrderedIndex(std::string name, std::vector<size_t> key_columns,
                           bool unique)
    : Index(std::move(name), std::move(key_columns), unique) {}

Status OrderedIndex::Insert(Tuple key, RowId rid) {
  std::unique_lock lock(mu_);
  if (unique()) {
    std::vector<RowId> existing;
    tree_.Lookup(key, &existing);
    if (!existing.empty()) {
      if (existing.size() == 1 && existing[0] == rid) {
        return Status::OK();  // Idempotent re-insert of the same entry.
      }
      return Status::AlreadyExists("duplicate key " + key.ToString() +
                                   " in unique index '" + name() + "'");
    }
  }
  tree_.Insert(std::move(key), rid);
  return Status::OK();
}

Result<bool> OrderedIndex::TryReserve(Tuple key, RowId rid,
                                      RowId* existing) {
  if (!unique()) {
    return Status::Unsupported("TryReserve requires a unique index");
  }
  std::unique_lock lock(mu_);
  std::vector<RowId> found;
  tree_.Lookup(key, &found);
  if (!found.empty()) {
    if (existing != nullptr) *existing = found[0];
    return false;
  }
  tree_.Insert(std::move(key), rid);
  return true;
}

void OrderedIndex::Erase(const Tuple& key, RowId rid) {
  std::unique_lock lock(mu_);
  tree_.Erase(key, rid);
}

void OrderedIndex::Lookup(const Tuple& key, std::vector<RowId>* out) const {
  std::shared_lock lock(mu_);
  tree_.Lookup(key, out);
}

Status OrderedIndex::RangeScan(
    const Tuple& lo, const Tuple& hi,
    const std::function<bool(const Tuple&, RowId)>& fn) const {
  std::shared_lock lock(mu_);
  tree_.Range(lo, hi, fn);
  return Status::OK();
}

size_t OrderedIndex::size() const {
  std::shared_lock lock(mu_);
  return tree_.size();
}

}  // namespace bullfrog
