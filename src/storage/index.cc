#include "storage/index.h"

#include <algorithm>

namespace bullfrog {
namespace {

/// Slots a stripe allocates on its first insert.
constexpr size_t kInitialSlots = 8;

}  // namespace

HashIndex::HashIndex(std::string name, std::vector<size_t> key_columns,
                     bool unique)
    : Index(std::move(name), std::move(key_columns), unique) {}

size_t HashIndex::Stripe::Find(uint64_t hash, const Tuple& key) const {
  const size_t mask = slots.size() - 1;
  for (size_t i = (hash >> kStripeBits) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (s.hash == 0 || (s.hash == hash && s.key == key)) return i;
  }
}

const HashIndex::Slot* HashIndex::Stripe::Get(uint64_t hash,
                                              const Tuple& key) const {
  if (slots.empty()) return nullptr;
  const Slot& s = slots[Find(hash, key)];
  return s.hash == 0 ? nullptr : &s;
}

void HashIndex::Stripe::Add(uint64_t hash, Tuple key, RowId rid) {
  if (4 * (keys + 1) > 3 * slots.size()) {
    std::vector<Slot> old = std::move(slots);
    slots = std::vector<Slot>(std::max(kInitialSlots, 2 * old.size()));
    const size_t mask = slots.size() - 1;
    for (Slot& s : old) {
      if (s.hash == 0) continue;
      size_t i = (s.hash >> kStripeBits) & mask;
      while (slots[i].hash != 0) i = (i + 1) & mask;
      slots[i] = std::move(s);
    }
  }
  Slot& s = slots[Find(hash, key)];
  s.hash = hash;
  s.first = rid;
  s.key = std::move(key);
  ++keys;
  ++entries;
}

void HashIndex::Stripe::Remove(size_t i) {
  const size_t mask = slots.size() - 1;
  for (size_t j = (i + 1) & mask; slots[j].hash != 0; j = (j + 1) & mask) {
    // Slot j may fill the hole at i only if i lies on its probe path,
    // i.e. its home is no closer to j than i is.
    const size_t home = (slots[j].hash >> kStripeBits) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots[i] = std::move(slots[j]);
      i = j;
    }
  }
  slots[i] = Slot{};
  --keys;
}

Status HashIndex::Insert(Tuple key, RowId rid) {
  const uint64_t h = HashOf(key);
  Stripe& s = StripeFor(h);
  std::unique_lock lock(s.mu);
  Slot* slot = s.Get(h, key);
  if (slot == nullptr) {
    s.Add(h, std::move(key), rid);
    return Status::OK();
  }
  if (unique()) {
    if (slot->first != rid) {
      return Status::AlreadyExists("duplicate key " + key.ToString() +
                                   " in unique index '" + name() + "'");
    }
    return Status::OK();  // Idempotent re-insert of the same entry.
  }
  slot->rest.push_back(rid);
  ++s.entries;
  return Status::OK();
}

Result<bool> HashIndex::TryReserve(Tuple key, RowId rid, RowId* existing) {
  if (!unique()) {
    return Status::Unsupported("TryReserve requires a unique index");
  }
  const uint64_t h = HashOf(key);
  Stripe& s = StripeFor(h);
  std::unique_lock lock(s.mu);
  if (const Slot* slot = s.Get(h, key)) {
    if (existing != nullptr) *existing = slot->first;
    return false;
  }
  s.Add(h, std::move(key), rid);
  return true;
}

void HashIndex::Erase(const Tuple& key, RowId rid) {
  const uint64_t h = HashOf(key);
  Stripe& s = StripeFor(h);
  std::unique_lock lock(s.mu);
  Slot* slot = s.Get(h, key);
  if (slot == nullptr) return;
  if (slot->first == rid) {
    if (slot->rest.empty()) {
      s.Remove(slot - s.slots.data());
    } else {
      slot->first = slot->rest.front();
      slot->rest.erase(slot->rest.begin());
    }
  } else {
    auto pos = std::find(slot->rest.begin(), slot->rest.end(), rid);
    if (pos == slot->rest.end()) return;
    slot->rest.erase(pos);
  }
  --s.entries;
}

void HashIndex::Lookup(const Tuple& key, std::vector<RowId>* out) const {
  const uint64_t h = HashOf(key);
  const Stripe& s = StripeFor(h);
  std::shared_lock lock(s.mu);
  const Slot* slot = s.Get(h, key);
  if (slot == nullptr) return;
  out->push_back(slot->first);
  out->insert(out->end(), slot->rest.begin(), slot->rest.end());
}

Status HashIndex::RangeScan(
    const Tuple&, const Tuple&,
    const std::function<bool(const Tuple&, RowId)>&) const {
  return Status::Unsupported("range scan on hash index '" + name() + "'");
}

size_t HashIndex::size() const {
  size_t total = 0;
  for (const Stripe& s : stripes_) {
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
