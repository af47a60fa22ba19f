#ifndef BULLFROG_STORAGE_INDEX_H_
#define BULLFROG_STORAGE_INDEX_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Physical kind of a secondary index.
enum class IndexKind : uint8_t {
  kHash,     ///< Equality lookups only.
  kOrdered,  ///< Equality + range lookups (B+-tree based).
};

/// A secondary index mapping a key (sub-tuple of the row) to RowIds.
///
/// Thread safety: all operations are internally synchronized. Hash indexes
/// are partitioned with per-partition latches; ordered indexes use a single
/// reader-writer latch (range scans need a consistent view).
///
/// Latch order: RangeScan runs its callback under the index's shared
/// latch, and the callback may take a table slot latch (Table::Read). The
/// reverse never happens — no code path takes an index latch while holding
/// a slot latch — so the nesting cannot deadlock.
///
/// Unique indexes support TryReserve — an atomic check-and-insert which is
/// the building block for both plain INSERT (reserve or fail) and the
/// paper's §3.7 ON CONFLICT DO NOTHING duplicate-migration detection
/// (reserve or silently skip).
class Index {
 public:
  Index(std::string name, std::vector<size_t> key_columns, bool unique)
      : name_(std::move(name)),
        key_columns_(std::move(key_columns)),
        unique_(unique) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  bool unique() const { return unique_; }
  virtual IndexKind kind() const = 0;

  /// Extracts this index's key from a full row.
  Tuple KeyFor(const Tuple& row) const {
    Tuple key;
    key.reserve(key_columns_.size());
    for (size_t c : key_columns_) key.push_back(row[c]);
    return key;
  }

  /// True if rows `a` and `b` agree on every key column (compared in
  /// place, no key tuples built).
  bool SameKey(const Tuple& a, const Tuple& b) const {
    for (size_t c : key_columns_) {
      if (a[c] != b[c]) return false;
    }
    return true;
  }

  /// Inserts an entry; the key is taken by value so a fresh key (KeyFor)
  /// moves into the index. For unique indexes, fails with AlreadyExists
  /// when a different RowId already holds the key.
  virtual Status Insert(Tuple key, RowId rid) = 0;

  /// Atomically inserts if the key is absent. Returns true if inserted,
  /// false if an entry already existed (existing rid in *existing if
  /// non-null). Only meaningful for unique indexes.
  virtual Result<bool> TryReserve(Tuple key, RowId rid, RowId* existing) = 0;

  /// Removes the (key, rid) entry if present.
  virtual void Erase(const Tuple& key, RowId rid) = 0;

  /// Appends all RowIds with exactly this key to *out.
  virtual void Lookup(const Tuple& key, std::vector<RowId>* out) const = 0;

  /// Invokes fn(key, rid) for each entry with key in [lo, hi] (inclusive,
  /// prefix semantics — see BTree) in ascending (key, rid) order, stopping
  /// as soon as fn returns false. fn runs under the index's shared latch:
  /// it may read table rows but must not touch any index. Only supported
  /// by ordered indexes; hash indexes return Unsupported.
  virtual Status RangeScan(
      const Tuple& lo, const Tuple& hi,
      const std::function<bool(const Tuple&, RowId)>& fn) const = 0;

  /// Number of (key, rid) entries (approximate under concurrency).
  virtual size_t size() const = 0;

 private:
  std::string name_;
  std::vector<size_t> key_columns_;
  bool unique_;
};

/// Hash index partitioned into kStripes stripes, each guarded by its own
/// latch. A stripe is a flat open-addressing table (linear probing, power-
/// of-two size, at most 3/4 full). Each slot stores its key's hash, so a
/// probe compares keys only on a full-hash match and growth never rehashes
/// a key; erase shifts later slots back, so there are no tombstones. A
/// slot holds its key's rids in insertion order: the first inline, any
/// further ones in `rest`, so a unique (or single-rid) key allocates
/// nothing beyond its key.
class HashIndex : public Index {
 public:
  HashIndex(std::string name, std::vector<size_t> key_columns, bool unique);

  IndexKind kind() const override { return IndexKind::kHash; }

  Status Insert(Tuple key, RowId rid) override;
  Result<bool> TryReserve(Tuple key, RowId rid, RowId* existing) override;
  void Erase(const Tuple& key, RowId rid) override;
  void Lookup(const Tuple& key, std::vector<RowId>* out) const override;
  Status RangeScan(
      const Tuple& lo, const Tuple& hi,
      const std::function<bool(const Tuple&, RowId)>& fn) const override;
  size_t size() const override;

 private:
  /// The low hash bits pick the stripe; the bits above them the home slot.
  static constexpr unsigned kStripeBits = 6;
  static constexpr size_t kStripes = size_t{1} << kStripeBits;
  /// Key hashes are stored with this bit set, so a 0 hash marks a free slot.
  static constexpr uint64_t kUsedBit = uint64_t{1} << 63;

  struct Slot {
    uint64_t hash = 0;  // Tagged key hash; 0 = free.
    RowId first = kInvalidRowId;
    Tuple key;
    std::vector<RowId> rest;
  };

  struct Stripe {
    mutable std::shared_mutex mu;
    std::vector<Slot> slots;  // Empty, or a power-of-two count.
    size_t keys = 0;          // Occupied slots.
    size_t entries = 0;       // (key, rid) pairs, for size().

    /// Index of the slot holding `key`, or of the free slot ending its
    /// probe sequence. Requires a non-empty table.
    size_t Find(uint64_t hash, const Tuple& key) const;
    /// The key's slot if present, else nullptr.
    const Slot* Get(uint64_t hash, const Tuple& key) const;
    Slot* Get(uint64_t hash, const Tuple& key) {
      return const_cast<Slot*>(std::as_const(*this).Get(hash, key));
    }
    /// Adds an absent key with its first rid, growing first if the new
    /// key would take the table past 3/4 full.
    void Add(uint64_t hash, Tuple key, RowId rid);
    /// Frees slot i and shifts later members of its cluster back over it.
    void Remove(size_t i);
  };

  static uint64_t HashOf(const Tuple& key) { return key.Hash() | kUsedBit; }
  Stripe& StripeFor(uint64_t hash) {
    return stripes_[hash & (kStripes - 1)];
  }
  const Stripe& StripeFor(uint64_t hash) const {
    return stripes_[hash & (kStripes - 1)];
  }

  std::array<Stripe, kStripes> stripes_;
};

/// Ordered index backed by a B+-tree (storage/btree.h) under one
/// reader-writer latch (range scans need a stable view).
class OrderedIndex : public Index {
 public:
  OrderedIndex(std::string name, std::vector<size_t> key_columns, bool unique);

  IndexKind kind() const override { return IndexKind::kOrdered; }

  Status Insert(Tuple key, RowId rid) override;
  Result<bool> TryReserve(Tuple key, RowId rid, RowId* existing) override;
  void Erase(const Tuple& key, RowId rid) override;
  void Lookup(const Tuple& key, std::vector<RowId>* out) const override;
  Status RangeScan(
      const Tuple& lo, const Tuple& hi,
      const std::function<bool(const Tuple&, RowId)>& fn) const override;
  size_t size() const override;

 private:
  mutable std::shared_mutex mu_;
  BTree tree_;
};

}  // namespace bullfrog

#endif  // BULLFROG_STORAGE_INDEX_H_
