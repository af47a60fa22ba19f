#ifndef BULLFROG_STORAGE_INDEX_H_
#define BULLFROG_STORAGE_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
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

/// Hash index partitioned into `stripes` shards, each guarded by its own
/// latch. A shard maps each distinct key to its group of rids, in insertion
/// order; the first rid lives inline, so a unique (or single-rid) key costs
/// one map node and no further allocation. One hash computation per call
/// picks the shard and the bucket.
class HashIndex : public Index {
 public:
  HashIndex(std::string name, std::vector<size_t> key_columns, bool unique,
            size_t stripes = 64);

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
  /// A stored key with its hash, so rehashing never recomputes it.
  struct HashedKey {
    Tuple key;
    uint64_t hash;
  };
  /// Heterogeneous probe: looks a key up without copying it.
  struct Probe {
    const Tuple* key;
    uint64_t hash;
  };
  // noexcept + cheap: the map need not cache a second copy of the hash.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const HashedKey& k) const noexcept { return k.hash; }
    size_t operator()(const Probe& p) const noexcept { return p.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.hash == b.hash && a.key == b.key;
    }
    bool operator()(const Probe& a, const HashedKey& b) const {
      return a.hash == b.hash && *a.key == b.key;
    }
    bool operator()(const HashedKey& a, const Probe& b) const {
      return a.hash == b.hash && a.key == *b.key;
    }
  };
  /// The rids of one key: `first` inline, any further ones in `rest`.
  struct Group {
    RowId first;
    std::vector<RowId> rest;
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<HashedKey, Group, KeyHash, KeyEq> map;
    size_t entries = 0;  // (key, rid) pairs, for size().
  };

  Shard& ShardFor(uint64_t hash) { return shards_[hash % shards_.size()]; }
  const Shard& ShardFor(uint64_t hash) const {
    return shards_[hash % shards_.size()];
  }

  std::vector<Shard> shards_;
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
