// Bounded key-value store with LRU eviction.
//
// The same store logic backs the software memcached model and both levels
// of LaKe's layered cache, so shifting a workload between host and network
// preserves semantics (a requirement of on-demand shifting, §9).
//
// Flat layout: the LRU list is linked by index through one vector of
// entries, and the key index is an open-addressing table (linear probing,
// backward-shift deletion) of entry indices. Both grow with size(), never
// with the capacity bound — memcached's 4M and LaKe L2's 33M entries are
// ceilings, not allocations — and a steady-state Get or Set allocates
// nothing.
#ifndef INCOD_SRC_KVS_KV_STORE_H_
#define INCOD_SRC_KVS_KV_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/stats/counters.h"

namespace incod {

class KvStore {
 public:
  // capacity_entries: maximum number of resident keys (0 is invalid).
  explicit KvStore(size_t capacity_entries);

  // Returns true and writes the stored value size on hit; promotes the entry
  // to most-recently-used.
  bool Get(uint64_t key, uint32_t* value_bytes);

  // Inserts or updates; evicts the least-recently-used entry when full.
  void Set(uint64_t key, uint32_t value_bytes);

  // Returns true if the key existed.
  bool Delete(uint64_t key);

  bool Contains(uint64_t key) const { return Find(key) != kNone; }

  void Clear();

  // State-transfer support (the App snapshot contract): entries in least-
  // to most-recently-used order, so replaying them through Set() rebuilds
  // the exact LRU order. RestoreLru clears first; restoring into a smaller
  // store evicts the coldest entries, as a real transfer would.
  std::vector<std::pair<uint64_t, uint32_t>> SnapshotLru() const;
  void RestoreLru(const std::vector<std::pair<uint64_t, uint32_t>>& entries);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_.value(); }
  const RatioCounter& lookup_stats() const { return lookups_; }
  void ResetStats() { lookups_.Reset(); evictions_.Reset(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Entry {
    uint64_t key;
    uint32_t value_bytes;
    uint32_t prev;  // Toward the most recently used end.
    uint32_t next;  // Toward the least recently used end; free-list link.
  };

  // Entry index holding `key`, or kNone.
  uint32_t Find(uint64_t key) const;
  // Index slot where a probe for `key` starts.
  size_t HomeSlot(uint64_t key) const;
  // Indexes a new entry (size_ already counts it), growing the table first
  // when it would pass half full.
  void IndexInsert(uint32_t entry);
  void IndexPlace(uint32_t entry);
  void IndexErase(uint64_t key);
  void Unlink(uint32_t entry);
  void PushFront(uint32_t entry);

  size_t capacity_;
  size_t size_ = 0;
  std::vector<Entry> entries_;
  uint32_t head_ = kNone;  // Most recently used.
  uint32_t tail_ = kNone;  // Least recently used: the next victim.
  uint32_t free_ = kNone;  // Entries released by Delete, chained by `next`.
  // Entry index + 1 per slot (0: empty); a power-of-two size at most half
  // full.
  std::vector<uint32_t> index_;
  RatioCounter lookups_;
  Counter evictions_;
};

}  // namespace incod

#endif  // INCOD_SRC_KVS_KV_STORE_H_
