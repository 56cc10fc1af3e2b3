#include "src/kvs/kv_store.h"

#include <algorithm>
#include <stdexcept>

namespace incod {

namespace {

constexpr size_t kMinIndexSlots = 16;

// splitmix64 finalizer: sequential keys spread over the whole table.
uint64_t MixKey(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return key;
}

}  // namespace

KvStore::KvStore(size_t capacity_entries) : capacity_(capacity_entries) {
  if (capacity_entries == 0) {
    throw std::invalid_argument("KvStore: capacity must be > 0");
  }
  if (capacity_entries >= kNone) {
    throw std::invalid_argument("KvStore: capacity must fit 32-bit entry indices");
  }
}

size_t KvStore::HomeSlot(uint64_t key) const {
  return static_cast<size_t>(MixKey(key)) & (index_.size() - 1);
}

uint32_t KvStore::Find(uint64_t key) const {
  if (size_ == 0) {
    return kNone;
  }
  const size_t mask = index_.size() - 1;
  for (size_t slot = HomeSlot(key);; slot = (slot + 1) & mask) {
    const uint32_t stored = index_[slot];
    if (stored == 0) {
      return kNone;
    }
    if (entries_[stored - 1].key == key) {
      return stored - 1;
    }
  }
}

void KvStore::IndexInsert(uint32_t entry) {
  // size_ already counts the new entry; keep the table at most half full.
  if (2 * size_ > index_.size()) {
    index_.assign(std::max(kMinIndexSlots, 2 * index_.size()), 0);
    for (uint32_t e = head_; e != kNone; e = entries_[e].next) {
      if (e != entry) {
        IndexPlace(e);
      }
    }
  }
  IndexPlace(entry);
}

void KvStore::IndexPlace(uint32_t entry) {
  const size_t mask = index_.size() - 1;
  size_t slot = HomeSlot(entries_[entry].key);
  while (index_[slot] != 0) {
    slot = (slot + 1) & mask;
  }
  index_[slot] = entry + 1;
}

void KvStore::IndexErase(uint64_t key) {
  const size_t mask = index_.size() - 1;
  size_t hole = HomeSlot(key);
  while (entries_[index_[hole] - 1].key != key) {
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull later members of the probe run into the hole so
  // every remaining key stays reachable from its home slot without
  // tombstones.
  for (size_t slot = (hole + 1) & mask; index_[slot] != 0; slot = (slot + 1) & mask) {
    const size_t home = HomeSlot(entries_[index_[slot] - 1].key);
    // The entry may move back only if its home is not cyclically inside
    // (hole, slot].
    const bool home_after_hole = hole <= slot ? (home > hole && home <= slot)
                                              : (home > hole || home <= slot);
    if (!home_after_hole) {
      index_[hole] = index_[slot];
      hole = slot;
    }
  }
  index_[hole] = 0;
}

void KvStore::Unlink(uint32_t entry) {
  Entry& e = entries_[entry];
  (e.prev != kNone ? entries_[e.prev].next : head_) = e.next;
  (e.next != kNone ? entries_[e.next].prev : tail_) = e.prev;
}

void KvStore::PushFront(uint32_t entry) {
  Entry& e = entries_[entry];
  e.prev = kNone;
  e.next = head_;
  (head_ != kNone ? entries_[head_].prev : tail_) = entry;
  head_ = entry;
}

bool KvStore::Get(uint64_t key, uint32_t* value_bytes) {
  const uint32_t entry = Find(key);
  if (entry == kNone) {
    lookups_.Miss();
    return false;
  }
  lookups_.Hit();
  if (entry != head_) {
    Unlink(entry);
    PushFront(entry);
  }
  if (value_bytes != nullptr) {
    *value_bytes = entries_[entry].value_bytes;
  }
  return true;
}

void KvStore::Set(uint64_t key, uint32_t value_bytes) {
  if (const uint32_t entry = Find(key); entry != kNone) {
    entries_[entry].value_bytes = value_bytes;
    if (entry != head_) {
      Unlink(entry);
      PushFront(entry);
    }
    return;
  }
  uint32_t entry;
  if (size_ >= capacity_) {
    // The victim's entry is reused for the new key.
    entry = tail_;
    IndexErase(entries_[entry].key);
    Unlink(entry);
    evictions_.Increment();
  } else {
    if (free_ != kNone) {
      entry = free_;
      free_ = entries_[entry].next;
    } else {
      entry = static_cast<uint32_t>(entries_.size());
      entries_.push_back(Entry{});
    }
    ++size_;
  }
  entries_[entry].key = key;
  entries_[entry].value_bytes = value_bytes;
  PushFront(entry);
  IndexInsert(entry);
}

bool KvStore::Delete(uint64_t key) {
  const uint32_t entry = Find(key);
  if (entry == kNone) {
    return false;
  }
  IndexErase(key);
  Unlink(entry);
  entries_[entry].next = free_;
  free_ = entry;
  --size_;
  return true;
}

void KvStore::Clear() {
  entries_.clear();
  index_.assign(index_.size(), 0);
  head_ = kNone;
  tail_ = kNone;
  free_ = kNone;
  size_ = 0;
}

std::vector<std::pair<uint64_t, uint32_t>> KvStore::SnapshotLru() const {
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  entries.reserve(size_);
  // Walk from the least recently used end: coldest first.
  for (uint32_t e = tail_; e != kNone; e = entries_[e].prev) {
    entries.emplace_back(entries_[e].key, entries_[e].value_bytes);
  }
  return entries;
}

void KvStore::RestoreLru(const std::vector<std::pair<uint64_t, uint32_t>>& entries) {
  Clear();
  for (const auto& [key, value_bytes] : entries) {
    Set(key, value_bytes);
  }
}

}  // namespace incod
