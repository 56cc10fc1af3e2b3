// Authoritative zone: name -> IPv4 resolution table.
//
// Shared by the software NSD model and the Emu DNS hardware core so both
// answer identically (the on-demand shift must be invisible to clients).
//
// Every DNS answer, on every placement, looks its name up here, so the
// records live in one open-addressing table (linear probing, backward-shift
// deletion) keyed by a fixed word-at-a-time hash of the name: one probe run
// through a flat array instead of a bucket walk over heap nodes. The table's
// order is never observable; SortedRecords sorts.
#ifndef INCOD_SRC_DNS_ZONE_H_
#define INCOD_SRC_DNS_ZONE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace incod {

class Zone {
 public:
  struct Record {
    uint32_t ipv4 = 0;
    uint32_t ttl = 300;
  };

  // Adds or replaces an A record. Returns false if the name is invalid.
  bool AddRecord(const std::string& name, uint32_t ipv4, uint32_t ttl = 300);

  std::optional<Record> Lookup(const std::string& name) const;
  bool Remove(const std::string& name);

  size_t size() const { return size_; }
  void Clear();

  // All records sorted by name — the deterministic order the App state
  // contract serializes (zone-cache snapshots must be bit-identical).
  std::vector<std::pair<std::string, Record>> SortedRecords() const;

  // Parses a minimal zone-file format, one record per line:
  //   <name> [ttl] A <dotted-ipv4>
  // with a decimal ttl that fits in 32 bits. '#' or ';' begin comments;
  // blank lines are skipped. Returns the number of records loaded, or -1 on
  // a malformed line (loading stops there).
  int LoadZoneText(const std::string& text);

  // Populates `count` synthetic records host0.bench.example ... for benchmarks.
  void FillSynthetic(size_t count);

  // Synthetic record name for index i (matches FillSynthetic).
  static std::string SyntheticName(size_t i);

  // The table's hash: the length, then 8-byte little-endian words (the
  // last one ending at the name's last byte), one multiply each, and a
  // final avalanche. The same value on every platform and standard library.
  static uint64_t NameHash(std::string_view name);

 private:
  struct Slot {
    uint64_t hash = 0;
    std::string name;  // Empty: a free slot (valid names are never empty).
    Record record;
  };

  // Grows the table (a power of two, at most 3/4 full) to hold `records`.
  void Reserve(size_t records);
  // Slot holding `name` (hash `hash`), or the free slot ending its probe run.
  size_t Probe(const std::string& name, uint64_t hash) const;
  size_t HomeSlot(uint64_t hash) const { return hash & (slots_.size() - 1); }

  // Power-of-two size, at most 3/4 full.
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_DNS_ZONE_H_
