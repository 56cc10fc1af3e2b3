// Authoritative zone: name -> IPv4 resolution table.
//
// Shared by the software NSD model and the Emu DNS hardware core so both
// answer identically (the on-demand shift must be invisible to clients).
#ifndef INCOD_SRC_DNS_ZONE_H_
#define INCOD_SRC_DNS_ZONE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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

  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

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

 private:
  std::unordered_map<std::string, Record> records_;
};

}  // namespace incod

#endif  // INCOD_SRC_DNS_ZONE_H_
