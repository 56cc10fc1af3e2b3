#include "src/dns/zone.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/dns/dns_message.h"

namespace incod {

namespace {

constexpr size_t kMinSlots = 16;

// Little-endian loads: the same words on every platform.
uint64_t LoadLe64(const char* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

uint64_t LoadLeShort(const char* bytes, size_t n) {
  uint64_t word = 0;
  for (size_t i = 0; i < n; ++i) {
    word |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  return word;
}

// One multiply per word; the rotate folds the high bits the multiply
// produced back down so the next word's multiply spreads them.
uint64_t MixWord(uint64_t hash, uint64_t word) {
  return std::rotl((hash ^ word) * 0x9e3779b97f4a7c15ull, 31);
}

}  // namespace

uint64_t Zone::NameHash(std::string_view name) {
  const char* bytes = name.data();
  const size_t n = name.size();
  uint64_t hash = 14695981039346656037ull ^ n;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) {
      hash = MixWord(hash, LoadLe64(bytes + i));
    }
    // The last word ends at the last byte, overlapping the one before when
    // the length is not a multiple of 8; the seed carries the length.
    hash = MixWord(hash, LoadLe64(bytes + n - 8));
  } else {
    hash = MixWord(hash, LoadLeShort(bytes, n));
  }
  // Final avalanche (MurmurHash3 fmix64): every input bit reaches the low
  // bits HomeSlot masks.
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

void Zone::Reserve(size_t records) {
  size_t slots = std::max(kMinSlots, slots_.size());
  while (4 * records > 3 * slots) {
    slots *= 2;
  }
  if (slots == slots_.size()) {
    return;
  }
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
  for (Slot& moved : old) {
    if (!moved.name.empty()) {
      slots_[Probe(moved.name, moved.hash)] = std::move(moved);
    }
  }
}

size_t Zone::Probe(const std::string& name, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = HomeSlot(hash);
  while (!slots_[slot].name.empty() &&
         (slots_[slot].hash != hash || slots_[slot].name != name)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool Zone::AddRecord(const std::string& name, uint32_t ipv4, uint32_t ttl) {
  if (!IsValidDnsName(name)) {
    return false;
  }
  Reserve(size_ + 1);
  const uint64_t hash = NameHash(name);
  Slot& slot = slots_[Probe(name, hash)];
  if (slot.name.empty()) {
    slot.hash = hash;
    slot.name = name;
    ++size_;
  }
  slot.record = Record{ipv4, ttl};
  return true;
}

std::optional<Zone::Record> Zone::Lookup(const std::string& name) const {
  if (size_ == 0) {
    return std::nullopt;
  }
  const Slot& slot = slots_[Probe(name, NameHash(name))];
  if (slot.name.empty()) {
    return std::nullopt;
  }
  return slot.record;
}

bool Zone::Remove(const std::string& name) {
  if (size_ == 0) {
    return false;
  }
  size_t hole = Probe(name, NameHash(name));
  if (slots_[hole].name.empty()) {
    return false;
  }
  // Backward shift: pull later members of the probe run into the hole so
  // every remaining name stays reachable from its home slot.
  const size_t mask = slots_.size() - 1;
  for (size_t slot = (hole + 1) & mask; !slots_[slot].name.empty(); slot = (slot + 1) & mask) {
    const size_t home = HomeSlot(slots_[slot].hash);
    const bool home_after_hole = hole <= slot ? (home > hole && home <= slot)
                                              : (home > hole || home <= slot);
    if (!home_after_hole) {
      slots_[hole] = std::move(slots_[slot]);
      hole = slot;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void Zone::Clear() {
  slots_.clear();
  size_ = 0;
}

std::vector<std::pair<std::string, Zone::Record>> Zone::SortedRecords() const {
  std::vector<std::pair<std::string, Record>> records;
  records.reserve(size_);
  for (const Slot& slot : slots_) {
    if (!slot.name.empty()) {
      records.emplace_back(slot.name, slot.record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return records;
}

int Zone::LoadZoneText(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  int loaded = 0;
  while (std::getline(lines, line)) {
    // Strip comments.
    const size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    std::istringstream fields(line);
    std::string name;
    if (!(fields >> name)) {
      continue;  // Blank line.
    }
    std::string second;
    if (!(fields >> second)) {
      return -1;
    }
    uint32_t ttl = 300;
    std::string type = second;
    // Optional TTL between name and type.
    if (!second.empty() && second.find_first_not_of("0123456789") == std::string::npos) {
      const auto parsed = std::from_chars(second.data(), second.data() + second.size(), ttl);
      if (parsed.ec != std::errc()) {
        return -1;  // TTL beyond 32 bits.
      }
      if (!(fields >> type)) {
        return -1;
      }
    }
    if (type != "A" && type != "a") {
      return -1;  // Only A records in the Emu subset.
    }
    std::string address;
    if (!(fields >> address)) {
      return -1;
    }
    const auto ipv4 = ParseIpv4(address);
    if (!ipv4.has_value() || !AddRecord(name, *ipv4, ttl)) {
      return -1;
    }
    ++loaded;
  }
  return loaded;
}

std::string Zone::SyntheticName(size_t i) {
  return "host" + std::to_string(i) + ".bench.example";
}

void Zone::FillSynthetic(size_t count) {
  Reserve(size_ + count);
  for (size_t i = 0; i < count; ++i) {
    AddRecord(SyntheticName(i), 0x0a000000u + static_cast<uint32_t>(i));
  }
}

}  // namespace incod
