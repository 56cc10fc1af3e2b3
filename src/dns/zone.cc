#include "src/dns/zone.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "src/dns/dns_message.h"

namespace incod {

bool Zone::AddRecord(const std::string& name, uint32_t ipv4, uint32_t ttl) {
  if (!IsValidDnsName(name)) {
    return false;
  }
  records_[name] = Record{ipv4, ttl};
  return true;
}

std::optional<Zone::Record> Zone::Lookup(const std::string& name) const {
  auto it = records_.find(name);
  if (it == records_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool Zone::Remove(const std::string& name) { return records_.erase(name) != 0; }

std::vector<std::pair<std::string, Zone::Record>> Zone::SortedRecords() const {
  std::vector<std::pair<std::string, Record>> records(records_.begin(), records_.end());
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
  for (size_t i = 0; i < count; ++i) {
    AddRecord(SyntheticName(i), 0x0a000000u + static_cast<uint32_t>(i));
  }
}

}  // namespace incod
