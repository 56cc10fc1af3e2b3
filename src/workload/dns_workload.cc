#include "src/workload/dns_workload.h"

#include <memory>
#include <stdexcept>

namespace incod {

RequestFactory MakeDnsRequestFactory(const DnsWorkloadConfig& config) {
  if (config.dns_service == 0) {
    throw std::invalid_argument("MakeDnsRequestFactory: dns_service required");
  }
  if (config.zone_size == 0) {
    throw std::invalid_argument("MakeDnsRequestFactory: zone_size must be > 0");
  }
  auto popularity = std::make_shared<ZipfDistribution>(config.zone_size, config.zipf_skew);
  return [config, popularity](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    DnsMessage query;
    query.id = static_cast<uint16_t>(id & 0xffff);
    DnsQuestion q;
    if (config.miss_fraction > 0 && rng.Bernoulli(config.miss_fraction)) {
      q.name = "missing" + std::to_string(popularity->Sample(rng)) + ".absent.example";
    } else {
      q.name = Zone::SyntheticName(popularity->Sample(rng));
    }
    query.questions.push_back(std::move(q));
    Packet pkt;
    pkt.src = src;
    pkt.dst = config.dns_service;
    pkt.proto = AppProto::kDns;
    pkt.size_bytes = DnsWireBytes(query);
    pkt.id = id;
    pkt.created_at = now;
    pkt.payload = std::move(query);
    return pkt;
  };
}

}  // namespace incod
