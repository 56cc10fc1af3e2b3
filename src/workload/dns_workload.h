// DNS query workload: request factory over a synthetic zone.
#ifndef INCOD_SRC_WORKLOAD_DNS_WORKLOAD_H_
#define INCOD_SRC_WORKLOAD_DNS_WORKLOAD_H_

#include <string>

#include "src/dns/dns_message.h"
#include "src/dns/zone.h"
#include "src/workload/client.h"

namespace incod {

struct DnsWorkloadConfig {
  NodeId dns_service = 0;
  size_t zone_size = 10000;
  // Fraction of queries for names absent from the zone (NXDOMAIN path).
  double miss_fraction = 0.0;
  double zipf_skew = 0.9;  // Query popularity over the zone.
};

// Builds a RequestFactory producing A-record queries (wire-encodable
// DnsMessage payloads) against a zone laid out by Zone::FillSynthetic.
RequestFactory MakeDnsRequestFactory(const DnsWorkloadConfig& config);

}  // namespace incod

#endif  // INCOD_SRC_WORKLOAD_DNS_WORKLOAD_H_
