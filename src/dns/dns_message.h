// DNS message model with RFC 1035 wire-format encode/decode (subset).
//
// Emu DNS "implements a subset of DNS functionality, supporting
// non-recursive queries ... resolution queries from names to IPv4
// addresses" (§3.3). We model exactly that subset: A-record questions and
// answers, NXDOMAIN for unresolvable names, no compression pointers (the
// hardware parser in Emu does not follow them either).
#ifndef INCOD_SRC_DNS_DNS_MESSAGE_H_
#define INCOD_SRC_DNS_DNS_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dns/dns_pool.h"

namespace incod {

// Record/query type codes (RFC 1035 §3.2.2).
constexpr uint16_t kDnsTypeA = 1;
constexpr uint16_t kDnsTypeNs = 2;
constexpr uint16_t kDnsTypeCname = 5;
constexpr uint16_t kDnsTypeAaaa = 28;
constexpr uint16_t kDnsClassIn = 1;

// Response codes (RFC 1035 §4.1.1).
enum class DnsRcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct DnsQuestion {
  std::string name;  // Dotted form, e.g. "www.example.com".
  uint16_t qtype = kDnsTypeA;
  uint16_t qclass = kDnsClassIn;
};

struct DnsResourceRecord {
  std::string name;
  uint16_t rtype = kDnsTypeA;
  uint16_t rclass = kDnsClassIn;
  uint32_t ttl = 300;
  DnsRdata rdata;  // Inline buffer: 4 bytes for A records (dns_pool.h).
};

// Section vectors use the recycling arena (dns_pool.h) so packets carrying
// DNS payloads allocate nothing on the steady-state hot path.
struct DnsMessage {
  uint16_t id = 0;
  bool is_response = false;
  bool recursion_desired = false;
  bool recursion_available = false;
  bool authoritative = false;
  DnsRcode rcode = DnsRcode::kNoError;
  PooledVec<DnsQuestion> questions;
  PooledVec<DnsResourceRecord> answers;
};

// IPv4 helpers.
DnsRdata Ipv4ToRdata(uint32_t ipv4);
uint32_t RdataToIpv4(const DnsRdata& rdata);
std::string Ipv4ToString(uint32_t ipv4);
std::optional<uint32_t> ParseIpv4(const std::string& dotted);

// Number of labels in a dotted name ("a.b.c" -> 3). The Emu DNS hardware
// parser supports a bounded label depth (§9.2).
int CountLabels(const std::string& name);

// Validates a dotted name: non-empty labels, each <= 63 bytes, total <= 253.
bool IsValidDnsName(const std::string& name);

// Encodes to RFC 1035 wire format (no compression). Throws on invalid names.
std::vector<uint8_t> EncodeDnsMessage(const DnsMessage& message);

// Decodes; returns nullopt on malformed input.
std::optional<DnsMessage> DecodeDnsMessage(const std::vector<uint8_t>& wire);

// Frame size: EncodeDnsMessage(message).size() + 42 (Ethernet/IP/UDP
// headers), computed from the name lengths without encoding. Throws
// std::invalid_argument exactly where EncodeDnsMessage would.
uint32_t DnsWireBytes(const DnsMessage& message);

// DnsWireBytes without the name checks, for a message whose names were
// validated already: a reply echoes the question the request factory sized
// (and its answer repeats that name), so a request scans its name once.
uint32_t DnsWireBytesOfValidNames(const DnsMessage& message);

}  // namespace incod

#endif  // INCOD_SRC_DNS_DNS_MESSAGE_H_
