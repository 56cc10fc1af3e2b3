#include "src/dns/nsd_server.h"

#include <stdexcept>
#include <utility>

#include "src/sim/simulation.h"

namespace incod {

NsdServer::NsdServer(const Zone* zone) : zone_state_(zone) {}

SimDuration NsdServer::CpuTimePerRequest(const Packet& packet) const {
  (void)packet;
  return kQueryCpuTime;
}

DnsMessage NsdServer::Resolve(const Zone& zone, const DnsMessage& query) {
  DnsMessage resp;
  resp.id = query.id;
  resp.is_response = true;
  resp.authoritative = true;
  resp.recursion_available = false;  // Authoritative-only (like NSD).
  resp.questions = query.questions;
  if (query.questions.empty()) {
    resp.rcode = DnsRcode::kFormErr;
    return resp;
  }
  const DnsQuestion& q = query.questions.front();
  if (q.qtype != kDnsTypeA || q.qclass != kDnsClassIn) {
    resp.rcode = DnsRcode::kNotImp;
    return resp;
  }
  const auto record = zone.Lookup(q.name);
  if (!record.has_value()) {
    resp.rcode = DnsRcode::kNxDomain;
    return resp;
  }
  DnsResourceRecord rr;
  rr.name = q.name;
  rr.rtype = kDnsTypeA;
  rr.rclass = kDnsClassIn;
  rr.ttl = record->ttl;
  rr.rdata = Ipv4ToRdata(record->ipv4);
  resp.answers.push_back(std::move(rr));
  return resp;
}

Packet NsdServer::MakeReply(NodeId src, const Packet& query, DnsMessage response,
                            SimTime now) {
  Packet out;
  out.src = src;
  out.dst = query.src;
  out.proto = AppProto::kDns;
  // The query's names were validated where it was sized.
  out.size_bytes = DnsWireBytesOfValidNames(response);
  out.id = query.id;
  out.created_at = now;
  out.payload = std::move(response);
  return out;
}

void NsdServer::HandlePacket(AppContext& ctx, Packet&& packet) {
  const DnsMessage* query = PayloadIf<DnsMessage>(packet);
  if (query == nullptr) {
    malformed_.Increment();
    return;
  }
  DnsMessage resp = Resolve(zone_state_.active(), *query);
  switch (resp.rcode) {
    case DnsRcode::kNoError:
      answered_.Increment();
      break;
    case DnsRcode::kNxDomain:
      nxdomain_.Increment();
      break;
    default:
      malformed_.Increment();
      break;
  }
  ctx.Reply(MakeReply(ctx.self_node(), packet, std::move(resp), ctx.sim().Now()));
}

}  // namespace incod
