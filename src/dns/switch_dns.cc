#include "src/dns/switch_dns.h"

#include <stdexcept>
#include <utility>

#include "src/dns/nsd_server.h"
#include "src/sim/simulation.h"

namespace incod {

DnsSwitchProgram::DnsSwitchProgram(const Zone* zone, DnsSwitchConfig config)
    : zone_state_(zone), config_(config) {
  if (config_.dns_service == 0) {
    throw std::invalid_argument("DnsSwitchProgram: dns_service required");
  }
}

void DnsSwitchProgram::HandlePacket(AppContext& ctx, Packet&& packet) {
  const DnsMessage* query_if = PayloadIf<DnsMessage>(packet);
  if (query_if == nullptr) {
    ctx.Punt(std::move(packet));
    return;
  }
  const DnsMessage& query = *query_if;
  if (query.is_response || query.questions.empty()) {
    ctx.Punt(std::move(packet));  // Responses and junk just forward.
    return;
  }
  const DnsQuestion& question = query.questions.front();
  if (CountLabels(question.name) > kMaxLabels ||
      question.qtype != kDnsTypeA || question.qclass != kDnsClassIn) {
    // Beyond the pipeline parser: "treated as iterative requests" — the
    // host answers instead (§9.2).
    punted_.Increment();
    ctx.Punt(std::move(packet));
    return;
  }
  DnsMessage resp = NsdServer::Resolve(zone_state_.active(), query);
  if (resp.rcode == DnsRcode::kNxDomain) {
    nxdomain_.Increment();
  } else {
    answered_.Increment();
  }
  ctx.Reply(NsdServer::MakeReply(packet.dst, packet, std::move(resp), ctx.sim().Now()));
}

}  // namespace incod
