#include "src/dns/emu_dns.h"

#include <stdexcept>
#include <utility>

#include "src/device/fpga_nic.h"
#include "src/dns/nsd_server.h"
#include "src/sim/simulation.h"

namespace incod {

EmuDns::EmuDns(const Zone* zone) : zone_state_(zone) {}

std::vector<ModulePowerSpec> EmuDns::PowerModules() const {
  // Classifier (added by this paper, §3.3) plus the Emu main logical core.
  // Total ~1.5 W over the reference NIC: Emu DNS draws ~47.5 W in a 35 W
  // server + 11 W board (§4.4). No external memories.
  return {
      MakeModuleSpec("classifier", 0.5, kLogicStaticFraction, 1.0),
      MakeModuleSpec("emu_core", 1.0, kLogicStaticFraction, 1.0),
  };
}

FpgaPipelineSpec EmuDns::PipelineSpec() const {
  FpgaPipelineSpec spec;
  spec.workers = 1;  // Non-pipelined design (§4.4).
  spec.worker_service = kServiceTime;
  spec.pipeline_latency = kEgressLatency;
  spec.input_queue_capacity = 256;
  return spec;
}

void EmuDns::HandlePacket(AppContext& ctx, Packet&& packet) {
  const DnsMessage* query = PayloadIf<DnsMessage>(packet);
  if (query == nullptr) {
    ctx.Punt(std::move(packet));
    return;
  }
  if (!query->questions.empty() &&
      CountLabels(query->questions.front().name) > kMaxLabels) {
    // Parser depth exceeded: let the host handle it (worst case the client
    // treats it as an iterative request, §9.2).
    punted_.Increment();
    ctx.Punt(std::move(packet));
    return;
  }
  DnsMessage resp = NsdServer::Resolve(zone_state_.active(), *query);
  if (resp.rcode == DnsRcode::kNoError) {
    answered_.Increment();
  } else if (resp.rcode == DnsRcode::kNxDomain) {
    nxdomain_.Increment();
  }
  const NodeId src = ctx.self_node() != 0 ? ctx.self_node() : packet.dst;
  ctx.Reply(NsdServer::MakeReply(src, packet, std::move(resp), ctx.sim().Now()));
}

}  // namespace incod
