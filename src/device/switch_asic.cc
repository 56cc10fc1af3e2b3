#include "src/device/switch_asic.h"

#include <algorithm>
#include <stdexcept>

namespace incod {

bool DiagProgram::Process(SwitchAsic& sw, Packet& packet) {
  (void)sw;
  (void)packet;
  return false;  // Diagnostics only exercise the pipeline.
}

SwitchAsic::SwitchAsic(Simulation& sim, SwitchAsicConfig config)
    : L2Switch(sim, config.name, kPipelineLatency),
      config_(config),
      observed_rate_(config.rate_window),
      proto_filter_(kNumAppProtos),
      proto_ingress_(kNumAppProtos),
      proto_consumed_(kNumAppProtos),
      proto_ingress_rate_(kNumAppProtos, SlidingWindowRate(config.rate_window)),
      proto_consumed_rate_(kNumAppProtos, SlidingWindowRate(config.rate_window)) {}

void SwitchAsic::LoadProgram(SwitchProgram* program) {
  if (program == nullptr) {
    throw std::invalid_argument("SwitchAsic::LoadProgram: null");
  }
  programs_.push_back(program);
}

void SwitchAsic::UnloadProgram(const std::string& name) {
  programs_.erase(std::remove_if(programs_.begin(), programs_.end(),
                                 [&](SwitchProgram* p) { return p->ProgramName() == name; }),
                  programs_.end());
}

std::vector<std::string> SwitchAsic::LoadedPrograms() const {
  std::vector<std::string> names;
  names.reserve(programs_.size());
  for (const auto* p : programs_) {
    names.push_back(p->ProgramName());
  }
  return names;
}

bool SwitchAsic::ProcessInPipeline(Packet& packet) {
  observed_rate_.RecordEvent(sim_.Now());
  const auto proto = static_cast<size_t>(packet.proto);
  const bool classified =
      proto < kNumAppProtos &&
      (!proto_filter_[proto].has_value() || packet.dst == *proto_filter_[proto]);
  if (classified) {
    proto_ingress_[proto].Increment();
    proto_ingress_rate_[proto].RecordEvent(sim_.Now());
  }
  for (auto* p : programs_) {
    if (p->Process(*this, packet)) {
      consumed_.Increment();
      if (classified) {
        proto_consumed_[proto].Increment();
        proto_consumed_rate_[proto].RecordEvent(sim_.Now());
      }
      return true;
    }
  }
  return false;
}

void SwitchAsic::SetProtoIngressFilter(AppProto proto, NodeId service_dst) {
  proto_filter_[static_cast<size_t>(proto)] = service_dst;
}

uint64_t SwitchAsic::ProtoIngressPackets(AppProto proto) const {
  return proto_ingress_[static_cast<size_t>(proto)].value();
}

double SwitchAsic::ProtoIngressRatePerSecond(AppProto proto) const {
  return proto_ingress_rate_[static_cast<size_t>(proto)].RatePerSecond(sim_.Now());
}

uint64_t SwitchAsic::ProtoConsumedPackets(AppProto proto) const {
  return proto_consumed_[static_cast<size_t>(proto)].value();
}

double SwitchAsic::ProtoConsumedRatePerSecond(AppProto proto) const {
  return proto_consumed_rate_[static_cast<size_t>(proto)].RatePerSecond(sim_.Now());
}

void SwitchAsic::TransmitFromPipeline(Packet&& packet) {
  // Replies re-enter the forwarding pipeline: "entering as the request, and
  // coming out as the reply" (§10).
  Receive(std::move(packet));
}

double SwitchAsic::LineRatePps() const {
  const double total_bps = kNumPorts * kPortGbps * 1e9;
  return total_bps / (8.0 * kReferencePacketBytes);
}

double SwitchAsic::ObservedPps() const { return observed_rate_.RatePerSecond(sim_.Now()); }

double SwitchAsic::UtilizationFraction() const {
  return std::min(1.0, ObservedPps() / LineRatePps());
}

double SwitchAsic::BaseWatts(double utilization) const {
  return kMaxPowerWatts * (kIdlePowerFraction + (1.0 - kIdlePowerFraction) * utilization);
}

double SwitchAsic::ProgramOverheadFraction() const {
  double sum = 0;
  for (const auto* p : programs_) {
    sum += p->PowerOverheadAtFullLoad();
  }
  return sum;
}

double SwitchAsic::PowerWatts() const {
  const double u = UtilizationFraction();
  // Idle power is identical with or without extra programs (§6); the
  // overhead scales with traffic actually exercising the pipeline.
  return BaseWatts(u) * (1.0 + ProgramOverheadFraction() * u);
}

double SwitchAsic::ForwardingOnlyWatts() const { return BaseWatts(UtilizationFraction()); }

}  // namespace incod
