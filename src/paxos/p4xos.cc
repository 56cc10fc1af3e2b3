#include "src/paxos/p4xos.h"

#include <utility>

#include "src/device/fpga_nic.h"
#include "src/paxos/paxos_msg.h"
#include "src/sim/simulation.h"

namespace incod {

const char* P4xosRoleName(P4xosRole role) {
  return role == P4xosRole::kLeader ? "leader" : "acceptor";
}

P4xosRoleState::P4xosRoleState(P4xosRole role, PaxosGroupConfig group, uint32_t role_id)
    : role_(role) {
  if (role_ == P4xosRole::kLeader) {
    leader_ = std::make_unique<LeaderState>(std::move(group),
                                            static_cast<uint16_t>(role_id));
  } else {
    acceptor_ = std::make_unique<AcceptorState>(std::move(group), role_id);
  }
}

std::vector<PaxosOut> P4xosRoleState::Dispatch(const PaxosMessage& msg) {
  return role_ == P4xosRole::kLeader ? leader_->HandleMessage(msg)
                                     : acceptor_->HandleMessage(msg);
}

AppState P4xosRoleState::Snapshot(AppProto proto, const std::string& name) const {
  PaxosAppState px;
  if (role_ == P4xosRole::kLeader) {
    leader_->SaveTo(px);
  } else {
    acceptor_->SaveTo(px);
  }
  return AppState{proto, name, std::move(px)};
}

void P4xosRoleState::Restore(const AppState& state) {
  const PaxosAppState* px = std::get_if<PaxosAppState>(&state.data);
  if (px == nullptr) {
    return;
  }
  if (role_ == P4xosRole::kLeader) {
    leader_->RestoreFrom(*px);
  } else {
    acceptor_->RestoreFrom(*px);
  }
}

P4xosFpgaApp::P4xosFpgaApp(P4xosRole role, PaxosGroupConfig group, uint32_t role_id,
                           NodeId role_address)
    : role_address_(role_address), state_(role, std::move(group), role_id) {}

std::string P4xosFpgaApp::AppName() const {
  return std::string("p4xos-fpga-") + P4xosRoleName(role());
}

std::vector<ModulePowerSpec> P4xosFpgaApp::PowerModules() const {
  // A single main logical core compiled from P4, on-chip memory only
  // (Figure 2). No DRAM/SRAM interfaces: base power ~10 W below LaKe.
  return {MakeModuleSpec("p4xos_core", kCoreWatts, kLogicStaticFraction, 1.0)};
}

FpgaPipelineSpec P4xosFpgaApp::PipelineSpec() const {
  FpgaPipelineSpec spec;
  spec.workers = 1;
  spec.worker_service = kInitiationInterval;
  spec.pipeline_latency = kPipelineLatency;
  spec.input_queue_capacity = 1024;
  return spec;
}

bool P4xosFpgaApp::Matches(const Packet& packet) const {
  return packet.proto == AppProto::kPaxos && packet.dst == role_address_;
}

NodeId P4xosFpgaApp::ReplySource() const {
  const NodeId self = context() != nullptr ? context()->self_node() : 0;
  return self != 0 ? self : role_address_;
}

void P4xosFpgaApp::HandlePacket(AppContext& ctx, Packet&& packet) {
  const PaxosMessage* msg = PayloadIf<PaxosMessage>(packet);
  if (msg == nullptr) {
    ctx.Punt(std::move(packet));
    return;
  }
  handled_.Increment();
  TransmitOutbox(state_.Dispatch(*msg));
}

void P4xosFpgaApp::BeginSequenceLearning() {
  if (leader() == nullptr) {
    return;
  }
  TransmitOutbox(leader()->StartSequenceLearning(/*send_probe=*/false));
}

void P4xosFpgaApp::TransmitOutbox(std::vector<PaxosOut> outbox) {
  AppContext* ctx = context();
  if (ctx == nullptr) {
    return;
  }
  const NodeId src = ReplySource();
  for (auto& out : outbox) {
    ctx->Reply(MakePaxosPacket(src, out.dst, out.msg, ctx->sim().Now()));
  }
}

AppState P4xosFpgaApp::SnapshotState() const { return state_.Snapshot(proto(), AppName()); }

void P4xosFpgaApp::RestoreState(const AppState& state) { state_.Restore(state); }

P4xosSwitchProgram::P4xosSwitchProgram(P4xosRole role, PaxosGroupConfig group,
                                       uint32_t role_id, NodeId role_address)
    : role_address_(role_address), state_(role, std::move(group), role_id) {}

std::string P4xosSwitchProgram::AppName() const {
  return std::string("p4xos-") + P4xosRoleName(role());
}

void P4xosSwitchProgram::HandlePacket(AppContext& ctx, Packet&& packet) {
  const PaxosMessage* msg = PayloadIf<PaxosMessage>(packet);
  if (msg == nullptr) {
    ctx.Punt(std::move(packet));
    return;
  }
  handled_.Increment();
  auto outbox = state_.Dispatch(*msg);
  for (auto& out : outbox) {
    ctx.Reply(MakePaxosPacket(role_address_, out.dst, out.msg, ctx.sim().Now()));
  }
}

AppState P4xosSwitchProgram::SnapshotState() const {
  return state_.Snapshot(proto(), AppName());
}

void P4xosSwitchProgram::RestoreState(const AppState& state) { state_.Restore(state); }

}  // namespace incod
