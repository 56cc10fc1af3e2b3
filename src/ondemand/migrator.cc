#include "src/ondemand/migrator.h"

#include <utility>

namespace incod {

const char* PlacementName(Placement placement) {
  return placement == Placement::kHost ? "host" : "network";
}

const char* ParkPolicyName(ParkPolicy policy) {
  switch (policy) {
    case ParkPolicy::kGatedPark:
      return "gated-park";
    case ParkPolicy::kKeepWarm:
      return "keep-warm";
    case ParkPolicy::kReprogram:
      return "reprogram";
  }
  return "?";
}

StateTransferMigrator::StateTransferMigrator(Simulation& sim, OffloadTarget& target,
                                             Options options, App* host_app,
                                             App* offload_app)
    : sim_(sim),
      target_(target),
      options_(options),
      host_app_(host_app),
      offload_app_(offload_app) {
  // Start in the host placement with the configured idle power savings.
  target_.SetAppActive(false);
  ApplyParkedState();
}

void StateTransferMigrator::ApplyParkedState() {
  const bool park = options_.policy != ParkPolicy::kKeepWarm;
  target_.SetClockGating(park);
  target_.SetMemoryReset(park);
  if (options_.policy == ParkPolicy::kReprogram) {
    target_.PowerGateParkedApp();
  }
}

void StateTransferMigrator::TransferTo(Placement to) {
  if (!options_.transfer_state || host_app_ == nullptr || offload_app_ == nullptr) {
    return;
  }
  App& from = to == Placement::kNetwork ? *host_app_ : *offload_app_;
  App& dst = to == Placement::kNetwork ? *offload_app_ : *host_app_;
  AppState state = from.SnapshotState();
  MutateStateForTransfer(state, to);
  dst.RestoreState(state);
  ++state_transfers_;
}

void StateTransferMigrator::ShiftToNetwork() {
  if (placement() == Placement::kNetwork) {
    return;
  }
  if (options_.policy == ParkPolicy::kReprogram && options_.reprogram_halt > 0 &&
      target_.Traits().supports_reprogramming) {
    // Loading the bitstream halts the data path (§9.2: partial
    // reconfiguration "may result in a momentary traffic halt").
    target_.SetReprogramming(true);
    RecordTransition(sim_.Now(), Placement::kNetwork);
    sim_.Schedule(options_.reprogram_halt, [this] {
      if (placement() != Placement::kNetwork) {
        return;  // Shifted back while reprogramming.
      }
      target_.SetReprogramming(false);
      target_.SetMemoryReset(false);
      target_.SetClockGating(false);
      TransferTo(Placement::kNetwork);
      target_.SetAppActive(true);  // Re-activation restores module states.
      offload_served_ = true;
    });
    return;
  }
  // Order matters: wake memories and clocks, then (optionally) install the
  // transferred state, then divert traffic. Without a transfer the caches
  // start cold (all misses go to the host) and warm up; query rate is
  // maintained throughout (§9.2).
  target_.SetMemoryReset(false);
  target_.SetClockGating(false);
  TransferTo(Placement::kNetwork);
  target_.SetAppActive(true);
  offload_served_ = true;
  RecordTransition(sim_.Now(), Placement::kNetwork);
}

void StateTransferMigrator::ShiftToHost() {
  if (placement() == Placement::kHost) {
    return;
  }
  // Snapshot the offloaded app before deactivation/parking can reset the
  // memories that hold its state — but only if it actually served: shifting
  // back during a kReprogram halt means the offload app never activated,
  // and transferring its initial (empty) state would wipe the host's.
  if (offload_served_) {
    TransferTo(Placement::kHost);
  }
  offload_served_ = false;
  target_.SetReprogramming(false);
  target_.SetAppActive(false);
  ApplyParkedState();
  RecordTransition(sim_.Now(), Placement::kHost);
}

void StateTransferMigrator::AbandonToHost() {
  if (placement() == Placement::kHost) {
    return;
  }
  // No TransferTo: the offload placement is dead, its state unreachable.
  offload_served_ = false;
  target_.SetReprogramming(false);
  target_.SetAppActive(false);
  ApplyParkedState();
  RecordTransition(sim_.Now(), Placement::kHost);
}

std::optional<AppState> StateTransferMigrator::CheckpointOffloadState() const {
  if (offload_app_ == nullptr || !offload_served_ ||
      placement() != Placement::kNetwork) {
    return std::nullopt;
  }
  return offload_app_->SnapshotState();
}

void StateTransferMigrator::RestoreCheckpointTo(Placement to, AppState state) {
  App* dst = to == Placement::kNetwork ? offload_app_ : host_app_;
  if (dst == nullptr) {
    return;
  }
  MutateStateForTransfer(state, to);
  dst->RestoreState(state);
  ++checkpoint_restores_;
}

PaxosLeaderMigrator::PaxosLeaderMigrator(Simulation& sim, L2Switch& sw,
                                         NodeId leader_service,
                                         SoftwareLeader& software_leader,
                                         int software_port, OffloadTarget& hardware_target,
                                         P4xosFpgaApp& hardware_leader, int hardware_port)
    : StateTransferMigrator(
          sim, hardware_target,
          // The FPGA leader keeps on-chip state only: no park knobs to
          // apply while the host serves.
          StateTransferMigrator::Options{.policy = ParkPolicy::kKeepWarm},
          &software_leader, &hardware_leader),
      switch_(sw),
      leader_service_(leader_service),
      software_leader_(software_leader),
      software_port_(software_port),
      hardware_leader_(hardware_leader),
      hardware_port_(hardware_port),
      ballot_(software_leader.state().ballot()) {
  // Initial placement: software leader serves the service address.
  RepointService(software_port_);
  software_leader_.SetActive(true);
}

void PaxosLeaderMigrator::RepointService(int port) {
  L2Switch::ForwardingRule rule;
  rule.proto = AppProto::kPaxos;
  rule.match_dst = leader_service_;
  rule.out_port = port;
  rule.priority = 10;
  switch_.InstallRule(rule);
}

void PaxosLeaderMigrator::MutateStateForTransfer(AppState& state, Placement to) {
  (void)to;
  // A new leader must always run with a ballot above any prior leader's,
  // even when it inherits the sequence position.
  if (PaxosAppState* px = std::get_if<PaxosAppState>(&state.data)) {
    px->ballot = ++ballot_;
  }
}

void PaxosLeaderMigrator::ShiftToNetwork() {
  if (placement() == Placement::kNetwork) {
    return;
  }
  if (!transfer_state()) {
    ++ballot_;
    // The new leader "starts with an initial sequence number of 1 and must
    // learn the next sequence number that it can use" (§9.2).
    hardware_leader_.leader()->Reset(ballot_);
  }
  // Classifier flip (and, on the generic path, the ballot/sequence
  // transfer) through the shared core.
  StateTransferMigrator::ShiftToNetwork();
  software_leader_.SetActive(false);
  RepointService(hardware_port_);
  if (!transfer_state()) {
    // §9.2: the incoming leader learns the latest instance from the
    // acceptors before proposing (client requests are buffered meanwhile).
    hardware_leader_.BeginSequenceLearning();
    ArmLearningTimeout(Placement::kNetwork);
  }
}

void PaxosLeaderMigrator::ArmLearningTimeout(Placement for_placement) {
  // Passive learning (the paper's mode) must not deadlock: after the
  // timeout, release buffered proposals; acceptor hints and client retries
  // then teach the sequence (§9.2, Fig 7's ~100 ms gap).
  sim().Schedule(kLearningTimeout, [this, for_placement] {
    if (placement() != for_placement) {
      return;  // Another shift happened meanwhile.
    }
    if (for_placement == Placement::kNetwork) {
      if (hardware_leader_.leader()->awaiting_sequence()) {
        hardware_leader_.TransmitOutbox(
            hardware_leader_.leader()->AbandonSequenceLearning());
      }
    } else if (software_leader_.state().awaiting_sequence()) {
      software_leader_.TransmitOutbox(
          software_leader_.state().AbandonSequenceLearning());
    }
  });
}

void PaxosLeaderMigrator::AbandonToHost() {
  if (placement() == Placement::kHost) {
    return;
  }
  // The dead hardware leader's ballot/sequence are gone: the software leader
  // always restarts from a fresh higher ballot, whatever the transfer knob
  // says. A checkpoint restore (RestoreCheckpointTo) may follow — its
  // RestoreFrom cancels the learning and MutateStateForTransfer bumps the
  // ballot above this Reset's.
  ++ballot_;
  software_leader_.state().Reset(ballot_);
  StateTransferMigrator::AbandonToHost();
  software_leader_.SetActive(true);
  RepointService(software_port_);
  software_leader_.BeginSequenceLearning();
  ArmLearningTimeout(Placement::kHost);
}

void PaxosLeaderMigrator::ShiftToHost() {
  if (placement() == Placement::kHost) {
    return;
  }
  if (!transfer_state()) {
    ++ballot_;
    software_leader_.state().Reset(ballot_);
  }
  StateTransferMigrator::ShiftToHost();
  software_leader_.SetActive(true);
  RepointService(software_port_);
  if (!transfer_state()) {
    software_leader_.BeginSequenceLearning();
    ArmLearningTimeout(Placement::kHost);
  }
}

}  // namespace incod
