// Software deployments of the Paxos roles (libpaxos-like and DPDK) — the
// host placement of the Paxos app family.
//
// Calibration (§3.2, §4.3): the libpaxos acceptor peaks at ~178 Kmsg/s on
// one core of the i7 — a 4.1 µs application service plus kernel stack costs.
// The DPDK variant runs the same logic behind a busy-polling stack (choose
// NetStackType::kDpdk on the hosting Server) with a much lower per-message
// cost.
#ifndef INCOD_SRC_PAXOS_SOFTWARE_ROLES_H_
#define INCOD_SRC_PAXOS_SOFTWARE_ROLES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/paxos/roles.h"
#include "src/stats/counters.h"

namespace incod {

struct PaxosSoftwareConfig {
  SimDuration cpu_time_per_message = Nanoseconds(4100);  // libpaxos on kernel.
  int threads = 1;                                       // libpaxos uses one core (§4.3).
};

PaxosSoftwareConfig LibpaxosConfig();
PaxosSoftwareConfig DpdkPaxosConfig();  // 0.9 µs/message behind a polling stack.

// Common plumbing: decode, run the role state machine, transmit the outbox
// through the bound substrate context.
class PaxosSoftwareApp : public App {
 public:
  explicit PaxosSoftwareApp(PaxosSoftwareConfig config);

  AppProto proto() const override { return AppProto::kPaxos; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kHost;
  }
  HostPlacementProfile HostProfile() const override {
    return HostPlacementProfile{config_.threads, service_address()};
  }
  // If set, the role only receives packets addressed to this service.
  virtual std::optional<NodeId> service_address() const { return std::nullopt; }

  SimDuration CpuTimePerRequest(const Packet& packet) const override;
  void HandlePacket(AppContext& ctx, Packet&& packet) override;

  // Transmits role-state output through the hosting substrate.
  void TransmitOutbox(std::vector<PaxosOut> outbox);

  // Deactivated roles ignore traffic (used across leader migration).
  void SetActive(bool active) { active_ = active; }
  bool active() const { return active_; }

  uint64_t messages_handled() const { return handled_.value(); }

 protected:
  virtual std::vector<PaxosOut> Handle(const PaxosMessage& msg) = 0;

 private:
  PaxosSoftwareConfig config_;
  bool active_ = true;
  Counter handled_;
};

class SoftwareLeader : public PaxosSoftwareApp {
 public:
  SoftwareLeader(PaxosGroupConfig group, uint16_t ballot,
                 PaxosSoftwareConfig config = LibpaxosConfig());

  std::string AppName() const override { return "libpaxos-leader"; }
  std::optional<NodeId> service_address() const override { return leader_service_; }

  // Starts passive post-migration sequence learning (§9.2): proposals wait
  // for acceptor hints. Call after the leader service has been re-pointed
  // at this host.
  void BeginSequenceLearning();

  // App state contract: ballot and sequence position.
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  LeaderState& state() { return state_; }

 protected:
  std::vector<PaxosOut> Handle(const PaxosMessage& msg) override;

 private:
  NodeId leader_service_;
  LeaderState state_;
};

class SoftwareAcceptor : public PaxosSoftwareApp {
 public:
  SoftwareAcceptor(PaxosGroupConfig group, uint32_t acceptor_id,
                   PaxosSoftwareConfig config = LibpaxosConfig());

  std::string AppName() const override { return "libpaxos-acceptor"; }

  // App state contract: the per-instance vote log.
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  AcceptorState& state() { return state_; }

 protected:
  std::vector<PaxosOut> Handle(const PaxosMessage& msg) override;

 private:
  AcceptorState state_;
};

class SoftwareLearner : public PaxosSoftwareApp {
 public:
  // Gap scan period, and how long a hole may stay unfilled before the
  // learner asks for it again.
  static constexpr SimDuration kGapTimeout = Milliseconds(50);

  explicit SoftwareLearner(PaxosGroupConfig group,
                           PaxosSoftwareConfig config = LibpaxosConfig());

  std::string AppName() const override { return "libpaxos-learner"; }

  // Starts the periodic gap scan; call once after binding to a server.
  void StartGapTimer();

  LearnerState& state() { return state_; }

 protected:
  std::vector<PaxosOut> Handle(const PaxosMessage& msg) override;

 private:
  LearnerState state_;
  bool timer_started_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_SOFTWARE_ROLES_H_
