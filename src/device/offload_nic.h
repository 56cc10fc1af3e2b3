// The datapath every offload NIC shares: the §3.3 packet classifier in
// front of an offload engine, between the network and the host.
//
// The board acts as the host's NIC at all times. Its classifier steers the
// network packets an installed app claims (App::Matches) into the offload
// engine while the app is active, and passes everything else through to the
// host across PCIe (LaKe's classifier, and the one this paper adds to Emu
// DNS). Host egress goes out the network port, observed on the way by the
// active apps. The FPGA NIC (§5) and the SmartNIC (§10) both run this
// datapath; FpgaNic and SmartNic keep only what differs between the boards:
// how an app is installed, how the board parks, and how it draws power.
//
// Engine: parallel workers, each accepting one packet per service interval
// of the claiming app. A packet takes the earliest-free worker and is
// dropped when the implied backlog (wait / service) exceeds the app's queue
// bound. Its completion runs the app after service plus the app's fixed
// latency, unless the engine was killed meanwhile (then it is counted in
// dead_dropped, never serviced).
//
// A dead engine's draw is modelled per board: an active FpgaNic keeps its
// app's module draw on the ledger (only the utilization term stops) until
// recovery parks the modules, while a SmartNic drops to its base datapath
// at once (tests/device_test.cc, DeadEnginePowerTest).
#ifndef INCOD_SRC_DEVICE_OFFLOAD_NIC_H_
#define INCOD_SRC_DEVICE_OFFLOAD_NIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_target.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/net/pause_relay_nic.h"
#include "src/power/power_source.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/timeseries.h"

namespace incod {

// Trailing window of the ingress and processed rates (and so of
// Utilization and the utilization-linear power terms).
constexpr SimDuration kOffloadRateWindow = Milliseconds(100);

class OffloadNic : public PauseRelayNic,
                   public PowerSource,
                   public OffloadTarget,
                   public AppContext {
 public:
  // Installs an app (not owned) on the offload engine. Each board checks
  // its own constraints (placement support, slots, pipeline shape) and
  // throws std::invalid_argument / std::logic_error on a misfit.
  virtual void InstallApp(App* app) = 0;
  size_t app_count() const { return apps_.size(); }
  App* app(size_t index = 0) const {
    return index < apps_.size() ? apps_[index].app : nullptr;
  }

  // --- AppContext (the narrow surface installed apps talk through) ---
  Simulation& sim() override { return sim_; }
  NodeId self_node() const override { return device_node_; }
  void Reply(Packet&& packet) override { TransmitToNetwork(std::move(packet)); }
  void Punt(Packet&& packet) override { DeliverToHost(std::move(packet)); }

  // --- Data path ---
  void Receive(Packet packet) override;
  std::string SinkName() const override { return name_; }
  // Sends a packet out the network port (apps' replies).
  void TransmitToNetwork(Packet&& packet);
  // Punts a packet to the host across PCIe/DMA; without a host link
  // (standalone) it is counted in dropped().
  void DeliverToHost(Packet&& packet);

  // --- OffloadTarget: classifier and park flags ---
  // Activation needs an installed app (std::logic_error otherwise).
  void SetAppActive(bool active) override;
  bool app_active() const override { return app_active_; }
  void SetClockGating(bool enabled) override;
  bool clock_gating() const override { return clock_gating_; }
  // Entering reset loses the apps' on-board state (OnMemoryReset), so a
  // gated-park shift home really leaves the next cold shift cold.
  void SetMemoryReset(bool enabled) override;
  bool memory_reset() const override { return memory_reset_; }
  // While reprogramming the board forwards nothing in either direction —
  // "a momentary traffic halt" (§9.2). Ignored where Traits() says the
  // engine cannot be reprogrammed.
  void SetReprogramming(bool reprogramming) override;
  bool reprogramming() const override { return reprogramming_; }

  // --- OffloadTarget: rates, power, faults ---
  // Ingress counts every packet an installed app claims, active or not and
  // even after engine death: the §9.1 controller signal survives faults.
  double AppIngressRatePerSecond() const override;
  uint64_t app_ingress_packets() const override { return app_ingress_.value(); }
  double ProcessedRatePerSecond() const override;
  double OffloadPowerWatts() const override { return PowerWatts(); }
  // Claimed packets and engine completions discarded because the engine was
  // killed. The pass-through datapath keeps forwarding.
  uint64_t dead_dropped() const override { return dead_dropped_.value(); }

  // --- Power ---
  std::string PowerName() const override { return name_; }
  // Engine utilization in [0,1] over the rate window: processed rate over
  // OffloadCapacityPps() (0 while the capacity is unknown).
  double Utilization() const;

  // --- Counters ---
  uint64_t processed_in_hardware() const { return processed_.value(); }
  uint64_t delivered_to_host() const { return to_host_.value(); }
  // Reprogram-halt drops, engine-queue overflows, and hostless punts.
  uint64_t dropped() const { return dropped_.value(); }

 protected:
  // `classifier_latency` > 0 schedules admission that long after ingress
  // (one classifier event per claimed packet); 0 admits inline.
  OffloadNic(Simulation& sim, std::string name, NodeId host_node, NodeId device_node,
             SimDuration classifier_latency);

  // One installed app and its engine timing.
  struct InstalledApp {
    App* app = nullptr;
    SimDuration service = 0;    // Per-worker initiation interval.
    SimDuration latency = 0;    // Fixed traversal latency after service.
    size_t queue_capacity = 0;  // Backlog bound (packets) ahead of the workers.
  };
  // Binds the app to this board; an app installed onto a live engine gets
  // the activation its peers already received.
  void AddApp(InstalledApp installed);
  void SetEngineWorkers(int workers) { busy_until_.assign(static_cast<size_t>(workers), 0); }
  // Called after the active, clock-gating or memory-reset flag is set, so a
  // board can re-derive its power states.
  virtual void OnParkStateChanged() {}

 private:
  // First installed app claiming the packet (-1: none).
  int ClaimingApp(const Packet& packet) const;
  void Admit(size_t app_index, Packet&& packet);

  Simulation& sim_;
  std::string name_;
  NodeId host_node_;
  NodeId device_node_;
  SimDuration classifier_latency_;
  std::vector<InstalledApp> apps_;
  std::vector<SimTime> busy_until_;  // Per engine worker.
  bool app_active_ = false;
  bool clock_gating_ = false;
  bool memory_reset_ = false;
  bool reprogramming_ = false;
  mutable SlidingWindowRate processed_rate_{kOffloadRateWindow};
  mutable SlidingWindowRate app_ingress_rate_{kOffloadRateWindow};
  Counter app_ingress_;
  Counter processed_;
  Counter to_host_;
  Counter dropped_;
  Counter dead_dropped_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_OFFLOAD_NIC_H_
