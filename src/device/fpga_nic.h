// NetFPGA-SUME-like FPGA NIC model.
//
// The board acts as the host's NIC at all times (the paper's LaKe/Emu DNS
// packet classifier passes non-application traffic through), and optionally
// runs one App in its main logical core. Power is tracked per module in
// a PowerLedger calibrated from §5 of the paper:
//   - shell (PHYs, arbiters)            9.5 W
//   - PCIe & DMA                        1.5 W   -> reference NIC 11 W DC
//   - app logic                         per app (LaKe 2.2 W incl. 5 PEs)
//   - DRAM interface                    4.8 W   (§5.3)
//   - SRAM interface                    6.0 W   (§5.3)
// Clock gating keeps ~60 % of logic power ("earns less than 1W", §5.1);
// holding memory interfaces in reset saves 40 % of their power (§5.1).
// Standalone (hostless) operation adds enclosure overhead plus a PSU.
#ifndef INCOD_SRC_DEVICE_FPGA_NIC_H_
#define INCOD_SRC_DEVICE_FPGA_NIC_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_target.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/net/pause_relay_nic.h"
#include "src/power/ledger.h"
#include "src/power/psu.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/timeseries.h"

namespace incod {

// Calibrated board constants (see EXPERIMENTS.md).
constexpr double kFpgaShellWatts = 9.5;
constexpr double kFpgaPcieWatts = 1.5;
constexpr double kFpgaDramWatts = 4.8;        // §5.3: 4GB DRAM costs 4.8 W.
constexpr double kFpgaSramWatts = 6.0;        // §5.3: 18MB SRAM costs 6 W.
constexpr double kFpgaPeWatts = 0.25;         // §5.1: ~0.25 W per PE.
constexpr double kLogicStaticFraction = 0.6;  // Clock gating keeps static power.
constexpr double kMemResetFraction = 0.6;     // Reset saves 40 % (§5.1).
constexpr double kStandaloneOverheadWatts = 1.5;  // Fan + management.
constexpr double kStandalonePsuRatedWatts = 150.0;

struct FpgaNicConfig {
  std::string name = "netfpga";
  NodeId host_node = 1;     // Address of the host behind this NIC.
  NodeId device_node = 0;   // Optional address of the device itself (0: none).
  bool standalone = false;  // Hostless deployment: adds PSU + enclosure.
  SimDuration classifier_latency = Nanoseconds(300);
  SimDuration rate_window = Milliseconds(100);  // For utilization/dyn power.
};

class FpgaNic : public PauseRelayNic,
                public PowerSource,
                public OffloadTarget,
                public AppContext {
 public:
  FpgaNic(Simulation& sim, FpgaNicConfig config);

  // Installs the application core (not owned). Any App supporting the
  // FPGA-NIC placement works. Re-programming the FPGA at runtime is out of
  // scope (the paper keeps the app "programmed but inactive" to avoid a
  // traffic halt, §9.2).
  void InstallApp(App* app);
  App* app() const { return app_; }

  // --- AppContext (the narrow surface the installed app talks through) ---
  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return PlacementKind::kFpgaNic; }
  NodeId self_node() const override { return config_.device_node; }
  void Reply(Packet packet) override { TransmitToNetwork(std::move(packet)); }
  void Punt(Packet packet) override { DeliverToHost(std::move(packet)); }

  // --- Runtime controls (the knobs of §5.1/§9.2, OffloadTarget surface) ---
  // When active, matching packets are processed in the app core; when
  // inactive, everything passes through to the host.
  void SetAppActive(bool active) override;
  bool app_active() const override { return app_active_; }
  // Clock-gates the app logic while inactive.
  void SetClockGating(bool enabled) override;
  bool clock_gating() const override { return clock_gating_; }
  // Holds external memory interfaces in reset while inactive.
  void SetMemoryReset(bool enabled) override;
  bool memory_reset() const override { return memory_reset_; }
  // Permanently removes a module from the design (power gating / rebuild
  // without the module). Used by the Figure 4 ablations.
  void PowerGateModule(const std::string& module);
  // Models FPGA (partial) reconfiguration: while reprogramming, the device
  // forwards nothing — "a momentary traffic halt" (§9.2). All traffic in
  // either direction is dropped.
  void SetReprogramming(bool reprogramming) override;
  bool reprogramming() const override { return reprogramming_; }
  // Reprogram-policy parking: the app core is not resident, so every module
  // beyond the always-on shell/PCIe/memory interfaces draws nothing.
  void PowerGateParkedApp() override;

  // --- OffloadTarget identity ---
  std::string TargetName() const override;
  OffloadTargetTraits Traits() const override {
    return OffloadTargetTraits{/*supports_clock_gating=*/true,
                               /*supports_memory_reset=*/true,
                               /*supports_reprogramming=*/true};
  }
  double OffloadPowerWatts() const override { return PowerWatts(); }
  double OffloadCapacityPps() const override { return CapacityPps(); }
  // Packets (and pipeline completions) discarded because the app engine was
  // killed by a fault. The shell keeps forwarding — only app work dies.
  uint64_t dead_dropped() const override { return dead_dropped_.value(); }

  // --- Data path ---
  void Receive(Packet packet) override;
  std::string SinkName() const override { return config_.name; }
  // Sends a packet out the network port (used by apps for replies).
  void TransmitToNetwork(Packet packet);
  // Punts a packet to the host across PCIe/DMA.
  void DeliverToHost(Packet packet);

  // --- Power ---
  // DC watts drawn from the host's PSU (or, standalone, from its own PSU:
  // then this is wall watts including PSU loss and enclosure overhead).
  double PowerWatts() const override;
  std::string PowerName() const override { return config_.name; }
  PowerLedger& ledger() { return ledger_; }
  const PowerLedger& ledger() const { return ledger_; }
  // Pipeline utilization in [0,1] over the trailing rate window.
  double Utilization() const;

  // --- Counters ---
  uint64_t processed_in_hardware() const { return hw_processed_.value(); }
  uint64_t delivered_to_host() const { return to_host_.value(); }
  uint64_t dropped() const { return dropped_.value(); }
  double ProcessedRatePerSecond() const override;
  // Ingress rate of packets the classifier recognizes as the app's traffic,
  // counted whether or not the app is active. This is the signal the
  // network-controlled on-demand controller averages (§9.1).
  double AppIngressRatePerSecond() const override;
  uint64_t app_ingress_packets() const override { return app_ingress_.value(); }

  const FpgaNicConfig& config() const { return config_; }

 private:
  struct Worker {
    SimTime busy_until = 0;
  };

  void AdmitToPipeline(Packet packet);
  void UpdateLogicStates();
  double CapacityPps() const;

  Simulation& sim_;
  FpgaNicConfig config_;
  PowerLedger ledger_;
  PsuModel standalone_psu_{kStandalonePsuRatedWatts};
  App* app_ = nullptr;
  OffloadPlacementProfile profile_{};
  FpgaPipelineSpec pipeline_{};
  std::vector<Worker> workers_;
  size_t queued_ = 0;
  bool app_active_ = false;
  bool clock_gating_ = false;
  bool memory_reset_ = false;
  bool reprogramming_ = false;
  std::vector<std::string> app_logic_modules_;
  std::vector<std::string> app_memory_modules_;
  std::vector<std::string> power_gated_;
  mutable SlidingWindowRate processed_rate_;
  mutable SlidingWindowRate app_ingress_rate_;
  Counter app_ingress_;
  Counter hw_processed_;
  Counter to_host_;
  Counter dropped_;
  Counter dead_dropped_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_FPGA_NIC_H_
