// SmartNIC presets and behavioral device model for the §10 placement
// discussion.
//
// The paper surveys four SmartNIC architectures (FPGA, ASIC, ASIC+FPGA,
// SoC) and anchors one concrete data point: Azure's AccelNet FPGA SmartNIC
// at 17-19 W standalone on a 40GE board, "close to 4Mpps/W for some use
// cases". The presets feed the placement advisor and bench_placement; the
// SmartNic device turns a preset into a live OffloadTarget so the on-demand
// layer can place workloads on SmartNICs exactly as it does on the NetFPGA
// or a switch ASIC.
//
// The device is also an application substrate: it implements AppContext and
// hosts unified Apps that advertise the kSmartNic placement (the same
// LakeCache / EmuDns / P4xosFpgaApp classes the FPGA NIC runs) on its
// offload engine. Each hosted app's firmware is timed at the preset's peak
// Mpps scaled by the per-arch fraction in its OffloadProfile().smartnic,
// and occupies resource slots against a preset-derived budget — the §10
// "resource wall" that caps how many apps a SoC board can run at once.
#ifndef INCOD_SRC_DEVICE_SMARTNIC_H_
#define INCOD_SRC_DEVICE_SMARTNIC_H_

#include <optional>
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

struct SmartNicPreset {
  std::string name;
  SmartNicArch arch;
  double idle_watts;
  double max_watts;          // Typically <= 25 W (PCIe slot budget, §10).
  double peak_mpps;          // Packet-processing capability.
  double port_gbps;
  // Qualitative §10 traits used by the advisor.
  bool flexible_interfaces;  // Can attach bespoke memory/storage (FPGA).
  bool scalable_resources;   // SoCs hit the "resource wall" earlier.
};

// Ops-per-watt at full load (Mpps per watt of max power).
double OpsPerWattAtPeak(const SmartNicPreset& preset);

std::vector<SmartNicPreset> StandardSmartNicPresets();

// Standard preset by name ("accelnet-fpga", "agilio-asic", ...); throws
// std::invalid_argument for an unknown name. ScenarioSpecs select SmartNIC
// boards declaratively through this.
SmartNicPreset SmartNicPresetByName(const std::string& name);

// ---------------------------------------------------------------------------
// Behavioral SmartNIC: a preset brought to life as a datapath + OffloadTarget.
// ---------------------------------------------------------------------------

struct SmartNicDeviceConfig {
  std::string name = "smartnic";
  NodeId host_node = 1;
  // Optional address of the board itself (0: none); hosted apps reply from
  // it when set.
  NodeId device_node = 0;
  SimDuration processing_latency = Microseconds(2);  // SoC/ASIC path latency.
  SimDuration rate_window = Milliseconds(100);
  size_t queue_capacity = 1024;
  // Fraction of the preset's idle watts belonging to the offload engine
  // (cores / FPGA region), as opposed to the base NIC datapath. Clock
  // gating the parked engine saves 40 % of this share (mirroring §5.1);
  // power gating it (reprogram-style parking) saves all of it.
  double offload_engine_fraction = 0.3;
};

class SmartNic : public PauseRelayNic,
                 public PowerSource,
                 public OffloadTarget,
                 public AppContext {
 public:
  SmartNic(Simulation& sim, SmartNicPreset preset, SmartNicDeviceConfig config);

  // Installs a unified App (not owned) on the offload engine. The app must
  // support the SmartNIC placement; its per-arch profile sets the firmware's
  // Mpps ceiling and slot footprint. Throws when the board's slot budget —
  // the §10 resource wall — is exhausted. Packets no installed app claims
  // (via Matches()) pass through to the host.
  void InstallApp(App* app);
  size_t app_count() const { return apps_.size(); }
  App* app(size_t index = 0) const {
    return index < apps_.size() ? apps_[index].app : nullptr;
  }
  // Engine slots this board offers: SoC-class (non-scalable) boards hit the
  // resource wall after kSocAppSlots; scalable silicon fits kScalableAppSlots.
  int AppSlotCapacity() const;
  int app_slots_used() const { return slots_used_; }

  // --- AppContext (the narrow surface hosted apps talk through) ---
  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return PlacementKind::kSmartNic; }
  NodeId self_node() const override { return config_.device_node; }
  void Reply(Packet packet) override { TransmitToNetwork(std::move(packet)); }
  void Punt(Packet packet) override { DeliverToHost(std::move(packet)); }

  // --- Data path ---
  void Receive(Packet packet) override;
  std::string SinkName() const override { return config_.name; }
  void TransmitToNetwork(Packet packet);
  void DeliverToHost(Packet packet);

  // --- OffloadTarget ---
  std::string TargetName() const override;
  OffloadTargetTraits Traits() const override;
  void SetAppActive(bool active) override;
  bool app_active() const override { return app_active_; }
  void SetClockGating(bool enabled) override;
  bool clock_gating() const override { return clock_gating_; }
  // Holds the engine's memories in reset while parked: hosted apps lose
  // their on-board state on entry (LaKe re-warms after a gated park, §9.2).
  void SetMemoryReset(bool enabled) override;
  bool memory_reset() const override { return memory_reset_; }
  void SetReprogramming(bool reprogramming) override;
  bool reprogramming() const override { return reprogramming_; }
  void PowerGateParkedApp() override;
  double AppIngressRatePerSecond() const override;
  uint64_t app_ingress_packets() const override { return app_ingress_.value(); }
  double ProcessedRatePerSecond() const override;
  double OffloadPowerWatts() const override { return PowerWatts(); }
  double OffloadCapacityPps() const override;
  // Packets (and engine completions) discarded because the offload engine
  // was killed by a fault. The base NIC datapath keeps forwarding.
  uint64_t dead_dropped() const override { return dead_dropped_.value(); }

  // --- Power ---
  // idle + (max - idle) * utilization while serving; parked savings depend
  // on the engine share and park depth.
  double PowerWatts() const override;
  std::string PowerName() const override { return config_.name; }
  double Utilization() const;

  uint64_t processed_in_hardware() const { return processed_.value(); }
  uint64_t delivered_to_host() const { return to_host_.value(); }
  uint64_t dropped() const { return dropped_.value(); }

  const SmartNicPreset& preset() const { return preset_; }
  const SmartNicDeviceConfig& config() const { return config_; }

 private:
  struct HostedApp {
    App* app = nullptr;
    // Engine initiation interval derived from the preset's peak scaled by
    // the app's per-arch Mpps fraction.
    SimDuration service = 0;
    double capacity_pps = 0;
  };

  // First installed app claiming the packet (-1: none).
  int ClaimingApp(const Packet& packet) const;
  // Books the engine's next free slot at `service` pacing; returns the
  // completion time, or nullopt (counted drop) on input-queue overflow.
  std::optional<SimTime> ReserveEngineSlot(SimDuration service);
  void AdmitToEngine(size_t app_index, Packet packet);

  Simulation& sim_;
  SmartNicPreset preset_;
  SmartNicDeviceConfig config_;
  std::vector<HostedApp> apps_;
  int slots_used_ = 0;
  SimTime busy_until_ = 0;
  bool app_active_ = false;
  bool clock_gating_ = false;
  bool memory_reset_ = false;
  bool engine_power_gated_ = false;
  bool reprogramming_ = false;
  mutable SlidingWindowRate processed_rate_;
  mutable SlidingWindowRate app_ingress_rate_;
  Counter app_ingress_;
  Counter processed_;
  Counter to_host_;
  Counter dropped_;
  Counter dead_dropped_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_SMARTNIC_H_
