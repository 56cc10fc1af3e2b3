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
// The device is also an application substrate: on the OffloadNic datapath
// it hosts unified Apps that advertise the kSmartNic placement (the same
// LakeCache / EmuDns / P4xosFpgaApp classes the FPGA NIC runs) on a
// one-worker offload engine. Each hosted app's firmware is timed at the
// preset's peak Mpps scaled by the per-arch fraction in its
// OffloadProfile().smartnic, and occupies resource slots against a
// preset-derived budget — the §10 "resource wall" that caps how many apps a
// SoC board can run at once.
#ifndef INCOD_SRC_DEVICE_SMARTNIC_H_
#define INCOD_SRC_DEVICE_SMARTNIC_H_

#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_nic.h"
#include "src/sim/simulation.h"

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
// Behavioral SmartNIC: a preset brought to life on the OffloadNic datapath.
// ---------------------------------------------------------------------------

struct SmartNicDeviceConfig {
  std::string name = "smartnic";
  NodeId host_node = 1;
  // Optional address of the board itself (0: none); hosted apps reply from
  // it when set.
  NodeId device_node = 0;
};

class SmartNic : public OffloadNic {
 public:
  // SoC/ASIC engine path latency added to every processed packet.
  static constexpr SimDuration kEngineLatency = Microseconds(2);
  // Engine input queue (packets) shared by every hosted app.
  static constexpr size_t kEngineQueueCapacity = 1024;
  // Share of the preset's idle watts that belongs to the offload engine
  // (cores / FPGA region) rather than the base NIC datapath. Clock gating
  // the parked engine saves 40 % of this share (mirroring §5.1); power
  // gating it (reprogram-style parking) saves all of it.
  static constexpr double kEngineIdleFraction = 0.3;

  SmartNic(Simulation& sim, SmartNicPreset preset, SmartNicDeviceConfig config);

  // Installs a unified App (not owned) on the offload engine. The app must
  // support the SmartNIC placement; its per-arch profile sets the firmware's
  // Mpps ceiling and slot footprint. Throws when the board's slot budget —
  // the §10 resource wall — is exhausted. Packets no installed app claims
  // (via Matches()) pass through to the host.
  void InstallApp(App* app) override;
  // Engine slots this board offers: SoC-class (non-scalable) boards hit the
  // resource wall after kSocAppSlots; scalable silicon fits kScalableAppSlots.
  int AppSlotCapacity() const;
  int app_slots_used() const { return slots_used_; }

  PlacementKind placement() const override { return PlacementKind::kSmartNic; }

  // --- OffloadTarget ---
  std::string TargetName() const override;
  // Any architecture can idle its engine and reset its memories; only
  // FPGA-bearing boards can be (partially) reconfigured at runtime.
  OffloadTargetTraits Traits() const override;
  // Deep park: the firmware leaves the engine (hosted apps lose on-board
  // state). Fixed-function engines have nothing to remove and clock-gate.
  void PowerGateParkedApp() override;
  // The slowest hosted firmware's ceiling (the preset's peak while none is
  // installed): hosted apps share one engine.
  double OffloadCapacityPps() const override { return capacity_pps_; }

  // --- Power ---
  // idle + (max - idle) * utilization while serving; parked savings depend
  // on the engine share and park depth.
  double PowerWatts() const override;

  const SmartNicPreset& preset() const { return preset_; }

 private:
  void OnParkStateChanged() override;

  SmartNicPreset preset_;
  int slots_used_ = 0;
  // Slowest hosted firmware's ceiling (preset peak x per-arch fraction).
  double capacity_pps_;
  bool engine_power_gated_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_SMARTNIC_H_
