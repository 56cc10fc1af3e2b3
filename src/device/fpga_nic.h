// NetFPGA-SUME-like FPGA NIC model.
//
// The board acts as the host's NIC at all times (the OffloadNic datapath:
// the LaKe/Emu DNS packet classifier passes non-application traffic
// through), and optionally runs one App in its main logical core, with one
// engine worker per processing element (PE). Power is tracked per module in
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

#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/offload_nic.h"
#include "src/power/ledger.h"
#include "src/power/psu.h"
#include "src/sim/simulation.h"

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
};

class FpgaNic : public OffloadNic {
 public:
  // Packet-classifier stage between ingress and the app pipeline.
  static constexpr SimDuration kClassifierLatency = Nanoseconds(300);

  FpgaNic(Simulation& sim, FpgaNicConfig config);

  // Installs the application core (not owned). Any App supporting the
  // FPGA-NIC placement works; its FpgaPipelineSpec sizes the engine. One
  // app per board: re-programming the FPGA at runtime is out of scope (the
  // paper keeps the app "programmed but inactive" to avoid a traffic halt,
  // §9.2).
  void InstallApp(App* app) override;

  PlacementKind placement() const override { return PlacementKind::kFpgaNic; }

  // Permanently removes a module from the design (power gating / rebuild
  // without the module). Used by the Figure 4 ablations.
  void PowerGateModule(const std::string& module);
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
  // PEs x 1/service of the installed pipeline (0 without an app).
  double OffloadCapacityPps() const override;

  // --- Power ---
  // DC watts drawn from the host's PSU (or, standalone, from its own PSU:
  // then this is wall watts including PSU loss and enclosure overhead).
  double PowerWatts() const override;
  PowerLedger& ledger() { return ledger_; }
  const PowerLedger& ledger() const { return ledger_; }

 private:
  void OnParkStateChanged() override;

  bool standalone_;
  PowerLedger ledger_;
  PsuModel standalone_psu_{kStandalonePsuRatedWatts};
  OffloadPlacementProfile profile_{};
  std::vector<std::string> app_logic_modules_;
  std::vector<std::string> app_memory_modules_;
  std::vector<std::string> power_gated_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_FPGA_NIC_H_
