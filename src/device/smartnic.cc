#include "src/device/smartnic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

namespace {
// Engine slot budgets behind AppSlotCapacity(): scalable silicon (FPGA
// regions, ASIC engine banks) fits several firmware images; SoC boards hit
// the §10 "resource wall" after two.
constexpr int kScalableAppSlots = 8;
constexpr int kSocAppSlots = 2;
}  // namespace

double OpsPerWattAtPeak(const SmartNicPreset& preset) {
  if (preset.max_watts <= 0) {
    return 0;
  }
  return preset.peak_mpps * 1e6 / preset.max_watts;
}

std::vector<SmartNicPreset> StandardSmartNicPresets() {
  return {
      // Azure AccelNet-like FPGA SmartNIC: 17-19 W standalone, 40GE,
      // ~4 Mpps/W (§10).
      {"accelnet-fpga", SmartNicArch::kFpga, 17.0, 19.0, 72.0, 40.0, true, true},
      // ASIC SmartNIC (Netronome Agilio-like): efficient, less flexible.
      {"agilio-asic", SmartNicArch::kAsic, 12.0, 25.0, 120.0, 50.0, false, true},
      // Combined ASIC+FPGA (Mellanox Innova-like).
      {"innova-asic+fpga", SmartNicArch::kAsicPlusFpga, 15.0, 25.0, 90.0, 25.0, true,
       true},
      // SoC SmartNIC (BlueField-like): easy to program, resource-walled.
      {"bluefield-soc", SmartNicArch::kSoc, 14.0, 25.0, 30.0, 100.0, false, false},
  };
}

SmartNicPreset SmartNicPresetByName(const std::string& name) {
  for (const SmartNicPreset& preset : StandardSmartNicPresets()) {
    if (preset.name == name) {
      return preset;
    }
  }
  throw std::invalid_argument("SmartNicPresetByName: unknown preset " + name);
}

// ---------------------------------------------------------------------------

SmartNic::SmartNic(Simulation& sim, SmartNicPreset preset, SmartNicDeviceConfig config)
    : OffloadNic(sim, std::move(config.name), config.host_node, config.device_node,
                 /*classifier_latency=*/0),
      preset_(std::move(preset)),
      capacity_pps_(preset_.peak_mpps * 1e6) {
  if (preset_.peak_mpps <= 0) {
    throw std::invalid_argument("SmartNic: preset needs peak_mpps > 0");
  }
  // One serialization point for every hosted app's firmware.
  SetEngineWorkers(1);
}

int SmartNic::AppSlotCapacity() const {
  return preset_.scalable_resources ? kScalableAppSlots : kSocAppSlots;
}

void SmartNic::InstallApp(App* app) {
  if (app == nullptr) {
    throw std::invalid_argument("SmartNic::InstallApp: null app");
  }
  if (!app->SupportsPlacement(PlacementKind::kSmartNic)) {
    throw std::invalid_argument("SmartNic: " + app->AppName() +
                                " does not support the SmartNIC placement");
  }
  const SmartNicPlacementProfile profile = app->OffloadProfile().smartnic;
  if (profile.resource_slots < 1) {
    // A zero-slot firmware would slip past the resource wall.
    throw std::invalid_argument("SmartNic: " + app->AppName() +
                                " needs >= 1 resource slot");
  }
  const double fraction = profile.MppsFractionFor(preset_.arch);
  if (fraction <= 0) {
    throw std::invalid_argument("SmartNic: " + app->AppName() +
                                " firmware does not run on a " +
                                SmartNicArchName(preset_.arch) + " engine");
  }
  if (slots_used_ + profile.resource_slots > AppSlotCapacity()) {
    throw std::invalid_argument(
        "SmartNic: " + preset_.name + " resource wall — " + app->AppName() +
        " needs " + std::to_string(profile.resource_slots) + " slots, " +
        std::to_string(AppSlotCapacity() - slots_used_) + " free");
  }
  const double capacity_pps = preset_.peak_mpps * 1e6 * fraction;
  slots_used_ += profile.resource_slots;
  capacity_pps_ = std::min(capacity_pps_, capacity_pps);
  AddApp(InstalledApp{app, static_cast<SimDuration>(1e9 / capacity_pps),
                      kEngineLatency, kEngineQueueCapacity});
}

std::string SmartNic::TargetName() const {
  return SinkName() + "/" + preset_.name;
}

OffloadTargetTraits SmartNic::Traits() const {
  OffloadTargetTraits traits;
  traits.supports_clock_gating = true;
  traits.supports_memory_reset = true;
  traits.supports_reprogramming = preset_.arch == SmartNicArch::kFpga ||
                                  preset_.arch == SmartNicArch::kAsicPlusFpga;
  return traits;
}

void SmartNic::OnParkStateChanged() {
  if (app_active()) {
    engine_power_gated_ = false;  // Waking restores the engine.
  }
}

void SmartNic::PowerGateParkedApp() {
  if (!Traits().supports_reprogramming) {
    // Fixed-function engines have no bitstream to remove: the deepest park
    // the silicon offers is clock-gating the engine.
    SetClockGating(true);
    return;
  }
  engine_power_gated_ = true;
  // The firmware is no longer resident: hosted apps lose on-board state.
  for (size_t i = 0; i < app_count(); ++i) {
    app(i)->OnMemoryReset();
  }
}

double SmartNic::PowerWatts() const {
  const double engine_idle = preset_.idle_watts * kEngineIdleFraction;
  if (engine_dead()) {
    // A dead engine draws nothing beyond the base NIC datapath.
    return preset_.idle_watts - engine_idle;
  }
  if (app_active()) {
    // Saturating the hosted firmware's ceiling is 100 % utilization, the
    // same envelope MakeSmartNicRatePower charges the rack ledger.
    return preset_.idle_watts + (preset_.max_watts - preset_.idle_watts) * Utilization();
  }
  if (engine_power_gated_) {
    return preset_.idle_watts - engine_idle;
  }
  if (clock_gating()) {
    // Mirror §5.1: clock gating keeps the engine's static ~60 %.
    return preset_.idle_watts - 0.4 * engine_idle;
  }
  return preset_.idle_watts;
}

}  // namespace incod
