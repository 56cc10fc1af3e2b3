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
    : sim_(sim),
      preset_(std::move(preset)),
      config_(std::move(config)),
      processed_rate_(config_.rate_window),
      app_ingress_rate_(config_.rate_window) {
  if (preset_.peak_mpps <= 0) {
    throw std::invalid_argument("SmartNic: preset needs peak_mpps > 0");
  }
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
  HostedApp hosted;
  hosted.app = app;
  hosted.capacity_pps = preset_.peak_mpps * 1e6 * fraction;
  hosted.service = static_cast<SimDuration>(1e9 / hosted.capacity_pps);
  slots_used_ += profile.resource_slots;
  app->BindContext(this);
  apps_.push_back(hosted);
  if (app_active_) {
    // Late install onto a live engine: the app must see the same activation
    // its already-installed peers received.
    app->OnActivate();
  }
}

std::string SmartNic::TargetName() const {
  return config_.name + "/" + preset_.name;
}

OffloadTargetTraits SmartNic::Traits() const {
  OffloadTargetTraits traits;
  // Any architecture can idle its offload engine and reset its memories;
  // only FPGA-bearing boards can be (partially) reconfigured at runtime.
  traits.supports_clock_gating = true;
  traits.supports_memory_reset = true;
  traits.supports_reprogramming = preset_.arch == SmartNicArch::kFpga ||
                                  preset_.arch == SmartNicArch::kAsicPlusFpga;
  return traits;
}

void SmartNic::SetAppActive(bool active) {
  const bool was_active = app_active_;
  app_active_ = active;
  if (active) {
    engine_power_gated_ = false;  // Waking restores the engine.
  }
  if (was_active == active) {
    return;
  }
  for (HostedApp& hosted : apps_) {
    if (active) {
      hosted.app->OnActivate();
    } else {
      hosted.app->OnDeactivate();
    }
  }
}

void SmartNic::SetClockGating(bool enabled) { clock_gating_ = enabled; }

void SmartNic::SetMemoryReset(bool enabled) {
  const bool entering_reset = enabled && !memory_reset_;
  memory_reset_ = enabled;
  if (entering_reset) {
    // Mirrors FpgaNic: entering reset loses the apps' on-board state, so a
    // gated-park shift home really leaves the next cold shift cold.
    for (HostedApp& hosted : apps_) {
      hosted.app->OnMemoryReset();
    }
  }
}

void SmartNic::SetReprogramming(bool reprogramming) {
  if (reprogramming && !Traits().supports_reprogramming) {
    return;  // Fixed-function engine: nothing to reprogram.
  }
  reprogramming_ = reprogramming;
}

void SmartNic::PowerGateParkedApp() {
  if (!Traits().supports_reprogramming) {
    // Fixed-function engines have no bitstream to remove: the deepest park
    // the silicon offers is clock-gating the engine.
    clock_gating_ = true;
    return;
  }
  engine_power_gated_ = true;
  // The firmware is no longer resident: hosted apps lose on-board state.
  for (HostedApp& hosted : apps_) {
    hosted.app->OnMemoryReset();
  }
}

int SmartNic::ClaimingApp(const Packet& packet) const {
  for (size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].app->Matches(packet)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void SmartNic::Receive(Packet packet) {
  if (reprogramming_) {
    dropped_.Increment();  // "A momentary traffic halt" (§9.2).
    return;
  }
  if (packet.src == config_.host_node) {
    // Host egress: active apps observe their protocol on the way out
    // (LaKe-style fill from host replies after a miss).
    if (app_active_ && !engine_dead()) {
      for (HostedApp& hosted : apps_) {
        if (hosted.app->Matches(packet)) {
          hosted.app->OnHostEgress(*this, packet);
        }
      }
    }
    TransmitToNetwork(std::move(packet));
    return;
  }
  const int claimed = ClaimingApp(packet);
  if (claimed >= 0) {
    app_ingress_.Increment();
    app_ingress_rate_.RecordEvent(sim_.Now());
    if (app_active_ && !engine_power_gated_) {
      if (engine_dead()) {
        // The engine died with the classifier still steering into it:
        // claimed traffic is lost until recovery re-places the app.
        dead_dropped_.Increment();
        return;
      }
      AdmitToEngine(static_cast<size_t>(claimed), std::move(packet));
      return;
    }
  }
  DeliverToHost(std::move(packet));
}

std::optional<SimTime> SmartNic::ReserveEngineSlot(SimDuration service) {
  // One serialization point for every hosted app's firmware: next free slot
  // at `service` pacing, drop when the implied backlog overflows the input
  // queue.
  const SimTime now = sim_.Now();
  const SimTime start = std::max(now, busy_until_);
  const double backlog =
      static_cast<double>(start - now) /
      static_cast<double>(std::max<SimDuration>(service, 1));
  if (backlog > static_cast<double>(config_.queue_capacity)) {
    dropped_.Increment();
    return std::nullopt;
  }
  busy_until_ = start + service;
  return start + service + config_.processing_latency;
}

void SmartNic::AdmitToEngine(size_t app_index, Packet packet) {
  // Each packet is timed at its app's per-arch service interval.
  const std::optional<SimTime> done = ReserveEngineSlot(apps_[app_index].service);
  if (!done.has_value()) {
    return;
  }
  auto process = [this, app_index, pkt = std::move(packet)]() mutable {
    if (engine_dead()) {
      // Killed while this packet sat in the engine queue: the scheduled
      // completion must not run firmware on dead hardware.
      dead_dropped_.Increment();
      return;
    }
    processed_.Increment();
    processed_rate_.RecordEvent(sim_.Now());
    apps_[app_index].app->HandlePacket(*this, std::move(pkt));
  };
  static_assert(sizeof(process) <= InlineEvent::kInlineCapacity,
                "SmartNic engine events must stay inline");
  sim_.ScheduleAt(*done, std::move(process));
}

void SmartNic::TransmitToNetwork(Packet packet) {
  if (net_link_ == nullptr) {
    throw std::logic_error("SmartNic: no network link");
  }
  net_link_->Send(this, std::move(packet));
}

void SmartNic::DeliverToHost(Packet packet) {
  if (host_link_ == nullptr) {
    dropped_.Increment();
    return;
  }
  to_host_.Increment();
  host_link_->Send(this, std::move(packet));
}

double SmartNic::Utilization() const {
  // Busy fraction of the engine as provisioned: hosted firmware may sustain
  // only a per-arch fraction of the preset's peak, and saturating *that*
  // ceiling is 100 % utilization (keeps PowerWatts on the same envelope
  // MakeSmartNicRatePower charges the rack ledger).
  const double cap = OffloadCapacityPps();
  return std::min(1.0, processed_rate_.RatePerSecond(sim_.Now()) / cap);
}

double SmartNic::ProcessedRatePerSecond() const {
  return processed_rate_.RatePerSecond(sim_.Now());
}

double SmartNic::AppIngressRatePerSecond() const {
  return app_ingress_rate_.RatePerSecond(sim_.Now());
}

double SmartNic::OffloadCapacityPps() const {
  // Hosted apps share one engine: the binding ceiling is the slowest
  // installed firmware's (the preset's peak while none is installed).
  double capacity = preset_.peak_mpps * 1e6;
  for (const HostedApp& hosted : apps_) {
    capacity = std::min(capacity, hosted.capacity_pps);
  }
  return capacity;
}

double SmartNic::PowerWatts() const {
  const double engine_idle = preset_.idle_watts * config_.offload_engine_fraction;
  if (engine_dead()) {
    // A dead engine draws nothing beyond the base NIC datapath.
    return preset_.idle_watts - engine_idle;
  }
  if (app_active_) {
    return preset_.idle_watts + (preset_.max_watts - preset_.idle_watts) * Utilization();
  }
  if (engine_power_gated_) {
    return preset_.idle_watts - engine_idle;
  }
  if (clock_gating_) {
    // Mirror §5.1: clock gating keeps the engine's static ~60 %.
    return preset_.idle_watts - 0.4 * engine_idle;
  }
  return preset_.idle_watts;
}

}  // namespace incod
