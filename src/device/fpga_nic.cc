#include "src/device/fpga_nic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

namespace {
// Module names used in the board ledger.
constexpr const char* kShellModule = "shell";
constexpr const char* kPcieModule = "pcie_dma";

bool IsMemoryModule(const std::string& name) {
  return name == "dram_if" || name == "sram_if";
}
}  // namespace

FpgaNic::FpgaNic(Simulation& sim, FpgaNicConfig config)
    : sim_(sim),
      config_(std::move(config)),
      ledger_(config_.name + "/board"),
      processed_rate_(config_.rate_window),
      app_ingress_rate_(config_.rate_window) {
  ModulePowerSpec shell = MakeModuleSpec(kShellModule, kFpgaShellWatts, 1.0, 1.0);
  ModulePowerSpec pcie = MakeModuleSpec(kPcieModule, kFpgaPcieWatts, 1.0, 1.0);
  ledger_.AddModule(shell, ModulePowerState::kIdle);
  ledger_.AddModule(pcie, ModulePowerState::kIdle);
}

void FpgaNic::InstallApp(App* app) {
  if (app_ != nullptr) {
    throw std::logic_error("FpgaNic: an app is already installed");
  }
  if (app == nullptr) {
    throw std::invalid_argument("FpgaNic::InstallApp: null app");
  }
  if (!app->SupportsPlacement(PlacementKind::kFpgaNic)) {
    throw std::invalid_argument("FpgaNic: " + app->AppName() +
                                " does not support the FPGA-NIC placement");
  }
  app_ = app;
  app_->BindContext(this);
  profile_ = app_->OffloadProfile();
  pipeline_ = profile_.pipeline;
  if (pipeline_.workers < 1) {
    throw std::invalid_argument("FpgaNic: pipeline needs >= 1 worker");
  }
  workers_.assign(static_cast<size_t>(pipeline_.workers), Worker{});
  for (const auto& spec : profile_.power_modules) {
    ledger_.AddModule(spec, ModulePowerState::kIdle);
    if (IsMemoryModule(spec.name)) {
      app_memory_modules_.push_back(spec.name);
    } else {
      app_logic_modules_.push_back(spec.name);
    }
  }
  UpdateLogicStates();
}

void FpgaNic::SetAppActive(bool active) {
  if (app_ == nullptr && active) {
    throw std::logic_error("FpgaNic: no app installed");
  }
  if (app_active_ == active) {
    return;
  }
  app_active_ = active;
  if (app_ != nullptr) {
    if (active) {
      app_->OnActivate();
    } else {
      app_->OnDeactivate();
    }
  }
  UpdateLogicStates();
}

void FpgaNic::SetClockGating(bool enabled) {
  clock_gating_ = enabled;
  UpdateLogicStates();
}

void FpgaNic::SetMemoryReset(bool enabled) {
  const bool entering_reset = enabled && !memory_reset_;
  memory_reset_ = enabled;
  UpdateLogicStates();
  if (entering_reset && app_ != nullptr) {
    app_->OnMemoryReset();
  }
}

void FpgaNic::PowerGateModule(const std::string& module) {
  ledger_.SetState(module, ModulePowerState::kPowerGated);
  power_gated_.push_back(module);
}

void FpgaNic::UpdateLogicStates() {
  auto is_gated = [this](const std::string& name) {
    return std::find(power_gated_.begin(), power_gated_.end(), name) != power_gated_.end();
  };
  for (const auto& name : app_logic_modules_) {
    if (is_gated(name)) {
      continue;
    }
    if (app_active_) {
      ledger_.SetState(name, ModulePowerState::kActive);
    } else {
      ledger_.SetState(name, clock_gating_ ? ModulePowerState::kClockGated
                                           : ModulePowerState::kIdle);
    }
  }
  for (const auto& name : app_memory_modules_) {
    if (is_gated(name)) {
      continue;
    }
    if (app_active_) {
      ledger_.SetState(name, ModulePowerState::kActive);
    } else {
      ledger_.SetState(name, memory_reset_ ? ModulePowerState::kReset
                                           : ModulePowerState::kIdle);
    }
  }
}

void FpgaNic::SetReprogramming(bool reprogramming) { reprogramming_ = reprogramming; }

void FpgaNic::PowerGateParkedApp() {
  // The bitstream is not resident while parked: only the always-on shell,
  // PCIe/DMA, and external memory interfaces keep drawing (§9.2).
  for (const auto& name : ledger_.ModuleNames()) {
    if (name != kShellModule && name != kPcieModule && !IsMemoryModule(name)) {
      ledger_.SetState(name, ModulePowerState::kPowerGated);
    }
  }
}

std::string FpgaNic::TargetName() const {
  if (app_ != nullptr) {
    return config_.name + "/" + app_->AppName();
  }
  return config_.name;
}

void FpgaNic::Receive(Packet packet) {
  if (reprogramming_) {
    dropped_.Increment();
    return;
  }
  const bool from_host = packet.src == config_.host_node;
  if (from_host) {
    if (app_ != nullptr && app_active_ && !engine_dead() && app_->Matches(packet)) {
      app_->OnHostEgress(*this, packet);
    }
    TransmitToNetwork(std::move(packet));
    return;
  }
  // Network-side ingress: the packet classifier decides (LaKe's classifier,
  // and the one this paper adds to Emu DNS, §3.3). Ingress is counted even
  // after engine death so the rate signal the orchestrator re-places on
  // survives the fault.
  if (app_ != nullptr && app_->Matches(packet)) {
    app_ingress_.Increment();
    app_ingress_rate_.RecordEvent(sim_.Now());
  }
  if (app_active_ && app_ != nullptr && app_->Matches(packet)) {
    if (engine_dead()) {
      // Classifier still steers into the (dead) app core: the packet is
      // lost, not silently serviced and not punted — the host placement is
      // only authoritative again after recovery flips the classifier.
      dead_dropped_.Increment();
      return;
    }
    sim_.Schedule(config_.classifier_latency,
                  [this, pkt = std::move(packet)]() mutable { AdmitToPipeline(std::move(pkt)); });
    return;
  }
  DeliverToHost(std::move(packet));
}

void FpgaNic::AdmitToPipeline(Packet packet) {
  if (engine_dead()) {
    dead_dropped_.Increment();
    return;
  }
  // Pick the worker that frees up first (input arbiter).
  const SimTime now = sim_.Now();
  Worker* best = nullptr;
  for (auto& w : workers_) {
    if (best == nullptr || w.busy_until < best->busy_until) {
      best = &w;
    }
  }
  const SimTime start = std::max(now, best->busy_until);
  // Bound the backlog: waiting time divided by service gives queue depth.
  const double backlog =
      static_cast<double>(start - now) / static_cast<double>(std::max<SimDuration>(
                                             pipeline_.worker_service, 1));
  if (backlog > static_cast<double>(pipeline_.input_queue_capacity)) {
    dropped_.Increment();
    return;
  }
  best->busy_until = start + pipeline_.worker_service;
  const SimTime done = start + pipeline_.worker_service + pipeline_.pipeline_latency;
  sim_.ScheduleAt(done, [this, pkt = std::move(packet)]() mutable {
    if (engine_dead()) {
      // The engine died while this packet sat in the pipeline: the scheduled
      // completion must not run app code against dead hardware.
      dead_dropped_.Increment();
      return;
    }
    hw_processed_.Increment();
    processed_rate_.RecordEvent(sim_.Now());
    app_->HandlePacket(*this, std::move(pkt));
  });
}

void FpgaNic::TransmitToNetwork(Packet packet) {
  if (net_link_ == nullptr) {
    throw std::logic_error("FpgaNic: no network link");
  }
  net_link_->Send(this, std::move(packet));
}

void FpgaNic::DeliverToHost(Packet packet) {
  if (host_link_ == nullptr) {
    // Standalone operation: no host. Count and drop.
    dropped_.Increment();
    return;
  }
  to_host_.Increment();
  host_link_->Send(this, std::move(packet));
}

double FpgaNic::CapacityPps() const {
  if (app_ == nullptr || pipeline_.worker_service <= 0) {
    return 0;
  }
  return static_cast<double>(pipeline_.workers) * 1e9 /
         static_cast<double>(pipeline_.worker_service);
}

double FpgaNic::ProcessedRatePerSecond() const {
  return processed_rate_.RatePerSecond(sim_.Now());
}

double FpgaNic::AppIngressRatePerSecond() const {
  return app_ingress_rate_.RatePerSecond(sim_.Now());
}

double FpgaNic::Utilization() const {
  const double cap = CapacityPps();
  if (cap <= 0) {
    return 0;
  }
  return std::min(1.0, ProcessedRatePerSecond() / cap);
}

double FpgaNic::PowerWatts() const {
  double dc = ledger_.PowerWatts();
  if (app_ != nullptr && app_active_ && !engine_dead()) {
    dc += profile_.dynamic_watts_at_capacity * Utilization();
  }
  if (config_.standalone) {
    return standalone_psu_.WallWatts(dc + kStandaloneOverheadWatts);
  }
  return dc;
}

}  // namespace incod
