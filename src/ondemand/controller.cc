#include "src/ondemand/controller.h"

namespace incod {

OnDemandController::OnDemandController(Simulation& sim, Migrator& migrator,
                                       SimDuration check_period, SimDuration min_dwell)
    : sim_(sim), migrator_(migrator), check_period_(check_period), min_dwell_(min_dwell) {}

OnDemandController::OnDemandController(Simulation& sim, OffloadTarget& target,
                                       Migrator& migrator, NetworkControllerConfig config)
    : OnDemandController(sim, migrator, config.check_period, config.min_dwell) {
  auto ingress = [&target] { return target.app_ingress_packets(); };
  up_.push_back(Gate{.counter = ingress,
                     .at_least = true,
                     .threshold = config.up_rate_pps,
                     .mean = SlidingWindowMean(config.up_window)});
  down_.push_back(Gate{.counter = ingress,
                       .at_least = false,
                       .threshold = config.down_rate_pps,
                       .mean = SlidingWindowMean(config.down_window)});
}

OnDemandController::OnDemandController(Simulation& sim, Server& server, AppProto app,
                                       RaplCounter& rapl, OffloadTarget& target,
                                       Migrator& migrator, HostControllerConfig config)
    : OnDemandController(sim, migrator, config.check_period, config.min_dwell) {
  // RAPL read: average package watts since the previous check.
  auto energy_uj = [&rapl] { return rapl.EnergyMicrojoules(); };
  // "If the application exceeds a (programmable) power threshold set for
  // offloading, and CPU usage is high, the controller shifts the workload
  // to the network" — inspected over time (§9.1).
  up_.push_back(Gate{.counter = energy_uj,
                     .counter_unit = 1e6,
                     .at_least = true,
                     .threshold = config.up_power_watts,
                     .mean = SlidingWindowMean(config.up_window)});
  up_.push_back(Gate{.level = [&server, app] { return server.AppCpuUsage(app); },
                     .at_least = true,
                     .threshold = config.up_cpu_usage,
                     .mean = SlidingWindowMean(config.up_window)});
  // "In order to shift back to the host from the network, the controller
  // needs information from the network (e.g., packet rate processed using
  // in-network computing)" (§9.1).
  down_.push_back(Gate{.level = [&target] { return target.ProcessedRatePerSecond(); },
                       .at_least = false,
                       .threshold = config.down_rate_pps,
                       .mean = SlidingWindowMean(config.down_window)});
  down_.push_back(Gate{.counter = energy_uj,
                       .counter_unit = 1e6,
                       .at_least = false,
                       .threshold = config.down_power_watts,
                       .mean = SlidingWindowMean(config.down_window)});
}

double OnDemandController::Gate::Read(SimDuration dt) {
  if (!counter) {
    return level();
  }
  const uint64_t count = counter();
  const double rate = static_cast<double>(count - last_count) / counter_unit / ToSeconds(dt);
  last_count = count;
  return rate;
}

void OnDemandController::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  last_tick_ = sim_.Now();
  for (auto* gates : {&up_, &down_}) {
    for (Gate& gate : *gates) {
      if (gate.counter) {
        gate.last_count = gate.counter();
      }
    }
  }
  SchedulePeriodic(sim_, check_period_, check_period_, [this] {
    Tick();
    return true;
  });
}

void OnDemandController::Tick() {
  const SimTime now = sim_.Now();
  const SimDuration dt = now - last_tick_;
  if (dt <= 0) {
    return;
  }
  last_tick_ = now;
  for (auto* gates : {&up_, &down_}) {
    for (Gate& gate : *gates) {
      gate.mean.AddSample(now, gate.Read(dt));
    }
  }

  if (now - last_shift_ < min_dwell_) {
    return;
  }
  const bool on_host = migrator_.placement() == Placement::kHost;
  for (Gate& gate : on_host ? up_ : down_) {
    if (!gate.mean.WindowFull(now)) {
      return;
    }
    const double mean = gate.mean.Mean(now);
    if (gate.at_least ? mean < gate.threshold : mean > gate.threshold) {
      return;
    }
  }
  if (on_host) {
    migrator_.ShiftToNetwork();
  } else {
    migrator_.ShiftToHost();
  }
  last_shift_ = now;
  for (Gate& gate : on_host ? down_ : up_) {
    gate.mean.Clear();
  }
}

}  // namespace incod
