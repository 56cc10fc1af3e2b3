#include "src/fault/fault_injector.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeviceDeath:
      return "device-death";
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kPsuBrownout:
      return "psu-brownout";
  }
  return "unknown";
}

void FaultInjector::RegisterTarget(const std::string& name, OffloadTarget* target,
                                   Simulation* sim) {
  if (target == nullptr) {
    throw std::invalid_argument("FaultInjector: null target for " + name);
  }
  targets_[name] = {target, sim};
}

void FaultInjector::RegisterNode(const std::string& name, PacketSink* sink,
                                 Simulation* sim) {
  if (sink == nullptr) {
    throw std::invalid_argument("FaultInjector: null node for " + name);
  }
  nodes_[name] = {sink, sim};
}

void FaultInjector::RegisterLink(const std::string& name, Link* link) {
  if (link == nullptr) {
    throw std::invalid_argument("FaultInjector: null link for " + name);
  }
  if (!links_.emplace(name, link).second) {
    // A second registration means two links answer to one name: a plan
    // could only ever flap one of them.
    throw std::invalid_argument("FaultInjector: link " + name + " registered twice");
  }
}

FaultInjector::DeathVictim FaultInjector::Resolve(const FaultEventSpec& spec) const {
  DeathVictim victim;
  // Offload targets take precedence: killing a registered target models
  // engine death mid-offload (the interesting §9 case); whole-node death is
  // what remains for plain sinks.
  const auto target_it = targets_.find(spec.target);
  if (target_it != targets_.end()) {
    victim.target = target_it->second.first;
    victim.sim = target_it->second.second;
    return victim;
  }
  const auto node_it = nodes_.find(spec.target);
  if (node_it != nodes_.end()) {
    victim.sink = node_it->second.first;
    victim.sim = node_it->second.second;
    return victim;
  }
  throw std::invalid_argument("FaultInjector: unknown device-death target '" +
                              spec.target + "'");
}

void FaultInjector::Record(const FaultEventSpec& spec) {
  fault_log_.push_back(
      FaultRecord{spec.kind, home_.Now(), spec.target, spec.power_cap_watts});
  switch (spec.kind) {
    case FaultKind::kDeviceDeath:
      ++device_deaths_;
      break;
    case FaultKind::kLinkDown:
      ++link_down_events_;
      break;
    case FaultKind::kLinkUp:
      ++link_up_events_;
      break;
    case FaultKind::kPsuBrownout:
      ++brownouts_;
      if (power_cap_handler_) {
        power_cap_handler_(spec.power_cap_watts);
      }
      break;
  }
}

void FaultInjector::Arm(const FaultPlanSpec& plan) {
  for (const FaultEventSpec& spec : plan.events) {
    // Each fault is two ordinary events scheduled now, at setup: the audit
    // record in the home sim, and the application in the sim that owns the
    // victim's state. Fixed times + fixed schedule order keep single-queue
    // and sharded runs event-identical.
    switch (spec.kind) {
      case FaultKind::kDeviceDeath: {
        const DeathVictim victim = Resolve(spec);
        home_.ScheduleAt(spec.at, [this, spec] { Record(spec); });
        Simulation& apply = victim.sim != nullptr ? *victim.sim : home_;
        if (victim.target != nullptr) {
          apply.ScheduleAt(spec.at, [t = victim.target] { t->KillEngine(); });
        } else {
          apply.ScheduleAt(spec.at, [s = victim.sink] { s->SetAlive(false); });
        }
        break;
      }
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp: {
        const auto it = links_.find(spec.target);
        if (it == links_.end()) {
          throw std::invalid_argument("FaultInjector: unknown link '" +
                                      spec.target + "'");
        }
        home_.ScheduleAt(spec.at, [this, spec] { Record(spec); });
        if (spec.kind == FaultKind::kLinkDown) {
          it->second->ScheduleDown(spec.at);
        } else {
          it->second->ScheduleUp(spec.at);
        }
        break;
      }
      case FaultKind::kPsuBrownout:
        home_.ScheduleAt(spec.at, [this, spec] { Record(spec); });
        break;
    }
  }
}

std::vector<std::string> FaultInjector::TargetNames() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : targets_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> FaultInjector::LinkNames() const {
  std::vector<std::string> names;
  for (const auto& [name, link] : links_) {
    names.push_back(name);
  }
  return names;
}

FaultPlanSpec MakeRandomFaultPlan(Rng& rng,
                                  const std::vector<std::string>& target_names,
                                  const std::vector<std::string>& link_names,
                                  const RandomFaultPlanConfig& config) {
  FaultPlanSpec plan;
  const SimTime horizon = std::max<SimTime>(config.horizon, 1);
  for (const std::string& name : target_names) {
    if (rng.Bernoulli(config.death_probability)) {
      FaultEventSpec spec;
      spec.kind = FaultKind::kDeviceDeath;
      spec.at = rng.UniformInt(1, horizon);
      spec.target = name;
      plan.events.push_back(std::move(spec));
    }
  }
  const SimDuration min_gap = horizon / 100;
  const SimDuration max_gap = horizon / 10;
  for (const std::string& name : link_names) {
    const int flaps =
        static_cast<int>(rng.UniformInt(0, config.max_flaps_per_link));
    for (int i = 0; i < flaps; ++i) {
      // Down is always paired with a later up; overlapping windows are fine
      // (the flags are idempotent booleans).
      const SimTime down_at = rng.UniformInt(1, horizon);
      const SimTime up_at = down_at + rng.UniformInt(min_gap, max_gap);
      plan.events.push_back(FaultEventSpec{FaultKind::kLinkDown, down_at, name, 0});
      plan.events.push_back(FaultEventSpec{FaultKind::kLinkUp, up_at, name, 0});
    }
  }
  if (config.max_cap_watts > config.min_cap_watts) {
    const int steps = static_cast<int>(rng.UniformInt(0, config.max_brownouts));
    for (int i = 0; i < steps; ++i) {
      FaultEventSpec spec;
      spec.kind = FaultKind::kPsuBrownout;
      spec.at = rng.UniformInt(1, horizon);
      spec.target = "psu";
      spec.power_cap_watts =
          rng.UniformDouble(config.min_cap_watts, config.max_cap_watts);
      plan.events.push_back(std::move(spec));
    }
  }
  return plan;
}

}  // namespace incod
