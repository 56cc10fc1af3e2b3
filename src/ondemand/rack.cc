#include "src/ondemand/rack.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

PowerBudget::PowerBudget(double budget_watts)
    : budget_(budget_watts), unlimited_(budget_watts <= 0) {}

void PowerBudget::SetBudgetWatts(double watts) {
  budget_ = std::max(0.0, watts);
  unlimited_ = false;
}

double PowerBudget::committed_watts() const {
  double total = 0;
  for (const auto& [key, watts] : commitments_) {
    total += watts;
  }
  return total;
}

double PowerBudget::RemainingWatts() const {
  if (unlimited()) {
    return std::numeric_limits<double>::infinity();
  }
  return budget_ - committed_watts();
}

bool PowerBudget::TryCommit(const std::string& key, double watts) {
  if (watts < 0) {
    throw std::invalid_argument("PowerBudget: negative commitment");
  }
  double prior = 0;
  auto it = commitments_.find(key);
  if (it != commitments_.end()) {
    prior = it->second;
  }
  // Rejecting a shrink while over budget would wedge the ledger there.
  if (!unlimited() && watts > prior && committed_watts() - prior + watts > budget_) {
    return false;
  }
  commitments_[key] = watts;
  return true;
}

void PowerBudget::Release(const std::string& key) { commitments_.erase(key); }

// ---------------------------------------------------------------------------

RackOrchestrator::RackOrchestrator(Simulation& sim, RackOrchestratorConfig config)
    : sim_(sim), config_(config), ledger_(config.power_budget_watts) {}

size_t RackOrchestrator::AddApp(RackAppSpec spec) {
  if (started_) {
    throw std::logic_error("RackOrchestrator: AddApp after Start");
  }
  if (spec.software_watts == nullptr || spec.measured_rate_pps == nullptr) {
    throw std::invalid_argument("RackOrchestrator: app needs rate + power models");
  }
  // App names key the shared ledger: duplicates would silently merge two
  // apps' budget commitments into one slot.
  if (spec.name.empty()) {
    throw std::invalid_argument("RackOrchestrator: app needs a name");
  }
  for (const auto& existing : apps_) {
    if (existing.spec.name == spec.name) {
      throw std::invalid_argument("RackOrchestrator: duplicate app name " + spec.name);
    }
  }
  for (const auto& option : spec.options) {
    if (option.migrator == nullptr || option.network_watts == nullptr) {
      throw std::invalid_argument("RackOrchestrator: incomplete placement option");
    }
  }
  ManagedApp state;
  state.spec = std::move(spec);
  apps_.push_back(std::move(state));
  return apps_.size() - 1;
}

void RackOrchestrator::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  SchedulePeriodic(sim_, config_.check_period, config_.check_period, [this] {
    if (stopped_) {
      return false;
    }
    Tick();
    return true;
  });
  SchedulePeriodic(sim_, config_.sample_period, config_.sample_period, [this] {
    if (stopped_) {
      return false;
    }
    Sample();
    return true;
  });
  if (config_.heartbeat_period > 0) {
    SchedulePeriodic(sim_, config_.heartbeat_period, config_.heartbeat_period, [this] {
      if (stopped_) {
        return false;
      }
      Heartbeat();
      return true;
    });
  }
  for (size_t i = 0; i < apps_.size(); ++i) {
    const SimDuration period = CheckpointPeriodFor(apps_[i]);
    if (period <= 0) {
      continue;
    }
    SchedulePeriodic(sim_, period, period, [this, i] {
      if (stopped_) {
        return false;
      }
      CheckpointApp(apps_[i]);
      return true;
    });
  }
}

SimDuration RackOrchestrator::CheckpointPeriodFor(const ManagedApp& app) const {
  return app.spec.checkpoint_period >= 0 ? app.spec.checkpoint_period
                                         : config_.checkpoint_period;
}

OffloadTarget* RackOrchestrator::CurrentTarget(const ManagedApp& app) {
  if (app.active_option < 0) {
    return nullptr;
  }
  return &app.spec.options[static_cast<size_t>(app.active_option)].migrator->target();
}

const RackPlacementOption* RackOrchestrator::current_option(size_t index) const {
  const ManagedApp& app = apps_.at(index);
  if (app.active_option < 0) {
    return nullptr;
  }
  return &app.spec.options[static_cast<size_t>(app.active_option)];
}

uint64_t RackOrchestrator::ShiftsToTarget(const OffloadTarget& target) const {
  auto it = shifts_to_target_.find(&target);
  return it == shifts_to_target_.end() ? 0 : it->second;
}

double RackOrchestrator::OffloadDemandWatts() const {
  double demand = 0;
  for (const auto& app : apps_) {
    if (app.active_option >= 0) {
      const auto it = ledger_.commitments().find(app.spec.name);
      demand += it != ledger_.commitments().end() ? it->second : 0;
      continue;
    }
    // At home: the cheapest alive option's would-be ledger increment at the
    // measured rate (an upper bound on what the next tick could commit).
    const double rate = app.spec.measured_rate_pps();
    const double home_idle = app.spec.software_watts(0);
    double best = std::numeric_limits<double>::infinity();
    for (const auto& option : app.spec.options) {
      if (!option.migrator->target().TargetAlive()) {
        continue;
      }
      best = std::min(best, std::max(0.0, option.network_watts(rate) - home_idle));
    }
    if (best < std::numeric_limits<double>::infinity()) {
      demand += best;
    }
  }
  return demand;
}

double RackOrchestrator::CommittedPps(const OffloadTarget& target) const {
  double total = 0;
  for (const auto& app : apps_) {
    if (CurrentTarget(app) == &target) {
      total += app.committed_rate_pps;
    }
  }
  return total;
}

void RackOrchestrator::Tick() {
  for (auto& app : apps_) {
    DecideForApp(app);
  }
}

void RackOrchestrator::Sample() {
  const SimTime now = sim_.Now();
  committed_series_.Append(now, ledger_.committed_watts());
  // Measured watts across the distinct targets the rack can offload to.
  double measured = 0;
  std::vector<const OffloadTarget*> seen;
  size_t offloaded = 0;
  for (const auto& app : apps_) {
    if (app.active_option >= 0) {
      ++offloaded;
    }
    for (const auto& option : app.spec.options) {
      const OffloadTarget* target = &option.migrator->target();
      if (std::find(seen.begin(), seen.end(), target) == seen.end()) {
        seen.push_back(target);
        measured += target->OffloadPowerWatts();
      }
    }
  }
  measured_series_.Append(now, measured);
  offloaded_series_.Append(now, static_cast<double>(offloaded));
}

bool RackOrchestrator::OptionEligible(const ManagedApp& app,
                                      const RackPlacementOption& option,
                                      double rate, bool is_current) const {
  if (!option.migrator->target().TargetAlive()) {
    return false;  // Dead silicon cannot host anything.
  }
  if (!is_current && option.migrator->target().reprogramming()) {
    return false;  // Mid-reconfiguration: the data path is halted.
  }
  const double capacity = option.migrator->target().OffloadCapacityPps();
  if (capacity > 0) {
    // Capacity already promised to *other* apps on this target.
    double committed = CommittedPps(option.migrator->target());
    if (CurrentTarget(app) == &option.migrator->target()) {
      committed -= app.committed_rate_pps;
    }
    if (committed + rate > capacity) {
      return false;
    }
  }
  return true;
}

double RackOrchestrator::PredictOptionWatts(const RackPlacementOption& option,
                                            double rate) const {
  double watts = option.network_watts(rate);
  if (option.migrator->options().policy == ParkPolicy::kReprogram &&
      option.migrator->target().Traits().supports_reprogramming) {
    // Bias against halt-incurring placements so warm targets win ties.
    watts += kReprogramPenaltyWatts;
  }
  return watts;
}

void RackOrchestrator::DecideForApp(ManagedApp& app) {
  ++decisions_;
  const SimTime now = sim_.Now();
  if (now - app.last_shift < config_.min_dwell) {
    return;
  }
  // A dead current placement belongs to the failure detector: recovery must
  // abandon (never snapshot state out of dead hardware), so an economics
  // tick that would ShiftToHost has to stand aside until the heartbeat
  // declares the target failed.
  const OffloadTarget* current_target = CurrentTarget(app);
  if (current_target != nullptr && !current_target->TargetAlive()) {
    return;
  }
  // Park while the app's own target reprograms: the shift we started is
  // still in flight (data path halted, state not yet installed), so any
  // decision now would act on a placement that does not exist yet.
  if (current_target != nullptr && current_target->reprogramming()) {
    ++reprogram_deferrals_;
    decision_log_.push_back(RackDecisionRecord{RackDecisionRecord::Kind::kDeferral, now,
                                               app.spec.name, current_target->TargetName(),
                                               false});
    return;
  }
  const double rate = app.spec.measured_rate_pps();
  const double software = app.spec.software_watts(rate);

  // Greedy choice: cheapest eligible target at the measured rate. Ranking
  // uses the reprogram-penalized prediction so warm targets win ties; the
  // ledger only ever carries the unpenalized (real) watts.
  int best = -1;
  double best_ranked = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < app.spec.options.size(); ++i) {
    const auto& option = app.spec.options[i];
    if (!OptionEligible(app, option, rate,
                        static_cast<int>(i) == app.active_option)) {
      continue;
    }
    const double ranked = PredictOptionWatts(option, rate);
    if (ranked < best_ranked) {
      best_ranked = ranked;
      best = static_cast<int>(i);
    }
  }

  // PDU headroom an offload actually consumes: the increment over what the
  // host draws anyway when the app idles at home.
  auto commit_watts = [&](int index) {
    const double real = app.spec.options[static_cast<size_t>(index)].network_watts(rate);
    return std::max(0.0, real - app.spec.software_watts(0));
  };

  // Every shift is a classifier flip + optional typed-state transfer
  // through the generic migrator core; the app's warm/cold policy decides
  // whether state rides along.
  auto apply_policy = [&](StateTransferMigrator& migrator) {
    migrator.SetTransferState(app.spec.warm_migration);
  };
  auto count_shift = [&](RackDecisionRecord::Kind kind, const std::string& target) {
    ++total_shifts_;
    if (app.spec.warm_migration) {
      ++warm_shifts_;
    }
    decision_log_.push_back(RackDecisionRecord{kind, now, app.spec.name, target,
                                               app.spec.warm_migration});
  };
  auto place_on = [&](int index) {
    auto& option = app.spec.options[static_cast<size_t>(index)];
    apply_policy(*option.migrator);
    option.migrator->ShiftToNetwork();
    app.active_option = index;
    app.committed_rate_pps = rate;
    app.last_shift = now;
    ++shifts_to_target_[&option.migrator->target()];
    count_shift(RackDecisionRecord::Kind::kShift, option.migrator->target().TargetName());
  };
  auto go_home = [&]() { ShiftAppHome(app, /*abandon=*/false); };

  if (app.active_option < 0) {
    // On host: offload if the best target saves enough and the shared
    // budget can absorb it.
    if (best < 0 || software - best_ranked < kMinSavingWatts) {
      return;
    }
    if (!ledger_.TryCommit(LedgerKey(app), commit_watts(best))) {
      return;  // PDU headroom exhausted: stay home.
    }
    place_on(best);
    return;
  }

  // Offloaded: re-evaluate the current placement at today's rate.
  auto& current = app.spec.options[static_cast<size_t>(app.active_option)];
  const double current_watts = current.network_watts(rate);
  const bool over_capacity = !OptionEligible(app, current, rate, /*is_current=*/true);
  if (over_capacity || software + kMinSavingWatts < current_watts) {
    go_home();
    return;
  }
  // A strictly cheaper eligible target may have freed up since placement:
  // keep the greedy invariant by migrating over (through a host bounce, the
  // only transition migrators provide).
  if (best >= 0 && best != app.active_option &&
      PredictOptionWatts(current, rate) - best_ranked >= kMinSavingWatts) {
    if (ledger_.TryCommit(LedgerKey(app), commit_watts(best))) {
      // Warm apps carry their state through the host bounce: the outgoing
      // placement snapshots into the host app, and place_on() moves the
      // host app's state onto the incoming target.
      apply_policy(*current.migrator);
      current.migrator->ShiftToHost();
      place_on(best);
      return;
    }
  }
  // Keep the ledger tracking the rate actually served (budget re-check: a
  // risen rate may no longer fit the shared headroom — if so, go home).
  if (!ledger_.TryCommit(LedgerKey(app), commit_watts(app.active_option))) {
    go_home();
    return;
  }
  app.committed_rate_pps = rate;
}

void RackOrchestrator::ShiftAppHome(ManagedApp& app, bool abandon) {
  if (app.active_option < 0) {
    return;
  }
  const SimTime now = sim_.Now();
  auto& option = app.spec.options[static_cast<size_t>(app.active_option)];
  option.migrator->SetTransferState(app.spec.warm_migration);
  if (abandon) {
    option.migrator->AbandonToHost();
  } else {
    option.migrator->ShiftToHost();
  }
  ledger_.Release(LedgerKey(app));
  app.active_option = -1;
  app.committed_rate_pps = 0;
  app.last_shift = now;
  ++total_shifts_;
  if (app.spec.warm_migration) {
    ++warm_shifts_;
  }
  decision_log_.push_back(RackDecisionRecord{RackDecisionRecord::Kind::kShiftHome,
                                             now, app.spec.name, std::string(),
                                             app.spec.warm_migration});
}

void RackOrchestrator::ForcePlacement(size_t app_index, int option_index) {
  ManagedApp& app = apps_.at(app_index);
  if (option_index < 0 ||
      static_cast<size_t>(option_index) >= app.spec.options.size()) {
    throw std::invalid_argument("RackOrchestrator: bad option index for " +
                                app.spec.name);
  }
  if (app.active_option == option_index) {
    return;
  }
  if (app.active_option >= 0) {
    ShiftAppHome(app, /*abandon=*/false);
  }
  const SimTime now = sim_.Now();
  auto& option = app.spec.options[static_cast<size_t>(option_index)];
  const double rate = app.spec.measured_rate_pps();
  const double commit =
      std::max(0.0, option.network_watts(rate) - app.spec.software_watts(0));
  if (!ledger_.TryCommit(LedgerKey(app), commit)) {
    throw std::logic_error("RackOrchestrator: ForcePlacement of " + app.spec.name +
                           " does not fit the power budget");
  }
  option.migrator->SetTransferState(app.spec.warm_migration);
  option.migrator->ShiftToNetwork();
  app.active_option = option_index;
  app.committed_rate_pps = rate;
  app.last_shift = now;
  ++shifts_to_target_[&option.migrator->target()];
  ++total_shifts_;
  if (app.spec.warm_migration) {
    ++warm_shifts_;
  }
  decision_log_.push_back(RackDecisionRecord{RackDecisionRecord::Kind::kShift, now,
                                             app.spec.name,
                                             option.migrator->target().TargetName(),
                                             app.spec.warm_migration});
}

void RackOrchestrator::CheckpointApp(ManagedApp& app) {
  if (app.active_option < 0) {
    return;  // At home: the host copy *is* the state; nothing to snapshot.
  }
  auto& option = app.spec.options[static_cast<size_t>(app.active_option)];
  if (!option.migrator->target().TargetAlive()) {
    return;  // Cannot snapshot dead hardware; keep the previous checkpoint.
  }
  std::optional<AppState> state = option.migrator->CheckpointOffloadState();
  if (!state.has_value()) {
    return;  // Not serving yet (e.g. mid-reprogram): nothing meaningful.
  }
  app.latest_checkpoint = std::move(*state);
  app.checkpoint_at = sim_.Now();
  ++checkpoints_taken_;
}

void RackOrchestrator::SetHeartbeatReachability(const OffloadTarget* target,
                                                std::function<bool()> reachable) {
  if (reachable == nullptr) {
    reachability_.erase(target);
    return;
  }
  reachability_[target] = std::move(reachable);
}

void RackOrchestrator::Heartbeat() {
  // Poll every distinct target referenced by any app's options. A heartbeat
  // is missed when the device is dead *or* the probe path to it is down;
  // the two only become distinguishable once the path answers again, so the
  // detector acts at the failure threshold on what it can actually know:
  //  * reachable and dead      -> declare the target failed (recovery runs);
  //  * unreachable (any state) -> a flap in progress looks identical to a
  //    death from here, but declaring failure would abandon a live
  //    placement — suppress, log kFlapSuppressed once per streak, and keep
  //    counting. A flap that heals with the device alive resets the streak
  //    (no recovery ever fires); one that heals onto a dead device crosses
  //    straight into the failure branch on the next poll.
  std::set<OffloadTarget*> polled;
  for (auto& app : apps_) {
    for (auto& option : app.spec.options) {
      polled.insert(&option.migrator->target());
    }
  }
  for (OffloadTarget* target : polled) {
    if (failed_targets_.count(target) != 0) {
      continue;  // Already declared; recovery ran.
    }
    const auto channel = reachability_.find(target);
    const bool reachable = channel == reachability_.end() || channel->second();
    if (target->TargetAlive() && reachable) {
      heartbeat_misses_[target] = 0;
      flap_suspected_.erase(target);
      continue;
    }
    if (++heartbeat_misses_[target] < kFailureThreshold) {
      continue;
    }
    if (reachable) {
      DeclareTargetFailed(target);
      continue;
    }
    if (flap_suspected_.insert(target).second) {
      ++flap_suppressions_;
      decision_log_.push_back(
          RackDecisionRecord{RackDecisionRecord::Kind::kFlapSuppressed, sim_.Now(),
                             std::string(), target->TargetName(), false});
    }
  }
}

void RackOrchestrator::DeclareTargetFailed(OffloadTarget* target) {
  failed_targets_.insert(target);
  flap_suspected_.erase(target);
  ++failures_detected_;
  decision_log_.push_back(RackDecisionRecord{RackDecisionRecord::Kind::kFailure,
                                             sim_.Now(), std::string(),
                                             target->TargetName(), false});
  for (auto& app : apps_) {
    if (CurrentTarget(app) == target) {
      RecoverApp(app);
    }
  }
}

void RackOrchestrator::RecoverApp(ManagedApp& app) {
  const SimTime now = sim_.Now();
  auto& failed = app.spec.options[static_cast<size_t>(app.active_option)];
  // Abandon, never shift: a shift home would snapshot the dead placement's
  // state. The classifier flips home, the ledger commitment is released.
  failed.migrator->AbandonToHost();
  ledger_.Release(LedgerKey(app));
  app.active_option = -1;
  app.committed_rate_pps = 0;
  const bool warm = app.checkpoint_at >= 0;
  if (warm && app.spec.restore_checkpoint_to_home) {
    // The host copy is stale by design (e.g. a Paxos leader's ballot and
    // sequence live wherever the leader last ran): install the checkpoint
    // before the host placement resumes service.
    failed.migrator->RestoreCheckpointTo(Placement::kHost, app.latest_checkpoint);
  }
  // Re-run the greedy placement pass immediately, dwell-exempt: the fault
  // already cost the app its placement, waiting out min_dwell would only
  // stretch the outage.
  app.last_shift = now - config_.min_dwell;
  DecideForApp(app);
  std::string landed;
  if (app.active_option >= 0) {
    auto& option = app.spec.options[static_cast<size_t>(app.active_option)];
    landed = option.migrator->target().TargetName();
    if (warm && !app.spec.warm_migration) {
      // The cold-policy shift carried no state: warm-start the surviving
      // placement from the checkpoint (the whole point of taking them).
      option.migrator->RestoreCheckpointTo(Placement::kNetwork,
                                           app.latest_checkpoint);
    }
  }
  ++recoveries_;
  decision_log_.push_back(RackDecisionRecord{RackDecisionRecord::Kind::kRecovery,
                                             now, app.spec.name, landed, warm});
}

void RackOrchestrator::ApplyPowerCap(double watts) {
  ledger_.SetBudgetWatts(watts);
  // Restore the invariant committed <= budget immediately: evict the
  // largest commitments first (fewest victims).
  while (ledger_.committed_watts() > ledger_.budget_watts()) {
    ManagedApp* victim = nullptr;
    double victim_watts = -1;
    for (auto& app : apps_) {
      if (app.active_option < 0) {
        continue;
      }
      const auto it = ledger_.commitments().find(LedgerKey(app));
      const double committed = it != ledger_.commitments().end() ? it->second : 0;
      if (committed > victim_watts) {
        victim = &app;
        victim_watts = committed;
      }
    }
    if (victim == nullptr) {
      break;  // Nothing left to evict; the budget is simply lower now.
    }
    const auto& option =
        victim->spec.options[static_cast<size_t>(victim->active_option)];
    ShiftAppHome(*victim, /*abandon=*/!option.migrator->target().TargetAlive());
  }
}

}  // namespace incod
