// Rack-scale on-demand orchestration.
//
// §9.1's threshold controller (OnDemandController) manages one (host,
// device, app) pair. A rack runs many: several servers, a mix of offload
// targets (FPGA NICs, SmartNICs, the programmable ToR switch), and a shared
// power budget at the PDU. The orchestrator generalizes the paper's
// placement decision to that setting: every decision period it reads each
// application's classifier-visible rate, predicts both placements' power
// with the §8 models, and greedily places each app on the cheapest
// *eligible* target — eligible meaning the target has spare packet
// capacity, is not mid-reprogram, and the rack's shared power ledger can
// absorb the predicted draw. Apps whose offload stops paying for itself are
// shifted home and their budget released. With one app and one option this
// is the §8 energy-aware rule: shift when the predicted saving clears
// kMinSavingWatts, in either direction, subject to min_dwell.
#ifndef INCOD_SRC_ONDEMAND_RACK_H_
#define INCOD_SRC_ONDEMAND_RACK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/app/app_state.h"
#include "src/device/offload_target.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/migrator.h"
#include "src/sim/simulation.h"
#include "src/stats/timeseries.h"

namespace incod {

// Shared power budget: watts committed under string keys, never summing
// past the budget. A rack orchestrator commits each offloaded app's PDU
// headroom (keyed by app name); the row orchestrator commits each rack's
// apportionment (keyed by rack name).
class PowerBudget {
 public:
  // budget_watts <= 0 means unlimited.
  explicit PowerBudget(double budget_watts = 0);

  // Commits `watts` under `key` (replacing any prior commitment for the
  // key). Returns false — and leaves the prior commitment intact — if a
  // grow would exceed the budget. A shrink always moves toward the
  // invariant, so it is accepted even while the total sits above a
  // freshly-lowered (brownout) budget.
  bool TryCommit(const std::string& key, double watts);
  void Release(const std::string& key);

  // Brownout: steps the budget (existing commitments may now exceed it; the
  // owner evicts or re-apportions until the invariant holds again). Unlike
  // the constructor, 0 here is a zero budget, never unlimited.
  void SetBudgetWatts(double watts);

  double budget_watts() const { return budget_; }
  bool unlimited() const { return unlimited_; }
  double committed_watts() const;
  double RemainingWatts() const;
  const std::map<std::string, double>& commitments() const { return commitments_; }

 private:
  double budget_;
  bool unlimited_;
  std::map<std::string, double> commitments_;
};

// One way to place an app in the network: the migrator that moves the app
// onto its target, and the predicted placement power at a given rate. Every
// shift goes through the generic StateTransferMigrator core (classifier
// flip + park policy + optional typed-state transfer), so the orchestrator
// can move any registered app warm or cold without per-app plumbing. The
// migrator's park policy is the option's: a kReprogram placement pays
// RackOrchestrator::kReprogramPenaltyWatts so warm targets win ties (§9.2's
// halt trade-off).
struct RackPlacementOption {
  StateTransferMigrator* migrator = nullptr;
  // Predicted *total* watts of serving at `rate` on this target, on the
  // same absolute scale as RackAppSpec::software_watts — include the host's
  // idle draw whenever the host stays powered (it almost always does), and
  // only the §9.4 marginal program watts on top for a ToR switch. The
  // ledger does not commit this number directly: it commits the increment
  // over the app's software idle (network_watts(rate) - software_watts(0)),
  // which is the PDU headroom the offload actually consumes.
  RatePowerFn network_watts;
};

struct RackAppSpec {
  std::string name;
  // Predicted host-placement watts at a given rate (§8 server curves).
  RatePowerFn software_watts;
  // Classifier-visible request rate, readable regardless of placement.
  std::function<double()> measured_rate_pps;
  std::vector<RackPlacementOption> options;
  // Per-app warm/cold migration policy. Warm: every orchestrator shift
  // carries the app's typed AppState through the generic state-transfer
  // path (LaKe caches arrive filled, a Paxos leader keeps ballot+sequence —
  // no Fig 6/7 transition gap). Cold (default): the paper's behaviour —
  // classifier flip only, state re-warms/re-learns after each shift.
  bool warm_migration = false;
  // Checkpoint cadence for this app while offloaded (< 0: inherit the
  // orchestrator config's checkpoint_period; 0: never checkpoint).
  SimDuration checkpoint_period = -1;
  // On crash recovery, also restore the latest checkpoint into the *host*
  // placement before re-deciding. Right when the host copy is not
  // authoritative (a Paxos leader's ballot/sequence live only where the
  // leader last ran); wrong for caches whose host store is the source of
  // truth (restoring a stale LRU over memcached would lose writes).
  bool restore_checkpoint_to_home = false;
};

// One entry of the orchestrator's decision log: every performed shift and
// every reprogram deferral, in decision order. The log is the audit trail
// the aggregate counters (total_shifts, warm_shifts, reprogram_deferrals)
// must reconcile against — tested exhaustively by the rack property suite.
struct RackDecisionRecord {
  // kFailure: the heartbeat detector declared a target dead (app empty,
  // target = the dead target). kRecovery: a victim app finished its
  // recovery pass (target = where it landed, empty for the host; warm = a
  // checkpoint was available to restore from). kFlapSuppressed: the miss
  // count crossed the failure threshold but the device itself is alive —
  // the orchestrator<->target path is flapping, so recovery was withheld
  // (one record per unreachability streak, app empty, target = the
  // unreachable target).
  enum class Kind { kShift, kShiftHome, kDeferral, kFailure, kRecovery,
                    kFlapSuppressed };
  Kind kind = Kind::kShift;
  SimTime at = 0;
  std::string app;
  std::string target;  // Destination TargetName() (empty: the host placement).
  bool warm = false;   // Typed-state transfer rode along (per-app policy).
};

struct RackOrchestratorConfig {
  // Shared offload power budget (<= 0: unlimited).
  double power_budget_watts = 0;
  // Per-app damping.
  SimDuration check_period = Milliseconds(100);
  SimDuration min_dwell = Seconds(1);
  // Power/commitment timeseries cadence.
  SimDuration sample_period = Milliseconds(100);
  // Failure detector: poll every target's TargetAlive() at this cadence
  // (0: detector off); declare a target failed after kFailureThreshold
  // consecutive missed heartbeats and warm-restore its victims.
  SimDuration heartbeat_period = 0;
  // Default checkpoint cadence for offloaded apps (0: off); RackAppSpec
  // overrides per app.
  SimDuration checkpoint_period = 0;
};

class RackOrchestrator {
 public:
  // Shift only when the predicted saving exceeds this margin (hysteresis
  // falls out of applying it in both directions).
  static constexpr double kMinSavingWatts = 2.0;
  // Predicted-watts penalty for choosing a reprogram-parked target.
  static constexpr double kReprogramPenaltyWatts = 1.0;
  // Consecutive missed heartbeats that declare a target failed.
  static constexpr int kFailureThreshold = 2;

  RackOrchestrator(Simulation& sim, RackOrchestratorConfig config = {});

  // Registers an application with its candidate placements. All referenced
  // targets/migrators must outlive the orchestrator. Returns the app index.
  size_t AddApp(RackAppSpec spec);

  void Start();
  void Stop() { stopped_ = true; }

  // Places an app on one of its options regardless of economics (benches
  // and failure drills: put the app where the fault will strike). Goes
  // through the same migrator/ledger machinery as a decided shift and is
  // logged as one; throws if the ledger cannot absorb the commitment.
  void ForcePlacement(size_t app_index, int option_index);

  // PSU brownout step: re-bases the shared budget and, when the committed
  // watts now exceed it, shifts the largest-commitment apps home until the
  // ledger invariant (committed <= budget) holds again; a 0 W cap evicts
  // every offload that draws power. Victims on dead targets are abandoned
  // (no state transfer out of dead hardware).
  void ApplyPowerCap(double watts);

  // Declares how the orchestrator's heartbeats reach `target` (typically a
  // closure over the member link's down state). A heartbeat is missed when
  // the target is dead *or* unreachable; if the miss count crosses the
  // failure threshold while the device itself is alive, the detector
  // suppresses recovery (a link flap is not a death) and logs
  // kFlapSuppressed instead. Without a channel the target is always
  // considered reachable (the pre-PR god's-eye behaviour).
  void SetHeartbeatReachability(const OffloadTarget* target,
                                std::function<bool()> reachable);

  // --- Introspection ---
  const PowerBudget& ledger() const { return ledger_; }
  size_t app_count() const { return apps_.size(); }
  const std::string& app_name(size_t index) const { return apps_[index].spec.name; }
  // Currently chosen placement option for the app (nullptr: on host).
  const RackPlacementOption* current_option(size_t index) const;
  // Shifts the orchestrator performed onto the given target.
  uint64_t ShiftsToTarget(const OffloadTarget& target) const;
  uint64_t total_shifts() const { return total_shifts_; }
  // Shifts performed with the typed-state transfer enabled (warm policy).
  uint64_t warm_shifts() const { return warm_shifts_; }
  // Decisions skipped because the app's own target was mid-reprogram (the
  // app stays parked until its reconfiguration completes).
  uint64_t reprogram_deferrals() const { return reprogram_deferrals_; }
  uint64_t decisions_evaluated() const { return decisions_; }
  // Crash-recovery counters, reconciled against the decision log's
  // kFailure/kRecovery records by the property suite.
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t failures_detected() const { return failures_detected_; }
  uint64_t recoveries() const { return recoveries_; }
  // Unreachability streaks that crossed the failure threshold with the
  // device still alive (heartbeat link flaps, not deaths) — recovery was
  // suppressed. Reconciled against kFlapSuppressed decision records.
  uint64_t flap_suppressions() const { return flap_suppressions_; }
  // Checkpoint staleness surface: when the app's latest snapshot was taken
  // (-1: none yet).
  bool has_checkpoint(size_t index) const { return apps_.at(index).checkpoint_at >= 0; }
  SimTime last_checkpoint_at(size_t index) const { return apps_.at(index).checkpoint_at; }
  // Audit trail of shifts and deferrals, in decision order.
  const std::vector<RackDecisionRecord>& decision_log() const { return decision_log_; }
  // Rate a target is currently committed to absorb (capacity accounting).
  double CommittedPps(const OffloadTarget& target) const;

  // Watts of PDU headroom this rack would like for offloads right now: the
  // actual ledger commitment for offloaded apps plus, for each app still at
  // home, the cheapest alive option's would-be commitment at the measured
  // rate. The row orchestrator's demand-weighted apportionment reads this
  // through the periodic rack reports.
  double OffloadDemandWatts() const;

  // Per-rack timeseries, sampled every `sample_period` after Start():
  // committed offload watts, measured target watts, and offloaded-app count.
  const TimeSeries& committed_watts_series() const { return committed_series_; }
  const TimeSeries& measured_target_watts_series() const { return measured_series_; }
  const TimeSeries& offloaded_apps_series() const { return offloaded_series_; }

 private:
  // Renamed from the historical nested AppState: `latest_checkpoint` below
  // is an incod::AppState (the typed application snapshot).
  struct ManagedApp {
    RackAppSpec spec;
    int active_option = -1;  // Index into spec.options; -1: host placement.
    SimTime last_shift = 0;
    double committed_rate_pps = 0;
    // Latest periodic checkpoint of the offloaded placement, held "at the
    // home host" for warm restore; checkpoint_at < 0 means none taken.
    AppState latest_checkpoint;
    SimTime checkpoint_at = -1;
  };

  void Tick();
  void Sample();
  void Heartbeat();
  void DecideForApp(ManagedApp& app);
  void CheckpointApp(ManagedApp& app);
  void DeclareTargetFailed(OffloadTarget* target);
  void RecoverApp(ManagedApp& app);
  // Shift (or, when the placement is dead, abandon) the app back to the
  // host, releasing its ledger commitment and logging kShiftHome.
  void ShiftAppHome(ManagedApp& app, bool abandon);
  SimDuration CheckpointPeriodFor(const ManagedApp& app) const;
  // Target of the app's current placement (nullptr: on host).
  static OffloadTarget* CurrentTarget(const ManagedApp& app);
  // `is_current` exempts the app's own placement from the mid-reprogram
  // exclusion (yanking an app home because its own reconfiguration is
  // still in flight would abort the very shift we started).
  bool OptionEligible(const ManagedApp& app, const RackPlacementOption& option,
                      double rate, bool is_current) const;
  double PredictOptionWatts(const RackPlacementOption& option, double rate) const;
  std::string LedgerKey(const ManagedApp& app) const { return app.spec.name; }

  Simulation& sim_;
  RackOrchestratorConfig config_;
  PowerBudget ledger_;
  std::vector<ManagedApp> apps_;
  std::vector<RackDecisionRecord> decision_log_;
  std::map<const OffloadTarget*, uint64_t> shifts_to_target_;
  std::map<const OffloadTarget*, int> heartbeat_misses_;
  std::map<const OffloadTarget*, std::function<bool()>> reachability_;
  // Targets in a logged flap-suppression streak (cleared when reachable).
  std::set<const OffloadTarget*> flap_suspected_;
  std::set<const OffloadTarget*> failed_targets_;
  TimeSeries committed_series_{"rack_committed_watts"};
  TimeSeries measured_series_{"rack_target_watts"};
  TimeSeries offloaded_series_{"rack_offloaded_apps"};
  uint64_t total_shifts_ = 0;
  uint64_t warm_shifts_ = 0;
  uint64_t reprogram_deferrals_ = 0;
  uint64_t decisions_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t failures_detected_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t flap_suppressions_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_RACK_H_
