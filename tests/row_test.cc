// Row subsystem tests: the apportionment kernel (the PowerBudget ledger the
// row shares with racks is tested in rack_test),
// RowOrchestrator/RowScenario wiring and validation, the one-rack §9.3
// trace row, and the property suite proving the row-level ledger
// invariants the rack suite proves one level down — sampled apportionment
// never exceeds the budget, per-rack apportionments sum to the global cap,
// and the aggregate counters reconcile with the row's decision log, across
// seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/row/row_orchestrator.h"
#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/multi_rack.h"
#include "src/sim/sharded.h"
#include "tests/row_specs.h"

namespace incod {
namespace {

using Policy = RowOrchestratorConfig::Policy;

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// --- ComputeRowApportionment ------------------------------------------------

TEST(RowApportionmentTest, EqualShareSplitsEvenly) {
  std::vector<RowRackApportionInput> racks(4);
  const std::vector<double> shares =
      ComputeRowApportionment(120, racks, Policy::kEqualShare, 0);
  ASSERT_EQ(shares.size(), 4u);
  for (double s : shares) {
    EXPECT_DOUBLE_EQ(s, 30);
  }
}

TEST(RowApportionmentTest, DemandWeightedFollowsDemand) {
  std::vector<RowRackApportionInput> racks(3);
  racks[0].demand_watts = 60;
  racks[1].demand_watts = 30;
  racks[2].demand_watts = 10;
  const std::vector<double> shares =
      ComputeRowApportionment(100, racks, Policy::kDemandWeighted, 0);
  EXPECT_DOUBLE_EQ(shares[0], 60);
  EXPECT_DOUBLE_EQ(shares[1], 30);
  EXPECT_DOUBLE_EQ(shares[2], 10);
  EXPECT_NEAR(Sum(shares), 100, 1e-9);
}

TEST(RowApportionmentTest, ZeroDemandFallsBackToEqualSplit) {
  std::vector<RowRackApportionInput> racks(4);
  const std::vector<double> shares =
      ComputeRowApportionment(80, racks, Policy::kDemandWeighted, 0);
  for (double s : shares) {
    EXPECT_DOUBLE_EQ(s, 20);
  }
}

TEST(RowApportionmentTest, CeilingClampsAndExcessRespreads) {
  std::vector<RowRackApportionInput> racks(3);
  racks[0].ceiling_watts = 10;  // Browned-out rack.
  const std::vector<double> shares =
      ComputeRowApportionment(90, racks, Policy::kEqualShare, 0);
  EXPECT_DOUBLE_EQ(shares[0], 10);
  // The freed 20 W flow to the unclamped racks.
  EXPECT_DOUBLE_EQ(shares[1], 40);
  EXPECT_DOUBLE_EQ(shares[2], 40);
  EXPECT_NEAR(Sum(shares), 90, 1e-9);
}

TEST(RowApportionmentTest, AllCeilingClampedLeavesBudgetUnused) {
  std::vector<RowRackApportionInput> racks(2);
  racks[0].ceiling_watts = 5;
  racks[1].ceiling_watts = 5;
  const std::vector<double> shares =
      ComputeRowApportionment(100, racks, Policy::kEqualShare, 0);
  EXPECT_DOUBLE_EQ(shares[0], 5);
  EXPECT_DOUBLE_EQ(shares[1], 5);
}

TEST(RowApportionmentTest, FloorsScaleDownWhenOverBudget) {
  std::vector<RowRackApportionInput> racks(4);
  const std::vector<double> shares =
      ComputeRowApportionment(40, racks, Policy::kEqualShare, /*min_rack_watts=*/20);
  // Floors alone want 80 W: everyone keeps the same fraction.
  for (double s : shares) {
    EXPECT_DOUBLE_EQ(s, 10);
  }
}

TEST(RowApportionmentTest, FloorsHoldUnderDemandWeighting) {
  std::vector<RowRackApportionInput> racks(3);
  racks[0].demand_watts = 100;  // Would starve the others without floors.
  const std::vector<double> shares =
      ComputeRowApportionment(90, racks, Policy::kDemandWeighted, /*min_rack_watts=*/10);
  EXPECT_GE(shares[1], 10);
  EXPECT_GE(shares[2], 10);
  EXPECT_NEAR(Sum(shares), 90, 1e-9);
  EXPECT_DOUBLE_EQ(shares[0], 70);
}

// Randomized kernel property: for arbitrary demands/ceilings/floors the
// result never exceeds a ceiling, never goes negative, and sums to the
// budget unless every rack is ceiling-clamped.
TEST(RowApportionmentTest, RandomizedInvariants) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    std::vector<RowRackApportionInput> racks(n);
    for (auto& rack : racks) {
      rack.demand_watts = rng.UniformDouble(0, 100);
      if (rng.Bernoulli(0.3)) {
        rack.ceiling_watts = rng.UniformDouble(0, 50);
      }
    }
    const double budget = rng.UniformDouble(1, 300);
    const double floor = rng.Bernoulli(0.5) ? rng.UniformDouble(0, 30) : 0;
    const Policy policy =
        rng.Bernoulli(0.5) ? Policy::kDemandWeighted : Policy::kEqualShare;
    const std::vector<double> shares =
        ComputeRowApportionment(budget, racks, policy, floor);
    double total = 0;
    bool all_clamped = true;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(shares[i], -1e-9) << "trial " << trial;
      if (racks[i].ceiling_watts >= 0) {
        EXPECT_LE(shares[i], racks[i].ceiling_watts + 1e-9) << "trial " << trial;
      }
      if (racks[i].ceiling_watts < 0 || shares[i] < racks[i].ceiling_watts - 1e-9) {
        all_clamped = false;
      }
      total += shares[i];
    }
    EXPECT_LE(total, budget + 1e-6) << "trial " << trial;
    if (!all_clamped) {
      EXPECT_NEAR(total, budget, 1e-6) << "trial " << trial;
    }
  }
}

// --- RowOrchestrator wiring -------------------------------------------------

TEST(RowOrchestratorTest, ValidatesRacks) {
  ShardedSimulation::Options options;
  options.num_shards = 2;
  ShardedSimulation ssim(options);
  Simulation& sim = ssim.shard(0);
  RackOrchestrator rack(sim);
  RowOrchestrator row(ssim, 1);
  EXPECT_THROW(row.AddRack("", 0, &rack), std::invalid_argument);
  EXPECT_THROW(row.AddRack("r0", 0, nullptr), std::invalid_argument);
  EXPECT_THROW(row.AddRack("r0", 7, &rack), std::invalid_argument);
  EXPECT_EQ(row.AddRack("r0", 0, &rack), 0u);
  EXPECT_THROW(row.AddRack("r0", 0, &rack), std::invalid_argument);  // Duplicate.
  EXPECT_EQ(row.rack_count(), 1u);
}

TEST(RowOrchestratorTest, UnlimitedBudgetIssuesNoCaps) {
  ShardedSimulation::Options options;
  options.num_shards = 2;
  ShardedSimulation ssim(options);
  ssim.RegisterCrossShardLatency(Microseconds(5));
  RackOrchestrator rack(ssim.shard(0));
  RowOrchestrator row(ssim, 1);  // Default config: no budget.
  row.AddRack("r0", 0, &rack);
  row.Start();
  ssim.RunUntil(Milliseconds(500));
  EXPECT_EQ(row.caps_issued(), 0u);
  EXPECT_EQ(row.apportion_rounds(), 0u);
  // Reports still flow (the row observes even when it does not govern).
  EXPECT_GT(row.reports_received(), 0u);
  EXPECT_TRUE(rack.ledger().unlimited());
}

TEST(RowOrchestratorTest, InitialApportionmentCapsEveryRack) {
  ShardedSimulation::Options options;
  options.num_shards = 3;
  ShardedSimulation ssim(options);
  ssim.RegisterCrossShardLatency(Microseconds(5));
  RackOrchestrator rack0(ssim.shard(0));
  RackOrchestrator rack1(ssim.shard(1));
  RowOrchestratorConfig config;
  config.global_budget_watts = 100;
  RowOrchestrator row(ssim, 2, config);
  row.AddRack("r0", 0, &rack0);
  row.AddRack("r1", 1, &rack1);
  row.Start();
  // Synchronous setup apportionment: both racks capped before any event.
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(0), 50);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(1), 50);
  EXPECT_DOUBLE_EQ(rack0.ledger().budget_watts(), 50);
  EXPECT_DOUBLE_EQ(rack1.ledger().budget_watts(), 50);
  EXPECT_EQ(row.caps_issued(), 2u);
}

TEST(RowOrchestratorTest, RackBrownoutFreesBudgetForOthers) {
  ShardedSimulation::Options options;
  options.num_shards = 3;
  ShardedSimulation ssim(options);
  ssim.RegisterCrossShardLatency(Microseconds(5));
  RackOrchestrator rack0(ssim.shard(0));
  RackOrchestrator rack1(ssim.shard(1));
  RowOrchestratorConfig config;
  config.global_budget_watts = 100;
  config.policy = Policy::kEqualShare;
  RowOrchestrator row(ssim, 2, config);
  row.AddRack("r0", 0, &rack0);
  row.AddRack("r1", 1, &rack1);
  row.Start();
  ssim.shard(2).ScheduleAt(Milliseconds(1), [&row] { row.ApplyRackBrownout(0, 10); });
  ssim.RunUntil(Milliseconds(50));
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(0), 10);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(1), 90);
  EXPECT_DOUBLE_EQ(rack1.ledger().budget_watts(), 90);
  EXPECT_EQ(row.rack_brownouts(), 1u);
  // A rack brownout cap clamps to epsilon, never to "unlimited" zero.
  ssim.shard(2).ScheduleAt(Milliseconds(60), [&row] { row.ApplyRackBrownout(1, 0); });
  ssim.RunUntil(Milliseconds(100));
  EXPECT_GT(rack1.ledger().budget_watts(), 0);
  EXPECT_LE(rack1.ledger().budget_watts(), 0.01);
  EXPECT_FALSE(rack1.ledger().unlimited());
}

TEST(RowOrchestratorTest, GlobalBrownoutShrinksEveryCap) {
  ShardedSimulation::Options options;
  options.num_shards = 3;
  ShardedSimulation ssim(options);
  ssim.RegisterCrossShardLatency(Microseconds(5));
  RackOrchestrator rack0(ssim.shard(0));
  RackOrchestrator rack1(ssim.shard(1));
  RowOrchestratorConfig config;
  config.global_budget_watts = 100;
  config.policy = Policy::kEqualShare;
  RowOrchestrator row(ssim, 2, config);
  row.AddRack("r0", 0, &rack0);
  row.AddRack("r1", 1, &rack1);
  row.Start();
  ssim.shard(2).ScheduleAt(Milliseconds(1), [&row] { row.ApplyGlobalBrownout(40); });
  ssim.RunUntil(Milliseconds(50));
  EXPECT_DOUBLE_EQ(row.ledger().budget_watts(), 40);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(0), 20);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(1), 20);
  EXPECT_LE(row.ledger().committed_watts(), 40 + 1e-9);
  EXPECT_EQ(row.global_brownouts(), 1u);
}

TEST(RowOrchestratorTest, GlobalBrownoutToZeroCapsEveryRack) {
  // A 0 W global brownout is a zero budget, not "unlimited": every rack's
  // apportionment drops to nothing and its cap is pushed down.
  ShardedSimulation::Options options;
  options.num_shards = 3;
  ShardedSimulation ssim(options);
  ssim.RegisterCrossShardLatency(Microseconds(5));
  RackOrchestrator rack0(ssim.shard(0));
  RackOrchestrator rack1(ssim.shard(1));
  RowOrchestratorConfig config;
  config.global_budget_watts = 100;
  config.policy = Policy::kEqualShare;
  RowOrchestrator row(ssim, 2, config);
  row.AddRack("r0", 0, &rack0);
  row.AddRack("r1", 1, &rack1);
  row.Start();
  ASSERT_EQ(row.caps_issued(), 2u);
  ssim.shard(2).ScheduleAt(Milliseconds(1), [&row] { row.ApplyGlobalBrownout(0); });
  ssim.RunUntil(Milliseconds(50));
  EXPECT_FALSE(row.ledger().unlimited());
  EXPECT_DOUBLE_EQ(row.ledger().budget_watts(), 0);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(0), 0);
  EXPECT_DOUBLE_EQ(row.CurrentApportionment(1), 0);
  EXPECT_EQ(row.caps_issued(), 4u);
  for (const RackOrchestrator* rack : {&rack0, &rack1}) {
    EXPECT_FALSE(rack->ledger().unlimited());
    EXPECT_LE(rack->ledger().budget_watts(), 0.01);
  }
}

// --- RowScenario validation -------------------------------------------------

ShardedSimulation::Options RowShardOptions(int num_racks, uint64_t seed) {
  ShardedSimulation::Options options;
  options.num_shards = num_racks + 1;
  options.num_threads = 1;
  options.mode = ShardedSimulation::Mode::kSingleQueue;
  options.seed = seed;
  return options;
}

TEST(RowScenarioTest, ValidatesSpec) {
  {
    ShardedSimulation ssim(RowShardOptions(2, 1));
    RowSpec spec;  // No racks.
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
  {
    // Shard count mismatch.
    ShardedSimulation ssim(RowShardOptions(3, 1));
    RowSpec spec = MakeMultiRackRowSpec(MultiRackOptions{.num_racks = 2});
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
  {
    // Brownout events need a global budget.
    ShardedSimulation ssim(RowShardOptions(2, 1));
    RowSpec spec = MakeMultiRackRowSpec(MultiRackOptions{.num_racks = 2});
    RowFaultEventSpec event;
    event.kind = RowFaultEventSpec::Kind::kGlobalBrownout;
    event.at = Milliseconds(1);
    event.watts = 50;
    spec.faults.events.push_back(event);
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
  {
    // A global budget needs at least one rack with apps.
    ShardedSimulation ssim(RowShardOptions(2, 1));
    RowSpec spec = MakeMultiRackRowSpec(MultiRackOptions{.num_racks = 2});
    spec.power.global_budget_watts = 100;
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
  {
    // An app's member index must name one of the rack's members, rejected
    // before anything is built.
    ShardedSimulation ssim(RowShardOptions(2, 1));
    RowSpec spec = OrchestratedRowSpec(2, 100);
    spec.racks[1].apps[0].member = spec.racks[1].scenario.members.size();
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
  {
    // Fault rack index out of range.
    ShardedSimulation ssim(RowShardOptions(2, 1));
    RowSpec spec = OrchestratedRowSpec(2, 100);
    RowFaultEventSpec event;
    event.kind = RowFaultEventSpec::Kind::kUplinkDown;
    event.racks = {5};
    spec.faults.events.push_back(event);
    EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::invalid_argument);
  }
}

TEST(RowScenarioTest, BuildsOrchestratedRow) {
  ShardedSimulation ssim(RowShardOptions(2, 1));
  RowScenario row(ssim, OrchestratedRowSpec(2, 100));
  EXPECT_EQ(row.num_racks(), 2);
  EXPECT_EQ(row.spine_shard(), 2);
  ASSERT_NE(row.row_orchestrator(), nullptr);
  EXPECT_EQ(row.row_orchestrator()->rack_count(), 2u);
  for (int r = 0; r < 2; ++r) {
    ASSERT_NE(row.rack_orchestrator(r), nullptr);
    EXPECT_EQ(row.rack_orchestrator(r)->app_count(), 1u);
    EXPECT_EQ(row.client_count(r), 2u);
  }
  row.Start();
  // Initial apportionment landed synchronously at Start.
  EXPECT_DOUBLE_EQ(row.row_orchestrator()->CurrentApportionment(0), 50);
  EXPECT_DOUBLE_EQ(row.row_orchestrator()->CurrentApportionment(1), 50);
  EXPECT_DOUBLE_EQ(row.rack_orchestrator(0)->ledger().budget_watts(), 50);
}

TEST(RowScenarioTest, DiurnalTracePhaseShiftsAcrossRacks) {
  RowSpec spec = OrchestratedRowSpec(2, 100);
  spec.trace.enabled = true;
  spec.trace.trace = {.num_tasks = 2000, .num_nodes = 4, .diurnal_amplitude = 0.8};
  spec.trace.sim_horizon = Milliseconds(20);  // Whole day inside the run.
  spec.trace.seed = 42;
  ShardedSimulation ssim(RowShardOptions(2, 9));
  RowScenario row(ssim, std::move(spec));
  EXPECT_EQ(row.trace_tasks().size(), 2000u);
  row.Start();
  // Mid-day: rack 0 sits at its diurnal peak, rack 1 is half a day shifted
  // (each rack shifts by horizon / num_racks) so the racks are loaded
  // differently — the imbalance the demand-weighted apportionment feeds on.
  ssim.RunUntil(Milliseconds(10));
  EXPECT_GT(row.background_cores(0, 0), 0.0);
  EXPECT_NE(row.background_cores(0, 0), row.background_cores(1, 0));
  // Day over: every task ended, the background drains back to idle.
  ssim.RunUntil(Milliseconds(25));
  EXPECT_NEAR(row.background_cores(0, 0), 0.0, 1e-6);
  EXPECT_NEAR(row.background_cores(1, 0), 0.0, 1e-6);
}

// The §9.3 trace-driven rack as a one-rack row: registry-name-only apps
// under the rack orchestrator, with the Google-trace background load driving
// the placement decisions.
TEST(RowScenarioTest, TraceLoadDrivesGenericWarmShifts) {
  RowSpec spec = TraceRowSpec();
  spec.trace.sim_horizon = Seconds(2);
  spec.trace.trace.num_tasks = 400;
  spec.racks[0].orchestrator.min_dwell = Milliseconds(300);
  ShardedSimulation ssim(RowShardOptions(1, 13));
  RowScenario row(ssim, std::move(spec));
  ASSERT_EQ(row.app_count(0), 2u);
  for (size_t i = 0; i < row.app_count(0); ++i) {
    row.migrator(0, i);  // Generic core only; apps are plain incod::App.
    EXPECT_NE(row.rack(0).member_host_app_as<App>(i), nullptr);
    EXPECT_NE(row.rack(0).member_offload_app_as<App>(i), nullptr);
  }
  row.Start();
  ssim.RunUntil(Seconds(2));
  // The compressed 24 h trace kept the hosts busy enough that at least one
  // app was pushed into the network at some point.
  EXPECT_GT(row.rack_orchestrator(0)->total_shifts(), 0u);
  ASSERT_EQ(row.client_count(0), 2u);
  for (size_t i = 0; i < row.client_count(0); ++i) {
    EXPECT_GT(row.client(0, i).received(), 0u);
  }
  EXPECT_GT(row.trace_tasks().size(), 0u);
}

TEST(RowScenarioTest, ClientShardOutOfRangeThrows) {
  ShardedSimulation ssim(RowShardOptions(2, 1));
  RowSpec spec = MakeMultiRackRowSpec(MultiRackOptions{.num_racks = 2});
  spec.racks[0].clients[0].shard = 3;  // racks + 1: one past the spine.
  EXPECT_THROW(RowScenario(ssim, std::move(spec)), std::out_of_range);
}

// --- Row ledger property suite ----------------------------------------------

// A 4-rack row under a binding global budget, with a correlated fault wave
// (uplink flaps, a rack brownout + heal, a global brownout) driving the
// ledger through shrink/grow cycles. The invariants the rack suite proves
// for one PDU must hold one level up for the row, across seeds.
class RowLedgerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowLedgerPropertyTest, GlobalLedgerInvariantsHold) {
  const uint64_t seed = GetParam();
  const int kRacks = 4;
  RowSpec spec = OrchestratedRowSpec(kRacks, 120);
  AppendUplinkFlapWave(spec.faults, {0, 1, 2}, Milliseconds(6), Milliseconds(3),
                       /*stagger=*/Microseconds(500));
  AppendRackBrownoutWave(spec.faults, {1}, Milliseconds(10), 8);
  AppendRackBrownoutWave(spec.faults, {1}, Milliseconds(20), -1);  // Heal.
  {
    RowFaultEventSpec brownout;
    brownout.kind = RowFaultEventSpec::Kind::kGlobalBrownout;
    brownout.at = Milliseconds(14);
    brownout.watts = 50;
    spec.faults.events.push_back(brownout);
  }

  ShardedSimulation ssim(RowShardOptions(kRacks, seed));
  RowScenario row(ssim, std::move(spec));
  row.Start();
  ssim.RunUntil(Milliseconds(30));

  RowOrchestrator& orch = *row.row_orchestrator();

  // The run exercised the machinery: reports flowed, the loop re-apportioned,
  // the brownouts fired.
  EXPECT_GT(orch.reports_received(), 0u) << "seed " << seed;
  EXPECT_GE(orch.apportion_rounds(), 2u) << "seed " << seed;
  EXPECT_EQ(orch.global_brownouts(), 1u) << "seed " << seed;
  EXPECT_EQ(orch.rack_brownouts(), 2u) << "seed " << seed;

  // (1) Every sampled apportionment total respects the budget in force.
  const auto& apportioned = orch.apportioned_series().samples();
  const auto& budget = orch.budget_series().samples();
  ASSERT_EQ(apportioned.size(), budget.size());
  ASSERT_GT(apportioned.size(), 4u);
  for (size_t i = 0; i < apportioned.size(); ++i) {
    EXPECT_EQ(apportioned[i].at, budget[i].at);
    EXPECT_LE(apportioned[i].value, budget[i].value + 1e-6)
        << "sample " << i << " seed " << seed;
  }

  // (2) Per-rack apportionments reconcile with the global ledger and sum to
  // the global cap (nothing is ceiling-clamped at the end: the rack
  // brownout healed before the run finished).
  double apportionment_sum = 0;
  for (size_t r = 0; r < orch.rack_count(); ++r) {
    const double watts = orch.CurrentApportionment(r);
    EXPECT_GE(watts, 0) << "rack " << r << " seed " << seed;
    apportionment_sum += watts;
  }
  EXPECT_DOUBLE_EQ(apportionment_sum, orch.ledger().committed_watts());
  EXPECT_NEAR(apportionment_sum, orch.ledger().budget_watts(), 1e-6)
      << "seed " << seed;

  // (3) Counters reconcile with the decision log exactly.
  uint64_t apportions = 0, globals = 0, racks = 0;
  for (const RowDecisionRecord& record : orch.decision_log()) {
    switch (record.kind) {
      case RowDecisionRecord::Kind::kApportion:
        ++apportions;
        EXPECT_GT(record.watts, 0);
        EXPECT_FALSE(record.rack.empty());
        break;
      case RowDecisionRecord::Kind::kGlobalBrownout:
        ++globals;
        EXPECT_TRUE(record.rack.empty());
        break;
      case RowDecisionRecord::Kind::kRackBrownout:
        ++racks;
        EXPECT_FALSE(record.rack.empty());
        break;
    }
  }
  EXPECT_EQ(apportions, orch.caps_issued()) << "seed " << seed;
  EXPECT_EQ(globals, orch.global_brownouts()) << "seed " << seed;
  EXPECT_EQ(racks, orch.rack_brownouts()) << "seed " << seed;
  EXPECT_EQ(apportions + globals + racks, orch.decision_log().size());

  // (4) Every issued cap honored the rack's ceiling in force at issue time:
  // replay the log and check each apportionment against the most recent
  // brownout ceiling for that rack.
  std::map<std::string, double> ceiling;
  for (const RowDecisionRecord& record : orch.decision_log()) {
    if (record.kind == RowDecisionRecord::Kind::kRackBrownout) {
      if (record.watts < 0) {
        ceiling.erase(record.rack);
      } else {
        ceiling[record.rack] = record.watts;
      }
      continue;
    }
    if (record.kind != RowDecisionRecord::Kind::kApportion) {
      continue;
    }
    const auto it = ceiling.find(record.rack);
    if (it != ceiling.end()) {
      // IssueCap clamps a full brownout (0 W) to the 0.01 W epsilon.
      EXPECT_LE(record.watts, std::max(it->second, 0.01) + 1e-9)
          << "rack " << record.rack << " seed " << seed;
    }
  }

  // (5) The cascade reached the racks: every rack's own budget equals the
  // row's current apportionment for it, and each rack ledger holds its own
  // invariant.
  for (int r = 0; r < kRacks; ++r) {
    const RackOrchestrator& rack = *row.rack_orchestrator(r);
    EXPECT_NEAR(rack.ledger().budget_watts(),
                std::max(orch.CurrentApportionment(static_cast<size_t>(r)), 0.01),
                0.5 + 1e-9)
        << "rack " << r << " seed " << seed;  // kCapEpsilonWatts slack.
    EXPECT_LE(rack.ledger().committed_watts(),
              rack.ledger().budget_watts() + 1e-6)
        << "rack " << r << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowLedgerPropertyTest,
                         ::testing::Values(17u, 29u, 43u));

}  // namespace
}  // namespace incod
