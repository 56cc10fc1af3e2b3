#include "src/row/row_scenario.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/device/switch_asic.h"
#include "src/ondemand/energy_advisor.h"
#include "src/workload/arrival.h"

namespace incod {

namespace {

// Watts one trace background core adds to a member host (§9.3 decision
// input; only meaningful with the row trace enabled).
constexpr double kBackgroundWattsPerCore = 18.0;

}  // namespace

RowScenario::RowScenario(ShardedSimulation& sharded, RowSpec spec)
    : sharded_(sharded),
      spec_(std::move(spec)),
      spine_topology_(sharded.shard(static_cast<int>(spec_.racks.size()))) {
  Validate();
  zone_.FillSynthetic(spec_.zone_size);

  const int spine = static_cast<int>(spec_.racks.size());
  spine_ = std::make_unique<L2Switch>(sharded_.shard(spine),
                                      spec_.name + "-spine");
  spine_topology_.SetSharded(&sharded_, spine);
  spine_topology_.AssignShard(spine_.get(), spine);

  racks_.reserve(spec_.racks.size());
  for (int r = 0; r < static_cast<int>(spec_.racks.size()); ++r) {
    BuildRack(r);
  }
  for (int r = 0; r < num_racks(); ++r) {
    ConnectRackToSpine(r);
  }
  for (int r = 0; r < num_racks(); ++r) {
    if (!spec_.racks[static_cast<size_t>(r)].apps.empty()) {
      BuildOrchestration(r);
    }
  }
  BuildRow();
  ArmRowFaults();

  if (spec_.trace.enabled) {
    Rng rng(spec_.trace.seed);
    tasks_ = SynthesizeGoogleTrace(spec_.trace.trace, rng);
  }
}

void RowScenario::Validate() const {
  if (spec_.racks.empty()) {
    throw std::invalid_argument("RowScenario: need at least one rack");
  }
  if (sharded_.num_shards() != static_cast<int>(spec_.racks.size()) + 1) {
    throw std::invalid_argument(
        "RowScenario: need racks + 1 shards (one per rack plus the spine)");
  }
  if (spec_.inter_rack_propagation <= 0) {
    throw std::invalid_argument("RowScenario: inter-rack propagation must be > 0");
  }
  const int n = static_cast<int>(spec_.racks.size());
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    for (int rack : event.racks) {
      if (rack < 0 || rack >= n) {
        throw std::invalid_argument("RowScenario: fault event rack out of range");
      }
    }
    const bool brownout = event.kind == RowFaultEventSpec::Kind::kGlobalBrownout ||
                          event.kind == RowFaultEventSpec::Kind::kRackBrownout;
    if (brownout && spec_.power.global_budget_watts <= 0) {
      throw std::invalid_argument(
          "RowScenario: brownout events need a global power budget");
    }
  }
  if (spec_.power.global_budget_watts > 0) {
    const bool any_apps =
        std::any_of(spec_.racks.begin(), spec_.racks.end(),
                    [](const RowRackSpec& rack) { return !rack.apps.empty(); });
    if (!any_apps) {
      throw std::invalid_argument(
          "RowScenario: a global budget needs at least one rack with apps");
    }
  }
  for (int r = 0; r < n; ++r) {
    const RowRackSpec& rack = spec_.racks[static_cast<size_t>(r)];
    for (const RowAppSpec& app : rack.apps) {
      if (app.member >= rack.scenario.members.size()) {
        throw std::invalid_argument("RowScenario: rack " + std::to_string(r) +
                                    " app member " + std::to_string(app.member) +
                                    " out of range");
      }
    }
  }
}

std::vector<int> RowScenario::SelectedRacks(const RowFaultEventSpec& event) const {
  if (!event.racks.empty()) {
    return event.racks;
  }
  std::vector<int> all(spec_.racks.size());
  for (int r = 0; r < static_cast<int>(all.size()); ++r) {
    all[static_cast<size_t>(r)] = r;
  }
  return all;
}

void RowScenario::BuildRack(int r) {
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  ScenarioSpec scenario = rack_spec.scenario;
  scenario.shard = r;
  if (scenario.zone == nullptr) {
    scenario.zone = &zone_;
  }
  // Fold the row plan's rack-scoped faults into this rack's own plan; the
  // testbed's injector arms them with its locally-registered names.
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    if (event.kind != RowFaultEventSpec::Kind::kRackFault) {
      continue;
    }
    const std::vector<int> selected = SelectedRacks(event);
    if (std::find(selected.begin(), selected.end(), r) == selected.end()) {
      continue;
    }
    FaultEventSpec fault = event.rack_event;
    fault.at = event.at;
    scenario.faults.events.push_back(fault);
  }
  const Zone* zone = scenario.zone;

  BuiltRack built;
  built.testbed = std::make_unique<ScenarioTestbed>(sharded_, std::move(scenario));
  for (const RowClientSpec& client_spec : rack_spec.clients) {
    RequestFactory factory =
        MakeScenarioRequestFactory(client_spec.workload, client_spec.service, zone);
    if (factory == nullptr) {
      throw std::invalid_argument("RowScenario: rack " + std::to_string(r) +
                                  " client needs a workload kind");
    }
    built.clients.push_back(&built.testbed->AddTorClient(
        client_spec.client,
        std::make_unique<PoissonArrival>(client_spec.rate_per_second),
        std::move(factory), client_spec.shard));
  }
  racks_.push_back(std::move(built));
}

void RowScenario::ConnectRackToSpine(int r) {
  BuiltRack& built = racks_[static_cast<size_t>(r)];
  L2Switch* tor = built.testbed->tor();
  if (tor == nullptr) {
    throw std::invalid_argument("RowScenario: rack " + std::to_string(r) +
                                " needs a ToR (tor.present) to uplink");
  }
  spine_topology_.AssignShard(tor, r);

  Link::Config uplink;
  uplink.gigabits_per_second = spec_.uplink_gigabits_per_second;
  uplink.propagation_delay = spec_.inter_rack_propagation;
  built.uplink = spine_topology_.Connect(tor, spine_.get(), uplink,
                                         "uplink-" + std::to_string(r));

  const int tor_port = tor->AttachLink(built.uplink);
  tor->SetDefaultRoute(tor_port);  // Non-local traffic heads to the spine.

  const int spine_port = spine_->AttachLink(built.uplink);
  // Route every address this rack owns: member switch routes (hosts,
  // devices, service addresses), aux hosts, and the rack's clients.
  std::vector<NodeId> nodes;
  auto add = [&nodes](NodeId node) {
    if (node != 0 && std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  };
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  for (const ScenarioMemberSpec& member : rack_spec.scenario.members) {
    for (NodeId node : member.switch_routes) {
      add(node);
    }
    if (member.aux) {
      add(member.host.config.node);
    }
  }
  for (const RowClientSpec& client_spec : rack_spec.clients) {
    add(client_spec.client.node);
  }
  for (NodeId node : nodes) {
    spine_->AddRoute(node, spine_port);
  }
}

void RowScenario::BuildOrchestration(int r) {
  const RowRackSpec& rack_spec = spec_.racks[static_cast<size_t>(r)];
  BuiltRack& built = racks_[static_cast<size_t>(r)];
  Simulation& sim = sharded_.shard(r);
  ScenarioTestbed& testbed = *built.testbed;

  built.orchestrator =
      std::make_unique<RackOrchestrator>(sim, rack_spec.orchestrator);

  for (const RowAppSpec& app_spec : rack_spec.apps) {
    ScenarioMember& member = testbed.member(app_spec.member);
    if (member.fpga == nullptr || member.host_apps.empty() ||
        member.offload_app == nullptr) {
      throw std::invalid_argument(
          "RowScenario: orchestrated member " + member.name +
          " needs a host app and a parked FPGA placement");
    }
    built.migrators.push_back(std::make_unique<StateTransferMigrator>(
        sim, *member.fpga, StateTransferMigrator::Options{ParkPolicy::kGatedPark},
        member.host_apps.front().get(), member.offload_app.get()));
    StateTransferMigrator* fpga_migrator = built.migrators.back().get();

    RowManagedApp managed;
    managed.member = app_spec.member;
    managed.fpga_migrator = fpga_migrator;
    built.apps.push_back(managed);
    double* background = &built.apps.back().background_cores;

    const ScenarioMemberSpec& member_spec =
        testbed.spec().members.at(app_spec.member);
    RackAppSpec rack_app;
    rack_app.name = member.name;
    rack_app.warm_migration = app_spec.warm_migration;
    rack_app.checkpoint_period = app_spec.checkpoint_period;
    auto curve = MakeServerRatePower(member_spec.host.config.power_curve,
                                     kMemcachedServiceTime,
                                     member_spec.host.config.num_cores);
    // The trace's background tasks raise the host side of the decision:
    // offload pays exactly while the node is contended (§9.3).
    rack_app.software_watts = [background, curve](double rate) {
      return curve(rate) + 4.0 + *background * kBackgroundWattsPerCore;
    };

    FpgaNic* fpga = member.fpga;
    SwitchOffloadTarget* switch_target =
        app_spec.switch_option ? member.switch_target.get() : nullptr;
    if (app_spec.switch_option && switch_target == nullptr) {
      throw std::invalid_argument(
          "RowScenario: member " + member.name +
          " switch option needs a switch_app on an ASIC ToR");
    }
    if (switch_target != nullptr) {
      rack_app.measured_rate_pps = [fpga, switch_target] {
        return fpga->AppIngressRatePerSecond() +
               switch_target->AppIngressRatePerSecond();
      };
    } else {
      rack_app.measured_rate_pps = [fpga] {
        return fpga->AppIngressRatePerSecond();
      };
    }
    rack_app.options.push_back(RackPlacementOption{fpga_migrator, MakeLakeRatePower()});
    if (switch_target != nullptr) {
      auto* program =
          dynamic_cast<SwitchProgram*>(member.switch_program_app.get());
      auto marginal = MakeSwitchMarginalPower(program->PowerOverheadAtFullLoad(),
                                              SwitchAsic::kMaxPowerWatts,
                                              testbed.tor_asic()->LineRatePps());
      built.migrators.push_back(std::make_unique<StateTransferMigrator>(
          sim, *switch_target, StateTransferMigrator::Options{ParkPolicy::kKeepWarm},
          member.host_apps.front().get(), member.switch_program_app.get()));
      // Only the program's marginal watts on top of the idling host (§9.4) —
      // the ASIC forwards either way.
      rack_app.options.push_back(RackPlacementOption{
          built.migrators.back().get(),
          [curve, marginal](double rate) { return curve(0) + 4.0 + marginal(rate); }});
    }
    built.apps.back().rack_index =
        built.orchestrator->AddApp(std::move(rack_app));

    // Heartbeats ride the member's ToR link: a downed cable makes the
    // device unreachable (flap suppression), not dead.
    if (Link* link =
            testbed.builder().topology().FindLink(member_spec.link_name)) {
      built.orchestrator->SetHeartbeatReachability(
          fpga, [link, fpga] { return !link->link_down(fpga); });
    }
  }
}

void RowScenario::BuildRow() {
  if (spec_.power.global_budget_watts <= 0) {
    return;
  }
  row_ = std::make_unique<RowOrchestrator>(sharded_, spine_shard(), spec_.power);
  for (int r = 0; r < num_racks(); ++r) {
    BuiltRack& built = racks_[static_cast<size_t>(r)];
    if (built.orchestrator == nullptr) {
      continue;
    }
    built.row_index = static_cast<int>(row_->AddRack(
        built.testbed->spec().name, r, built.orchestrator.get()));
  }
}

void RowScenario::ArmRowFaults() {
  Simulation& home = sharded_.shard(spine_shard());
  for (const RowFaultEventSpec& event : spec_.faults.events) {
    switch (event.kind) {
      case RowFaultEventSpec::Kind::kRackFault:
        break;  // Folded into the rack specs in BuildRack.
      case RowFaultEventSpec::Kind::kUplinkDown:
        for (int r : SelectedRacks(event)) {
          racks_[static_cast<size_t>(r)].uplink->ScheduleDown(event.at);
        }
        break;
      case RowFaultEventSpec::Kind::kUplinkUp:
        for (int r : SelectedRacks(event)) {
          racks_[static_cast<size_t>(r)].uplink->ScheduleUp(event.at);
        }
        break;
      case RowFaultEventSpec::Kind::kGlobalBrownout: {
        const double watts = event.watts;
        home.ScheduleAt(event.at,
                        [this, watts] { row_->ApplyGlobalBrownout(watts); });
        break;
      }
      case RowFaultEventSpec::Kind::kRackBrownout:
        for (int r : SelectedRacks(event)) {
          const int row_index = racks_[static_cast<size_t>(r)].row_index;
          if (row_index < 0) {
            throw std::invalid_argument(
                "RowScenario: rack brownout targets a rack the row does not "
                "orchestrate");
          }
          const double watts = event.watts;
          home.ScheduleAt(event.at, [this, row_index, watts] {
            row_->ApplyRackBrownout(static_cast<size_t>(row_index), watts);
          });
        }
        break;
    }
  }
}

void RowScenario::ScheduleTracePlayback() {
  if (!spec_.trace.enabled) {
    return;
  }
  if (spec_.trace.sim_horizon <= 0) {
    return;
  }
  const int64_t horizon = kTraceHorizonSeconds;
  const double scale =
      static_cast<double>(spec_.trace.sim_horizon) / static_cast<double>(horizon);
  // Phase-shift each rack by horizon / num_racks through the diurnal day so
  // racks peak at staggered times — the load imbalance the demand-weighted
  // global apportionment exists to exploit.
  const int64_t shift_step = horizon / num_racks();
  for (int r = 0; r < num_racks(); ++r) {
    BuiltRack& built = racks_[static_cast<size_t>(r)];
    if (built.apps.empty()) {
      continue;
    }
    Simulation& sim = sharded_.shard(r);
    for (const TraceTask& task : tasks_) {
      const size_t app = task.node % built.apps.size();
      const int64_t wrapped =
          (task.start_seconds + static_cast<int64_t>(r) * shift_step) % horizon;
      // Tasks whose shifted window crosses the day boundary are truncated at
      // the horizon (their tail would belong to the next day).
      const int64_t end_seconds = std::min(horizon, wrapped + task.duration_seconds);
      const SimDuration start =
          static_cast<SimDuration>(static_cast<double>(wrapped) * scale);
      const SimDuration end =
          static_cast<SimDuration>(static_cast<double>(end_seconds) * scale);
      double* background = &built.apps[app].background_cores;
      const double cores = task.cpu_cores;
      sim.Schedule(start, [background, cores] { *background += cores; });
      sim.Schedule(std::max(end, start + 1),
                   [background, cores] { *background -= cores; });
    }
  }
}

void RowScenario::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ScheduleTracePlayback();
  for (BuiltRack& built : racks_) {
    for (LoadClient* client : built.clients) {
      client->Start();
    }
  }
  for (BuiltRack& built : racks_) {
    if (built.orchestrator != nullptr) {
      built.orchestrator->Start();
    }
  }
  if (row_ != nullptr) {
    row_->Start();
  }
}

uint64_t RowScenario::TotalSent() const {
  uint64_t total = 0;
  for (const BuiltRack& built : racks_) {
    for (const LoadClient* client : built.clients) {
      total += client->sent();
    }
  }
  return total;
}

uint64_t RowScenario::TotalReceived() const {
  uint64_t total = 0;
  for (const BuiltRack& built : racks_) {
    for (const LoadClient* client : built.clients) {
      total += client->received();
    }
  }
  return total;
}

}  // namespace incod
