#include "src/scenarios/trace_rack.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/sim/random.h"
#include "src/workload/arrival.h"

namespace incod {

namespace {

constexpr NodeId kTraceHostBaseNode = 1;
constexpr NodeId kTraceDeviceBaseNode = 50;
constexpr NodeId kTraceClientBaseNode = 100;

std::vector<TraceRackAppOptions> DefaultApps() {
  std::vector<TraceRackAppOptions> apps(2);
  apps[0].registry_name = "kvs";
  apps[0].workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  apps[0].workload.rate_per_second = 150000;
  apps[1].registry_name = "dns";
  apps[1].workload.kind = ScenarioWorkloadSpec::Kind::kDnsQueries;
  apps[1].workload.rate_per_second = 150000;
  return apps;
}

}  // namespace

TraceRackScenario::TraceRackScenario(Simulation& sim, TraceRackOptions options)
    : sim_(sim), options_(std::move(options)) {
  Init();
}

TraceRackScenario::TraceRackScenario(ShardedSimulation& sharded,
                                     const TraceRackShardPlan& plan,
                                     TraceRackOptions options)
    : sim_(sharded.shard(plan.rack)),
      options_(std::move(options)),
      sharded_(&sharded),
      plan_(plan) {
  Init();
}

void TraceRackScenario::Init() {
  if (options_.apps.empty()) {
    options_.apps = DefaultApps();
  }
  zone_.FillSynthetic(options_.zone_size);

  ScenarioSpec spec;
  spec.name = "trace-rack";
  spec.meter_period = options_.meter_period;
  spec.zone = &zone_;
  spec.tor.present = true;
  spec.tor.asic = true;
  spec.tor.name = "trace-tor";
  spec.tor.metered = true;

  for (size_t i = 0; i < options_.apps.size(); ++i) {
    const TraceRackAppOptions& app = options_.apps[i];
    if (!AppRegistry::Global().Supports(app.registry_name, PlacementKind::kHost) ||
        !AppRegistry::Global().Supports(app.registry_name, PlacementKind::kFpgaNic)) {
      throw std::invalid_argument("TraceRackScenario: " + app.registry_name +
                                  " needs host + FPGA placements");
    }
    ScenarioMemberSpec member;
    member.name = app.registry_name + "-" + std::to_string(i);
    member.link_name = member.name + "-10ge";
    member.host.config.name = member.name + "-host";
    member.host.config.node = kTraceHostBaseNode + static_cast<NodeId>(i);
    member.host.config.num_cores = 4;
    member.host.config.power_curve = I7SyntheticCurve();
    member.host.apps = {app.registry_name};
    member.target.kind = ScenarioTargetKind::kFpgaNic;
    member.target.name = member.name + "-netfpga";
    member.target.device_node = kTraceDeviceBaseNode + static_cast<NodeId>(i);
    member.target.app = app.registry_name;
    member.target.initially_active = false;  // Migrator parks the placement.
    member.switch_routes = {member.host.config.node, member.target.device_node};
    spec.members.push_back(std::move(member));
  }

  if (sharded_ != nullptr) {
    spec.shard = plan_.rack;
    spec.client_link.propagation_delay = plan_.client_propagation;
    testbed_ = std::make_unique<ScenarioTestbed>(*sharded_, std::move(spec));
  } else {
    testbed_ = std::make_unique<ScenarioTestbed>(sim_, std::move(spec));
  }
  BuildApps();

  GoogleTraceConfig trace = options_.trace;
  trace.num_nodes =
      std::min<uint32_t>(trace.num_nodes, static_cast<uint32_t>(apps_.size()));
  trace.num_nodes = std::max<uint32_t>(trace.num_nodes, 1);
  Rng rng(options_.trace_seed);
  tasks_ = SynthesizeGoogleTrace(trace, rng);
}

void TraceRackScenario::BuildApps() {
  RackOrchestratorConfig config = options_.orchestrator;
  config.power_budget_watts = options_.power_budget_watts;
  orchestrator_ = std::make_unique<RackOrchestrator>(sim_, config);

  apps_.reserve(options_.apps.size());
  const double kHostIdleWatts = 35.0;
  for (size_t i = 0; i < options_.apps.size(); ++i) {
    const TraceRackAppOptions& app_options = options_.apps[i];
    ScenarioMember& member = testbed_->member(i);
    migrators_.push_back(std::make_unique<StateTransferMigrator>(
        sim_, *member.fpga,
        StateTransferMigrator::Options::FromPolicy(ParkPolicy::kGatedPark),
        member.host_apps.front().get(), member.offload_app.get()));

    TraceApp traced;
    traced.name = member.name;
    traced.migrator = migrators_.back().get();

    RackAppSpec rack_app;
    rack_app.name = member.name;
    rack_app.warm_migration = app_options.warm_migration;
    auto curve = MakeServerRatePower(I7SyntheticCurve(), app_options.host_service_time,
                                     testbed_->spec().members[i].host.config.num_cores);
    // The trace's background tasks raise the host side of the decision:
    // offload pays exactly while the node is contended (§9.3).
    const double watts_per_core = options_.background_watts_per_core;
    rack_app.software_watts = [this, i, curve, watts_per_core](double r) {
      return curve(r) + 4.0 + apps_[i].background_cores * watts_per_core;
    };
    FpgaNic* fpga = member.fpga;
    rack_app.measured_rate_pps = [fpga] { return fpga->AppIngressRatePerSecond(); };
    rack_app.options.push_back(
        RackPlacementOption{member.fpga, traced.migrator,
                            MakeFpgaRatePower(kHostIdleWatts, 24.0, 1.0, 13e6),
                            ParkPolicy::kGatedPark});
    traced.rack_index = orchestrator_->AddApp(std::move(rack_app));

    LoadClientConfig client_config = app_options.workload.client;
    client_config.node = kTraceClientBaseNode + static_cast<NodeId>(i);
    RequestFactory factory = MakeScenarioRequestFactory(
        app_options.workload, kTraceHostBaseNode + static_cast<NodeId>(i), &zone_);
    if (factory == nullptr) {
      throw std::invalid_argument("TraceRackScenario: app " + traced.name +
                                  " needs a workload kind");
    }
    const int client_shard =
        sharded_ != nullptr ? plan_.first_client + static_cast<int>(i) : -1;
    traced.client = &testbed_->AddTorClient(
        std::move(client_config),
        std::make_unique<PoissonArrival>(app_options.workload.rate_per_second),
        std::move(factory), client_shard);
    apps_.push_back(std::move(traced));
  }
}

const std::string& TraceRackScenario::app_name(size_t index) const {
  return apps_.at(index).name;
}

App* TraceRackScenario::host_app(size_t index) {
  return testbed_->member(index).host_apps.front().get();
}

App* TraceRackScenario::offload_app(size_t index) {
  return testbed_->member(index).offload_app.get();
}

void TraceRackScenario::ScheduleTrace() {
  const double horizon = static_cast<double>(options_.trace.horizon_seconds);
  if (horizon <= 0 || options_.sim_horizon <= 0) {
    return;
  }
  const double scale = static_cast<double>(options_.sim_horizon) / horizon;
  for (const TraceTask& task : tasks_) {
    if (task.node >= apps_.size()) {
      continue;
    }
    const size_t app = task.node;
    const SimDuration start =
        static_cast<SimDuration>(static_cast<double>(task.start_seconds) * scale);
    const SimDuration end = static_cast<SimDuration>(
        static_cast<double>(task.start_seconds + task.duration_seconds) * scale);
    const double cores = task.cpu_cores;
    sim_.Schedule(start, [this, app, cores] { apps_[app].background_cores += cores; });
    sim_.Schedule(std::max(end, start + 1),
                  [this, app, cores] { apps_[app].background_cores -= cores; });
  }
}

void TraceRackScenario::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ScheduleTrace();
  for (TraceApp& app : apps_) {
    app.client->Start();
  }
  orchestrator_->Start();
}

}  // namespace incod
