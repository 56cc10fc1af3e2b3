#include "src/scenarios/rack_scenario.h"

#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/scenarios/paxos_testbed.h"

namespace incod {

size_t MixedRackScenario::paxos_app_index() const {
  if (paxos_app_ == kNoApp) {
    throw std::logic_error("MixedRackScenario: built without paxos");
  }
  return paxos_app_;
}

ScenarioSpec MakeMixedRackSpec(const MixedRackOptions& options, const Zone* zone) {
  ScenarioSpec spec;
  spec.name = "mixed-rack";
  spec.meter_period = options.meter_period;
  spec.flow = options.flow;
  spec.hostnic = options.hostnic;
  spec.zone = zone;

  // Rack ToR: a Tofino-class ASIC forwarding everything at line rate.
  spec.tor.present = true;
  spec.tor.asic = true;
  spec.tor.name = "rack-tor";
  spec.tor.metered = true;

  {
    ScenarioMemberSpec kvs;
    kvs.name = "kvs";
    kvs.link_name = "kvs-10ge";
    kvs.host.config.name = "kvs-host";
    kvs.host.config.node = kRackKvsServerNode;
    kvs.host.config.num_cores = 4;
    kvs.host.config.power_curve = I7MemcachedCurve();
    kvs.host.apps = {"kvs"};
    kvs.target.kind = ScenarioTargetKind::kFpgaNic;
    kvs.target.name = "netfpga-lake";
    kvs.target.device_node = kRackKvsDeviceNode;
    kvs.target.app = "kvs";
    // The migrator parks the placement; avoid a spurious activate cycle.
    kvs.target.initially_active = false;
    kvs.switch_routes = {kRackKvsServerNode, kRackKvsDeviceNode};
    if (options.kvs_switch_placement) {
      // Second in-network placement: a NetCache program fronting the same
      // service in the ToR pipeline.
      kvs.switch_app = "kvs";
      kvs.env.service = kRackKvsServerNode;
    }
    spec.members.push_back(std::move(kvs));
  }

  {
    ScenarioMemberSpec dns;
    dns.name = "dns";
    dns.link_name = "dns-10ge";
    dns.host.config.name = "dns-host";
    dns.host.config.node = kRackDnsServerNode;
    dns.host.config.num_cores = 4;
    dns.host.config.power_curve = I7NsdCurve();
    dns.host.apps = {"dns"};
    dns.target.kind = ScenarioTargetKind::kConventionalNic;
    dns.target.name = "";  // Preset (Mellanox) name.
    dns.switch_routes = {kRackDnsServerNode};
    // DNS offloads into the ToR pipeline itself (§9.2's switch-DNS argument).
    dns.switch_app = "dns";
    dns.env.service = kRackDnsServerNode;
    spec.members.push_back(std::move(dns));
  }

  if (options.enable_paxos) {
    PaxosGroupMembers paxos = MakePaxosGroupMembers(
        options.num_acceptors, kRackAcceptorBaseNode, kRackLearnerNode,
        kRackPaxosLeaderService);
    spec.paxos_group = std::move(paxos.group);

    // Dual leader (Fig 7 style): software leader on the host, P4xos on its
    // NIC.
    ScenarioMemberSpec leader;
    leader.name = "paxos";
    leader.link_name = "paxos-10ge";
    leader.host.config.name = "paxos-leader-host";
    leader.host.config.node = kRackPaxosHostNode;
    leader.host.config.num_cores = 4;
    leader.host.config.power_curve = I7LibpaxosCurve();
    leader.host.apps = {"paxos-leader"};
    leader.target.kind = ScenarioTargetKind::kFpgaNic;
    leader.target.name = "netfpga-p4xos";
    leader.target.device_node = kRackPaxosDeviceNode;
    leader.target.app = "paxos-leader";
    leader.target.initially_active = false;
    leader.switch_routes = {kRackPaxosLeaderService, kRackPaxosHostNode,
                            kRackPaxosDeviceNode};
    leader.env.paxos_role_id = 1;
    leader.env.service = kRackPaxosLeaderService;
    spec.members.push_back(std::move(leader));

    // Acceptors and learner on aux boxes that never bottleneck.
    for (ScenarioMemberSpec& acceptor : paxos.acceptors) {
      spec.members.push_back(std::move(acceptor));
    }
    spec.members.push_back(std::move(paxos.learner));
  }
  spec.faults = options.faults;
  return spec;
}

MixedRackScenario::MixedRackScenario(Simulation& sim, MixedRackOptions options)
    : sim_(sim), options_(std::move(options)) {
  zone_.FillSynthetic(options_.zone_size);
  testbed_ = std::make_unique<ScenarioTestbed>(sim_,
                                               MakeMixedRackSpec(options_, &zone_));
  ResolveMembers();
  BuildMigrators();
  RegisterApps();
}

MixedRackScenario::MixedRackScenario(ShardedSimulation& sharded,
                                     const MixedRackShardPlan& plan,
                                     MixedRackOptions options)
    : sim_(sharded.shard(plan.rack)),
      options_(std::move(options)),
      sharded_(&sharded),
      plan_(plan) {
  zone_.FillSynthetic(options_.zone_size);
  ScenarioSpec spec = MakeMixedRackSpec(options_, &zone_);
  spec.shard = plan_.rack;
  spec.client_link.propagation_delay = plan_.client_propagation;
  testbed_ = std::make_unique<ScenarioTestbed>(sharded, std::move(spec));
  ResolveMembers();
  BuildMigrators();
  RegisterApps();
}

void MixedRackScenario::ResolveMembers() {
  ScenarioMember& kvs = testbed_->member("kvs");
  kvs_server_ = kvs.server;
  kvs_fpga_ = kvs.fpga;
  memcached_ = dynamic_cast<MemcachedServer*>(kvs.host_apps.front().get());
  lake_ = dynamic_cast<LakeCache*>(kvs.offload_app.get());
  netcache_ = dynamic_cast<KvSwitchCache*>(kvs.switch_program_app.get());
  kvs_switch_target_ = kvs.switch_target.get();

  ScenarioMember& dns = testbed_->member("dns");
  dns_server_ = dns.server;
  dns_nic_ = dns.nic;
  nsd_ = dynamic_cast<NsdServer*>(dns.host_apps.front().get());
  dns_program_ = dynamic_cast<DnsSwitchProgram*>(dns.switch_program_app.get());
  dns_target_ = dns.switch_target.get();

  if (options_.enable_paxos) {
    ScenarioMember& paxos = testbed_->member("paxos");
    paxos_host_ = paxos.server;
    paxos_fpga_ = paxos.fpga;
    paxos_port_ = paxos.port;
    software_leader_ = dynamic_cast<SoftwareLeader*>(paxos.host_apps.front().get());
    fpga_leader_ = dynamic_cast<P4xosFpgaApp*>(paxos.offload_app.get());
    auto* learner = dynamic_cast<SoftwareLearner*>(
        testbed_->member("learner").host_apps.front().get());
    learner->StartGapTimer();
  }
}

void MixedRackScenario::BuildMigrators() {
  // Starts parked on the host placement (the migrator applies the policy).
  kvs_migrator_ = std::make_unique<StateTransferMigrator>(
      sim_, *kvs_fpga_, StateTransferMigrator::Options{ParkPolicy::kGatedPark},
      memcached_, lake_);
  dns_migrator_ = std::make_unique<StateTransferMigrator>(
      sim_, *dns_target_, StateTransferMigrator::Options{ParkPolicy::kKeepWarm}, nsd_,
      dns_program_);
  if (kvs_switch_target_ != nullptr) {
    kvs_switch_migrator_ = std::make_unique<StateTransferMigrator>(
        sim_, *kvs_switch_target_, StateTransferMigrator::Options{ParkPolicy::kKeepWarm},
        memcached_, netcache_);
  }
  if (options_.enable_paxos) {
    paxos_migrator_ = std::make_unique<PaxosLeaderMigrator>(
        sim_, tor(), kRackPaxosLeaderService, *software_leader_, paxos_port_,
        *paxos_fpga_, *fpga_leader_, paxos_port_);

    options_.paxos_client.node = kRackPaxosClientNode;
    options_.paxos_client.leader_service = kRackPaxosLeaderService;
    Link::Config client_link = TestbedBuilder::TenGigLink();
    Simulation* client_sim = &sim_;
    if (sharded_ != nullptr) {
      client_sim = &sharded_->shard(plan_.paxos_client);
      client_link.propagation_delay = plan_.client_propagation;
    }
    paxos_client_ = std::make_unique<PaxosClient>(*client_sim, options_.paxos_client);
    if (sharded_ != nullptr) {
      // Before ConnectToSwitch, so the new link sees the client's shard.
      testbed_->builder().topology().AssignShard(paxos_client_.get(),
                                                 plan_.paxos_client);
    }
    Link* link = testbed_->builder().topology().ConnectToSwitch(
        testbed_->tor(), paxos_client_.get(), kRackPaxosClientNode, client_link);
    paxos_client_->SetUplink(link);
  }
}

void MixedRackScenario::RegisterApps() {
  RackOrchestratorConfig config = options_.orchestrator;
  config.power_budget_watts = options_.power_budget_watts;
  orchestrator_ = std::make_unique<RackOrchestrator>(sim_, config);

  // §8-calibrated placement models. Both sides include the host (it stays
  // powered either way) so the delta is the true placement cost.
  const double kHostIdleWatts = 35.0;

  RackAppSpec kvs;
  kvs.name = "kvs";
  kvs.warm_migration = options_.warm.kvs;
  kvs.checkpoint_period = options_.kvs_checkpoint_period;
  auto kvs_curve = MakeServerRatePower(I7MemcachedCurve(), kMemcachedServiceTime, 4);
  kvs.software_watts = [kvs_curve](double r) { return kvs_curve(r) + 4.0; };
  kvs.measured_rate_pps = [this] { return kvs_fpga_->AppIngressRatePerSecond(); };
  kvs.options.push_back(RackPlacementOption{kvs_migrator_.get(), MakeLakeRatePower()});
  if (kvs_switch_target_ != nullptr) {
    // NetCache placement: host idles while the ToR answers; the program's
    // marginal pipeline watts ride on top (same model as the DNS program).
    auto kvs_marginal = MakeSwitchMarginalPower(
        netcache_->PowerOverheadAtFullLoad(), SwitchAsic::kMaxPowerWatts,
        tor().LineRatePps());
    RatePowerFn kvs_switch_watts = [kvs_curve, kvs_marginal](double r) {
      return kvs_curve(0) + 4.0 + kvs_marginal(r);
    };
    kvs.measured_rate_pps = [this] {
      return kvs_fpga_->AppIngressRatePerSecond() +
             kvs_switch_target_->AppIngressRatePerSecond();
    };
    kvs.options.push_back(
        RackPlacementOption{kvs_switch_migrator_.get(), std::move(kvs_switch_watts)});
  }
  kvs_app_ = orchestrator_->AddApp(std::move(kvs));

  RackAppSpec dns;
  dns.name = "dns";
  dns.warm_migration = options_.warm.dns;
  auto dns_curve = MakeServerRatePower(I7NsdCurve(), Nanoseconds(4180), 4);
  dns.software_watts = [dns_curve](double r) { return dns_curve(r) + 4.0; };
  auto dns_marginal = MakeSwitchMarginalPower(
      dns_program_->PowerOverheadAtFullLoad(), SwitchAsic::kMaxPowerWatts,
      tor().LineRatePps());
  // Host idles (rate 0) while the ToR answers; marginal program watts on top.
  RatePowerFn dns_network = [dns_curve, dns_marginal](double r) {
    return dns_curve(0) + 4.0 + dns_marginal(r);
  };
  dns.measured_rate_pps = [this] { return dns_target_->AppIngressRatePerSecond(); };
  dns.options.push_back(RackPlacementOption{dns_migrator_.get(), std::move(dns_network)});
  dns_app_ = orchestrator_->AddApp(std::move(dns));

  if (options_.enable_paxos) {
    RackAppSpec paxos;
    paxos.name = "paxos";
    paxos.warm_migration = options_.warm.paxos;
    paxos.checkpoint_period = options_.paxos_checkpoint_period;
    paxos.restore_checkpoint_to_home = options_.paxos_restore_to_home;
    paxos.software_watts = MakeServerRatePower(I7LibpaxosCurve(), Nanoseconds(5600), 1);
    paxos.measured_rate_pps = [this] { return paxos_fpga_->AppIngressRatePerSecond(); };
    paxos.options.push_back(RackPlacementOption{
        paxos_migrator_.get(), MakeFpgaRatePower(kHostIdleWatts, 12.6, 1.2, 10e6)});
    paxos_app_ = orchestrator_->AddApp(std::move(paxos));
  }

  // PSU brownouts step the shared budget through the orchestrator's
  // eviction pass. Read at fire time, so arming before this wiring is fine.
  testbed_->faults().SetPowerCapHandler(
      [this](double watts) { orchestrator_->ApplyPowerCap(watts); });
}

LoadClient& MixedRackScenario::AddKvsClient(LoadClientConfig config,
                                            std::unique_ptr<ArrivalProcess> arrival,
                                            RequestFactory factory) {
  config.node = kRackKvsClientNode;
  return testbed_->AddTorClient(std::move(config), std::move(arrival),
                                std::move(factory), ClientShard(plan_.kvs_client));
}

LoadClient& MixedRackScenario::AddDnsClient(LoadClientConfig config,
                                            std::unique_ptr<ArrivalProcess> arrival,
                                            RequestFactory factory) {
  config.node = kRackDnsClientNode;
  return testbed_->AddTorClient(std::move(config), std::move(arrival),
                                std::move(factory), ClientShard(plan_.dns_client));
}

void MixedRackScenario::PrefillKvs(uint64_t count, uint32_t value_bytes) {
  for (uint64_t k = 0; k < count; ++k) {
    memcached_->store().Set(k, value_bytes);
  }
  lake_->WarmFill(0, count, value_bytes);
}

}  // namespace incod
