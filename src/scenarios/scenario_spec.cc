#include "src/scenarios/scenario_spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/dns/dns_message.h"
#include "src/kvs/kv_protocol.h"
#include "src/workload/dns_workload.h"

namespace incod {

ScenarioTestbed::ScenarioTestbed(Simulation& sim, ScenarioSpec spec)
    : sim_(sim), spec_(std::move(spec)), builder_(sim, spec_.meter_period) {
  Build();
}

ScenarioTestbed::ScenarioTestbed(ShardedSimulation& sharded, ScenarioSpec spec)
    : sim_(sharded.shard(spec.shard)),
      spec_(std::move(spec)),
      builder_(sharded, spec_.shard, spec_.meter_period) {
  Build();
}

void ScenarioTestbed::ApplyFlowSpec() {
  if (!spec_.flow.enabled) {
    return;
  }
  LinkFlowConfig link_flow = spec_.flow.link;
  link_flow.pfc = true;
  link_flow.ecn = true;
  HostFlowConfig host_flow = spec_.flow.host;
  host_flow.pfc = true;
  host_flow.cnp = spec_.flow.dcqcn;
  spec_.client_link.flow = link_flow;
  spec_.target.pcie.flow = link_flow;
  spec_.host.config.flow = host_flow;
  for (auto& member : spec_.members) {
    member.switch_link.flow = link_flow;
    member.target.pcie.flow = link_flow;
    member.host.config.flow = host_flow;
  }
  if (spec_.flow.dcqcn && !spec_.workload.client.dcqcn.enabled) {
    spec_.workload.client.dcqcn = spec_.flow.dcqcn_config;
    spec_.workload.client.dcqcn.enabled = true;
  }
}

void ScenarioTestbed::ApplyHostNicSpec() {
  if (!spec_.hostnic.enabled) {
    return;
  }
  const auto stamp = [this](ServerConfig& config) {
    config.dispatch = spec_.hostnic.dispatch;
    config.interrupt_cpu_cost = spec_.hostnic.interrupt_cpu_cost;
  };
  stamp(spec_.host.config);
  for (ScenarioMemberSpec& member : spec_.members) {
    stamp(member.host.config);
  }
}

HostNicSpec ScenarioTestbed::ResolveHostNic(const ServerConfig& host_config) const {
  HostNicSpec nic = spec_.hostnic.nic;
  nic.enabled = true;
  nic.host_interrupts = host_config.stack == NetStackType::kKernel;
  return nic;
}

void ScenarioTestbed::Build() {
  ApplyFlowSpec();
  ApplyHostNicSpec();
  if (spec_.tor.present) {
    // Switch-centric scenario: members hang off the ToR; the single-chain
    // host/target sections are ignored.
    BuildTor();
    BuildMembers();
    builder_.StartMeter();
    BuildWorkload();
    BuildFaults();
    return;
  }
  if (!spec_.members.empty()) {
    throw std::invalid_argument("ScenarioSpec: members need tor.present");
  }
  if (!spec_.host.present && spec_.target.kind != ScenarioTargetKind::kFpgaNic) {
    throw std::invalid_argument("ScenarioSpec: a hostless scenario needs an FPGA NIC");
  }
  BuildHost();
  BuildTarget();
  builder_.StartMeter();
  BuildWorkload();
  BuildFaults();
}

AppFactoryEnv ScenarioTestbed::ResolveEnv(const AppFactoryEnv& env) const {
  AppFactoryEnv resolved = env;
  if (resolved.zone == nullptr) {
    resolved.zone = spec_.env.zone;
  }
  if (resolved.paxos_group == nullptr) {
    resolved.paxos_group =
        spec_.paxos_group.has_value() ? &*spec_.paxos_group : spec_.env.paxos_group;
  }
  return resolved;
}

void ScenarioTestbed::BuildTor() {
  if (spec_.tor.asic) {
    SwitchAsicConfig config = spec_.tor.asic_config;
    config.name = spec_.tor.name;
    tor_asic_ = builder_.AddSwitchAsic(config, spec_.tor.metered);
    tor_ = tor_asic_;
    return;
  }
  tor_ = builder_.AddL2Switch(spec_.tor.name);
}

void ScenarioTestbed::BuildMembers() {
  members_.reserve(spec_.members.size());
  for (const ScenarioMemberSpec& member_spec : spec_.members) {
    BuildMember(member_spec);
  }
}

void ScenarioTestbed::BuildMember(const ScenarioMemberSpec& member_spec) {
  const AppFactoryEnv env = ResolveEnv(member_spec.env);
  ScenarioMember built;
  built.name = member_spec.name;

  if (member_spec.aux) {
    if (member_spec.target.kind != ScenarioTargetKind::kNone ||
        !member_spec.switch_app.empty()) {
      throw std::invalid_argument("ScenarioSpec: aux member " + member_spec.name +
                                  " cannot carry a target or switch app");
    }
    built.server = builder_.AddAuxServer(tor_, member_spec.host.config.node,
                                         member_spec.host.config.name,
                                         member_spec.aux_cores);
  } else if (member_spec.host.present) {
    built.server = builder_.AddServer(member_spec.host.config, member_spec.host.metered);
  }
  if (built.server != nullptr) {
    for (const std::string& app_name : member_spec.host.apps) {
      auto app = AppRegistry::Global().Create(app_name, PlacementKind::kHost, env);
      built.server->BindApp(app.get());
      built.host_apps.push_back(std::move(app));
    }
  }

  switch (member_spec.target.kind) {
    case ScenarioTargetKind::kNone:
      if (built.server != nullptr && !member_spec.aux) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " host needs an ingress device (or aux)");
      }
      break;
    case ScenarioTargetKind::kConventionalNic: {
      if (built.server == nullptr) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " conventional NIC needs a host");
      }
      ConventionalNicConfig nic_config =
          member_spec.target.intel_nic
              ? IntelX520Config(member_spec.host.config.node)
              : MellanoxConnectX3Config(member_spec.host.config.node);
      if (!member_spec.target.name.empty()) {
        nic_config.name = member_spec.target.name;
      }
      if (spec_.hostnic.enabled) {
        nic_config.hostnic = ResolveHostNic(member_spec.host.config);
      }
      built.nic = builder_.AddConventionalNic(nic_config, member_spec.target.metered);
      built.port = builder_.ConnectToSwitchPort(tor_, built.nic,
                                                member_spec.switch_routes,
                                                member_spec.switch_link,
                                                member_spec.link_name);
      builder_.ConnectPcie(built.nic, built.server, member_spec.target.pcie,
                           member_spec.link_name + "-pcie");
      break;
    }
    case ScenarioTargetKind::kFpgaNic: {
      FpgaNicConfig fpga_config;
      fpga_config.name = member_spec.target.name.empty() ? "netfpga"
                                                         : member_spec.target.name;
      fpga_config.host_node = member_spec.host.config.node;
      fpga_config.device_node = member_spec.target.device_node;
      fpga_config.standalone = member_spec.target.standalone;
      if (!member_spec.target.app.empty()) {
        built.offload_app = AppRegistry::Global().Create(
            member_spec.target.app, PlacementKind::kFpgaNic, env);
      }
      built.fpga = builder_.AddFpgaNic(fpga_config, built.offload_app.get(),
                                       member_spec.target.metered);
      if (built.offload_app != nullptr) {
        built.fpga->SetAppActive(member_spec.target.initially_active);
      }
      built.port = builder_.ConnectToSwitchPort(tor_, built.fpga,
                                                member_spec.switch_routes,
                                                member_spec.switch_link,
                                                member_spec.link_name);
      if (built.server != nullptr) {
        builder_.ConnectPcie(built.fpga, built.server, member_spec.target.pcie,
                             member_spec.link_name + "-pcie");
      }
      break;
    }
    case ScenarioTargetKind::kSmartNic: {
      if (built.server == nullptr) {
        throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                    " SmartNIC needs a host");
      }
      SmartNicDeviceConfig nic_config;
      nic_config.name = member_spec.target.name.empty() ? "smartnic"
                                                        : member_spec.target.name;
      nic_config.host_node = member_spec.host.config.node;
      nic_config.device_node = member_spec.target.device_node;
      if (!member_spec.target.app.empty()) {
        built.offload_app = AppRegistry::Global().Create(
            member_spec.target.app, PlacementKind::kSmartNic, env);
      }
      built.smartnic = builder_.AddSmartNic(
          SmartNicPresetByName(member_spec.target.smartnic_preset), nic_config,
          member_spec.target.metered);
      if (built.offload_app != nullptr) {
        built.smartnic->InstallApp(built.offload_app.get());
        built.smartnic->SetAppActive(member_spec.target.initially_active);
      }
      built.port = builder_.ConnectToSwitchPort(tor_, built.smartnic,
                                                member_spec.switch_routes,
                                                member_spec.switch_link,
                                                member_spec.link_name);
      builder_.ConnectPcie(built.smartnic, built.server, member_spec.target.pcie,
                           member_spec.link_name + "-pcie");
      break;
    }
  }

  if (!member_spec.switch_app.empty()) {
    if (tor_asic_ == nullptr) {
      throw std::invalid_argument("ScenarioSpec: member " + member_spec.name +
                                  " switch app needs an ASIC ToR");
    }
    built.switch_program_app = AppRegistry::Global().Create(
        member_spec.switch_app, PlacementKind::kSwitchAsic, env);
    auto* program = dynamic_cast<SwitchProgram*>(built.switch_program_app.get());
    if (program == nullptr) {
      throw std::logic_error("ScenarioSpec: " + member_spec.switch_app +
                             " kSwitchAsic placement is not a SwitchProgram");
    }
    built.switch_target = std::make_unique<SwitchOffloadTarget>(
        *tor_asic_, *program, built.switch_program_app->proto(), env.service);
  }

  members_.push_back(std::move(built));
}

void ScenarioTestbed::BuildFaults() {
  faults_ = std::make_unique<FaultInjector>(sim_);
  const auto register_link = [this](const std::string& name) {
    if (name.empty()) {
      return;
    }
    if (Link* link = builder_.topology().FindLink(name)) {
      faults_->RegisterLink(name, link);
    }
  };
  if (tor_ != nullptr) {
    faults_->RegisterNode(tor_->SinkName(), tor_);
  }
  if (server_ != nullptr) {
    faults_->RegisterNode(server_->SinkName(), server_);
  }
  if (fpga_ != nullptr) {
    // Both names mean engine death: TargetName ("netfpga/app") is what the
    // orchestrator logs, SinkName ("netfpga") is what specs naturally say.
    faults_->RegisterTarget(fpga_->TargetName(), fpga_);
    faults_->RegisterTarget(fpga_->SinkName(), fpga_);
  }
  if (smartnic_ != nullptr) {
    faults_->RegisterTarget(smartnic_->TargetName(), smartnic_);
    faults_->RegisterTarget(smartnic_->SinkName(), smartnic_);
  }
  if (nic_ != nullptr) {
    faults_->RegisterNode(nic_->SinkName(), nic_);
  }
  register_link("pcie");
  register_link("client-10ge");
  for (size_t i = 0; i < members_.size(); ++i) {
    ScenarioMember& m = members_[i];
    const ScenarioMemberSpec& member_spec = spec_.members[i];
    if (m.server != nullptr) {
      faults_->RegisterNode(m.server->SinkName(), m.server);
    }
    if (m.fpga != nullptr) {
      faults_->RegisterTarget(m.fpga->TargetName(), m.fpga);
      faults_->RegisterTarget(m.fpga->SinkName(), m.fpga);
    }
    if (m.smartnic != nullptr) {
      faults_->RegisterTarget(m.smartnic->TargetName(), m.smartnic);
      faults_->RegisterTarget(m.smartnic->SinkName(), m.smartnic);
    }
    if (m.nic != nullptr) {
      faults_->RegisterNode(m.nic->SinkName(), m.nic);
    }
    if (m.switch_target != nullptr) {
      faults_->RegisterTarget(m.switch_target->TargetName(), m.switch_target.get());
    }
    register_link(member_spec.link_name);
    register_link(member_spec.link_name + "-pcie");
  }
  faults_->Arm(spec_.faults);
}

ScenarioMember& ScenarioTestbed::member(const std::string& name) {
  for (ScenarioMember& m : members_) {
    if (m.name == name) {
      return m;
    }
  }
  throw std::invalid_argument("ScenarioTestbed: no member named " + name);
}

void ScenarioTestbed::BuildHost() {
  if (!spec_.host.present) {
    return;
  }
  server_ = builder_.AddServer(spec_.host.config, spec_.host.metered);
  for (const std::string& name : spec_.host.apps) {
    auto app = AppRegistry::Global().Create(name, PlacementKind::kHost, spec_.env);
    server_->BindApp(app.get());
    host_apps_.push_back(std::move(app));
  }
}

void ScenarioTestbed::BuildTarget() {
  switch (spec_.target.kind) {
    case ScenarioTargetKind::kNone:
      return;
    case ScenarioTargetKind::kConventionalNic: {
      if (server_ == nullptr) {
        throw std::invalid_argument("ScenarioSpec: conventional NIC needs a host");
      }
      ConventionalNicConfig nic_config =
          spec_.target.intel_nic ? IntelX520Config(spec_.host.config.node)
                                 : MellanoxConnectX3Config(spec_.host.config.node);
      if (!spec_.target.name.empty()) {
        nic_config.name = spec_.target.name;
      }
      if (spec_.hostnic.enabled) {
        nic_config.hostnic = ResolveHostNic(spec_.host.config);
      }
      nic_ = builder_.AddConventionalNic(nic_config, spec_.target.metered);
      builder_.ConnectPcie(nic_, server_, spec_.target.pcie);
      return;
    }
    case ScenarioTargetKind::kFpgaNic: {
      FpgaNicConfig fpga_config;
      fpga_config.name = spec_.target.name.empty() ? "netfpga" : spec_.target.name;
      fpga_config.host_node = spec_.host.config.node;
      fpga_config.device_node = spec_.target.device_node;
      fpga_config.standalone = spec_.target.standalone;
      if (!spec_.target.app.empty()) {
        offload_app_ = AppRegistry::Global().Create(spec_.target.app,
                                                    PlacementKind::kFpgaNic, spec_.env);
      }
      fpga_ = builder_.AddFpgaNic(fpga_config, offload_app_.get(), spec_.target.metered);
      if (server_ != nullptr) {
        builder_.ConnectPcie(fpga_, server_, spec_.target.pcie);
      }
      if (offload_app_ != nullptr) {
        fpga_->SetAppActive(spec_.target.initially_active);
      }
      return;
    }
    case ScenarioTargetKind::kSmartNic: {
      if (server_ == nullptr) {
        throw std::invalid_argument("ScenarioSpec: a SmartNIC needs a host");
      }
      SmartNicDeviceConfig nic_config;
      nic_config.name = spec_.target.name.empty() ? "smartnic" : spec_.target.name;
      nic_config.host_node = spec_.host.config.node;
      nic_config.device_node = spec_.target.device_node;
      if (!spec_.target.app.empty()) {
        offload_app_ = AppRegistry::Global().Create(spec_.target.app,
                                                    PlacementKind::kSmartNic, spec_.env);
      }
      smartnic_ = builder_.AddSmartNic(
          SmartNicPresetByName(spec_.target.smartnic_preset), nic_config,
          spec_.target.metered);
      builder_.ConnectPcie(smartnic_, server_, spec_.target.pcie);
      if (offload_app_ != nullptr) {
        smartnic_->InstallApp(offload_app_.get());
        smartnic_->SetAppActive(spec_.target.initially_active);
      }
      return;
    }
  }
}

NodeId ScenarioTestbed::ServiceNode() const {
  if (spec_.host.present) {
    return spec_.host.config.node;
  }
  return spec_.target.device_node;
}

App* ScenarioTestbed::host_app(size_t index) {
  return index < host_apps_.size() ? host_apps_[index].get() : nullptr;
}

LoadClient& ScenarioTestbed::AddClient(LoadClientConfig config,
                                       std::unique_ptr<ArrivalProcess> arrival,
                                       RequestFactory factory) {
  if (client_ != nullptr) {
    throw std::logic_error("ScenarioTestbed: client already attached");
  }
  if (spec_.flow.enabled && spec_.flow.dcqcn && !config.dcqcn.enabled) {
    config.dcqcn = spec_.flow.dcqcn_config;
    config.dcqcn.enabled = true;
  }
  client_ = builder_.AddLoadClient(std::move(config), std::move(arrival),
                                   std::move(factory));
  if (fpga_ != nullptr) {
    builder_.ConnectClient(client_, fpga_, spec_.client_link);
  } else if (smartnic_ != nullptr) {
    builder_.ConnectClient(client_, smartnic_, spec_.client_link);
  } else if (nic_ != nullptr) {
    builder_.ConnectClient(client_, nic_, spec_.client_link);
  } else {
    throw std::logic_error("ScenarioTestbed: no ingress device for the client");
  }
  return *client_;
}

LoadClient& ScenarioTestbed::AddTorClient(LoadClientConfig config,
                                          std::unique_ptr<ArrivalProcess> arrival,
                                          RequestFactory factory, int shard) {
  if (tor_ == nullptr) {
    throw std::logic_error("ScenarioTestbed: AddTorClient needs a ToR");
  }
  if (spec_.flow.enabled && spec_.flow.dcqcn && !config.dcqcn.enabled) {
    config.dcqcn = spec_.flow.dcqcn_config;
    config.dcqcn.enabled = true;
  }
  const NodeId node = config.node;
  LoadClient* client = builder_.AddLoadClient(std::move(config), std::move(arrival),
                                              std::move(factory), shard);
  Link* link = builder_.topology().ConnectToSwitch(tor_, client, node,
                                                   spec_.client_link);
  client->SetUplink(link);
  return *client;
}

RequestFactory MakeScenarioRequestFactory(const ScenarioWorkloadSpec& workload,
                                          NodeId service, const Zone* zone) {
  using Kind = ScenarioWorkloadSpec::Kind;
  switch (workload.kind) {
    case Kind::kKvUniformGets: {
      const int64_t max_key =
          std::max<int64_t>(0, static_cast<int64_t>(workload.keyspace) - 1);
      if (workload.cross_service != 0) {
        // Key first, then the cross-service decision: the draw order is part
        // of the stream contract (see ScenarioWorkloadSpec::cross_service).
        const NodeId remote = workload.cross_service;
        const double cross_fraction = workload.cross_fraction;
        return [service, remote, max_key,
                cross_fraction](NodeId src, uint64_t id, SimTime now, Rng& rng) {
          const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, max_key));
          const bool cross = rng.UniformDouble(0.0, 1.0) < cross_fraction;
          const NodeId target = cross ? remote : service;
          return MakeKvRequestPacket(src, target, KvRequest{KvOp::kGet, key, 0}, id,
                                     now);
        };
      }
      return [service, max_key](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, max_key));
        return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
      };
    }
    case Kind::kDnsQueries: {
      DnsWorkloadConfig dns;
      dns.dns_service = service;
      dns.zone_size = zone != nullptr ? zone->size() : workload.keyspace;
      dns.miss_fraction = workload.dns_miss_fraction;
      return MakeDnsRequestFactory(dns);
    }
    case Kind::kNone:
      break;
  }
  return nullptr;
}

void ScenarioTestbed::BuildWorkload() {
  using Kind = ScenarioWorkloadSpec::Kind;
  if (spec_.workload.kind == Kind::kNone) {
    return;
  }
  if (tor_ != nullptr) {
    throw std::invalid_argument(
        "ScenarioSpec: declarative workloads target the single-chain service; "
        "attach clients to a switch-centric scenario via AddTorClient");
  }
  RequestFactory factory =
      MakeScenarioRequestFactory(spec_.workload, ServiceNode(), spec_.env.zone);
  if (factory == nullptr) {
    return;
  }
  AddClient(spec_.workload.client,
            std::make_unique<ConstantArrival>(spec_.workload.rate_per_second),
            std::move(factory));
  client_->Start();
}

}  // namespace incod
