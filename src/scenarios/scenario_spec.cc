#include "src/scenarios/scenario_spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/dns/dns_message.h"
#include "src/kvs/kv_protocol.h"
#include "src/workload/dns_workload.h"

namespace incod {

ScenarioTestbed::ScenarioTestbed(Simulation& sim, ScenarioSpec spec)
    : sim_(sim), spec_(std::move(spec)), builder_(sim, spec_.meter_period), faults_(sim_) {
  Build();
}

ScenarioTestbed::ScenarioTestbed(ShardedSimulation& sharded, ScenarioSpec spec)
    : sim_(sharded.shard(spec.shard)),
      spec_(std::move(spec)),
      builder_(sharded, spec_.shard, spec_.meter_period),
      faults_(sim_) {
  Build();
}

void ScenarioTestbed::ApplyFlowSpec() {
  if (!spec_.flow.enabled) {
    return;
  }
  LinkFlowConfig link_flow;
  link_flow.pfc = true;
  link_flow.ecn = true;
  HostFlowConfig host_flow = spec_.flow.host;
  host_flow.pfc = true;
  host_flow.cnp = spec_.flow.dcqcn;
  spec_.client_link.flow = link_flow;
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
  for (ScenarioMemberSpec& member : spec_.members) {
    member.host.config.dispatch = spec_.hostnic.dispatch;
    member.host.config.interrupt_cpu_cost = spec_.hostnic.interrupt_cpu_cost;
  }
}

HostNicSpec ScenarioTestbed::ResolveHostNic(const ServerConfig& host_config) const {
  HostNicSpec nic = spec_.hostnic.nic;
  nic.enabled = true;
  nic.host_interrupts = host_config.stack == NetStackType::kKernel;
  return nic;
}

void ScenarioTestbed::Build() {
  ValidateShape();
  ApplyFlowSpec();
  ApplyHostNicSpec();
  if (spec_.tor.present) {
    BuildTor();
  }
  BuildMembers();
  builder_.StartMeter();
  BuildWorkload();
  BuildFaults();
}

void ScenarioTestbed::ValidateShape() const {
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument("ScenarioSpec: " + why);
  };
  const bool tor = spec_.tor.present;
  if (!tor && spec_.members.size() != 1) {
    reject("a spec without a ToR is one chain: exactly one member");
  }
  if (tor && spec_.workload.kind != ScenarioWorkloadSpec::Kind::kNone) {
    reject("declarative workloads target the chain's service; attach clients "
           "to a switch-centric scenario via AddTorClient");
  }
  for (const ScenarioMemberSpec& m : spec_.members) {
    const ScenarioTargetKind kind = m.target.kind;
    if (m.aux) {
      if (kind != ScenarioTargetKind::kNone || !m.switch_app.empty() || !tor) {
        reject("aux member " + m.name + " needs a ToR and no target or switch app");
      }
      continue;
    }
    if (kind == ScenarioTargetKind::kNone && (m.host.present || !tor)) {
      reject("member " + m.name + " needs an ingress device (or aux)");
    }
    if ((kind == ScenarioTargetKind::kConventionalNic ||
         kind == ScenarioTargetKind::kSmartNic) &&
        !m.host.present) {
      reject("member " + m.name + " NIC needs a host (only an FPGA NIC runs hostless)");
    }
    if (!m.switch_app.empty() && !(tor && spec_.tor.asic)) {
      reject("member " + m.name + " switch app needs an ASIC ToR");
    }
  }
}

AppFactoryEnv ScenarioTestbed::ResolveEnv(const AppFactoryEnv& env) const {
  AppFactoryEnv resolved = env;
  if (resolved.zone == nullptr) {
    resolved.zone = spec_.zone;
  }
  if (resolved.paxos_group == nullptr && spec_.paxos_group.has_value()) {
    resolved.paxos_group = &*spec_.paxos_group;
  }
  return resolved;
}

std::string ScenarioTestbed::PcieLinkName(const ScenarioMemberSpec& member_spec) const {
  return spec_.tor.present ? member_spec.link_name + "-pcie" : "pcie";
}

void ScenarioTestbed::BuildTor() {
  if (spec_.tor.asic) {
    tor_asic_ = builder_.AddSwitchAsic(SwitchAsicConfig{.name = spec_.tor.name},
                                       spec_.tor.metered);
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
    built.server = builder_.AddAuxServer(tor_, member_spec.host.config.node,
                                         member_spec.host.config.name,
                                         member_spec.aux_cores, member_spec.link_name);
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

  // Ingress device wiring: a ToR port (behind a ToR; a chain's client plugs
  // in at AddClient instead), then the PCIe hop to the host.
  const auto wire = [&](auto* device) {
    if (tor_ != nullptr) {
      built.port = builder_.ConnectToSwitchPort(tor_, device, member_spec.switch_routes,
                                                member_spec.switch_link,
                                                member_spec.link_name);
    }
    if (built.server != nullptr) {
      builder_.ConnectPcie(device, built.server, member_spec.target.pcie,
                           PcieLinkName(member_spec));
    }
  };
  switch (member_spec.target.kind) {
    case ScenarioTargetKind::kNone:
      break;
    case ScenarioTargetKind::kConventionalNic: {
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
      wire(built.nic);
      break;
    }
    case ScenarioTargetKind::kFpgaNic:
    case ScenarioTargetKind::kSmartNic: {
      const ScenarioTargetSpec& target = member_spec.target;
      if (target.kind == ScenarioTargetKind::kFpgaNic) {
        FpgaNicConfig config;
        if (!target.name.empty()) {
          config.name = target.name;
        }
        config.host_node = member_spec.host.config.node;
        config.device_node = target.device_node;
        config.standalone = target.standalone;
        built.fpga = builder_.AddFpgaNic(config, target.metered);
      } else {
        SmartNicDeviceConfig config;
        if (!target.name.empty()) {
          config.name = target.name;
        }
        config.host_node = member_spec.host.config.node;
        config.device_node = target.device_node;
        built.smartnic = builder_.AddSmartNic(SmartNicPresetByName(target.smartnic_preset),
                                              config, target.metered);
      }
      OffloadNic* device = built.offload_nic();
      if (!target.app.empty()) {
        built.offload_app =
            AppRegistry::Global().Create(target.app, device->placement(), env);
        device->InstallApp(built.offload_app.get());
        device->SetAppActive(target.initially_active);
      }
      wire(device);
      break;
    }
  }

  if (!member_spec.switch_app.empty()) {
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
  const auto register_link = [this](const std::string& name) {
    if (name.empty()) {
      return;
    }
    if (Link* link = builder_.topology().FindLink(name)) {
      faults_.RegisterLink(name, link);
    }
  };
  if (tor_ != nullptr) {
    faults_.RegisterNode(tor_->SinkName(), tor_);
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    ScenarioMember& m = members_[i];
    const ScenarioMemberSpec& member_spec = spec_.members[i];
    if (m.server != nullptr) {
      faults_.RegisterNode(m.server->SinkName(), m.server);
    }
    // Both device names mean engine death: TargetName ("netfpga/app") is
    // what the orchestrator logs, SinkName ("netfpga") is what specs say.
    if (OffloadNic* device = m.offload_nic()) {
      faults_.RegisterTarget(device->TargetName(), device);
      faults_.RegisterTarget(device->SinkName(), device);
    }
    if (m.nic != nullptr) {
      faults_.RegisterNode(m.nic->SinkName(), m.nic);
    }
    if (m.switch_target != nullptr) {
      faults_.RegisterTarget(m.switch_target->TargetName(), m.switch_target.get());
    }
    register_link(member_spec.link_name);
    if (!member_spec.aux) {  // An aux host hangs off the ToR with no PCIe hop.
      register_link(PcieLinkName(member_spec));
    }
  }
  faults_.Arm(spec_.faults);
}

ScenarioMember& ScenarioTestbed::member(const std::string& name) {
  for (ScenarioMember& m : members_) {
    if (m.name == name) {
      return m;
    }
  }
  throw std::invalid_argument("ScenarioTestbed: no member named " + name);
}

NodeId ScenarioTestbed::ServiceNode() const {
  const ScenarioMemberSpec& chain = spec_.members.at(0);
  return chain.host.present ? chain.host.config.node : chain.target.device_node;
}

LoadClient& ScenarioTestbed::AddClient(LoadClientConfig config,
                                       std::unique_ptr<ArrivalProcess> arrival,
                                       RequestFactory factory) {
  if (tor_ != nullptr) {
    throw std::logic_error("ScenarioTestbed: AddClient wires a chain; use AddTorClient");
  }
  if (client_ != nullptr) {
    throw std::logic_error("ScenarioTestbed: client already attached");
  }
  if (spec_.flow.enabled && spec_.flow.dcqcn && !config.dcqcn.enabled) {
    config.dcqcn = spec_.flow.dcqcn_config;
    config.dcqcn.enabled = true;
  }
  client_ = builder_.AddLoadClient(std::move(config), std::move(arrival),
                                   std::move(factory));
  const ScenarioMember& chain = members_.front();
  PauseRelayNic* ingress = chain.nic;
  if (OffloadNic* device = chain.offload_nic()) {
    ingress = device;
  }
  Link* link = builder_.ConnectClient(client_, ingress, spec_.client_link);
  faults_.RegisterLink(link->name(), link);
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
  RequestFactory factory =
      MakeScenarioRequestFactory(spec_.workload, ServiceNode(), spec_.zone);
  if (factory == nullptr) {
    return;
  }
  AddClient(spec_.workload.client,
            std::make_unique<ConstantArrival>(spec_.workload.rate_per_second),
            std::move(factory));
  client_->Start();
}

}  // namespace incod
