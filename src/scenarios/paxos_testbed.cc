#include "src/scenarios/paxos_testbed.h"

#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"

namespace incod {

namespace {

// Member envs leave paxos_group null: ScenarioTestbed resolves it against
// the spec-owned group, keeping the spec a self-contained literal.
AppFactoryEnv RoleEnv(uint32_t role_id,
                      PaxosSoftwareConfig software = LibpaxosConfig(),
                      NodeId service = 0) {
  AppFactoryEnv env;
  env.paxos_role_id = role_id;
  env.paxos_software = software;
  env.service = service;
  return env;
}

ScenarioMemberSpec MakeLeaderMember(const PaxosTestbedOptions& options) {
  const bool leader_is_sut = options.sut == PaxosSut::kLeader;
  const PaxosDeployment deployment =
      leader_is_sut ? options.deployment : PaxosDeployment::kP4xosFpga;

  ScenarioMemberSpec member;
  member.name = "leader";
  member.link_name = "leader-10ge";
  member.target.device_node = kPaxosLeaderDeviceNode;

  if (options.dual_leader) {
    // Fig 7: software leader on the host, P4xos leader on the host's NIC.
    member.host.config.name = "leader-host";
    member.host.config.node = kPaxosLeaderHostNode;
    member.host.config.num_cores = 4;
    member.host.config.power_curve = I7LibpaxosCurve();
    member.host.apps = {"paxos-leader"};
    member.target.kind = ScenarioTargetKind::kFpgaNic;
    member.target.name = "netfpga-p4xos-leader";
    member.target.app = "paxos-leader";
    member.target.initially_active = false;  // Software leader serves first.
    member.switch_routes = {kPaxosLeaderService, kPaxosLeaderHostNode,
                            kPaxosLeaderDeviceNode};
    member.env = RoleEnv(/*role_id=*/1, LibpaxosConfig(), kPaxosLeaderService);
    return member;
  }

  switch (deployment) {
    case PaxosDeployment::kLibpaxos:
    case PaxosDeployment::kDpdk: {
      member.host.config.name = "leader-host";
      member.host.config.node = kPaxosLeaderHostNode;
      member.host.config.num_cores = 4;
      if (deployment == PaxosDeployment::kDpdk) {
        member.host.config.power_curve = I7DpdkCurve();
        member.host.config.stack = NetStackType::kDpdk;
        member.host.config.stack_tx_cost = Nanoseconds(50);
        member.host.config.dpdk_poll_cores = 1;
      } else {
        member.host.config.power_curve = I7LibpaxosCurve();
      }
      member.host.metered = leader_is_sut;
      member.host.apps = {"paxos-leader"};
      member.target.kind = ScenarioTargetKind::kConventionalNic;
      member.target.name = "";  // Preset (Mellanox) name.
      member.target.metered = leader_is_sut;
      member.switch_routes = {kPaxosLeaderService, kPaxosLeaderHostNode};
      member.env = RoleEnv(/*role_id=*/1,
                           deployment == PaxosDeployment::kDpdk ? DpdkPaxosConfig()
                                                                : LibpaxosConfig());
      return member;
    }
    case PaxosDeployment::kP4xosFpga:
    case PaxosDeployment::kP4xosStandalone: {
      const bool standalone = deployment == PaxosDeployment::kP4xosStandalone;
      // The board sits in an otherwise idle host whose power the paper
      // includes in the P4xos-in-server numbers (§4.3). Aux (fast-leader)
      // deployments skip the host entirely.
      member.host.present = !standalone && leader_is_sut;
      member.host.config.name = "p4xos-host";
      member.host.config.node = kPaxosLeaderHostNode;
      member.host.config.num_cores = 4;
      member.host.config.power_curve = I7LibpaxosCurve();
      member.target.kind = ScenarioTargetKind::kFpgaNic;
      member.target.name = "netfpga-p4xos-leader";
      member.target.standalone = standalone;
      member.target.app = "paxos-leader";
      member.target.metered = leader_is_sut;
      member.switch_routes = {kPaxosLeaderService, kPaxosLeaderDeviceNode};
      if (member.host.present) {
        member.switch_routes.push_back(kPaxosLeaderHostNode);
      }
      member.env = RoleEnv(/*role_id=*/1, LibpaxosConfig(), kPaxosLeaderService);
      return member;
    }
  }
  throw std::logic_error("PaxosTestbed: unknown deployment");
}

// The acceptor under test: acceptor 0, deployed per options.deployment.
ScenarioMemberSpec MakeSutAcceptorMember(const PaxosTestbedOptions& options) {
  const NodeId node = kPaxosAcceptorBaseNode;
  ScenarioMemberSpec member;
  member.name = "acceptor-0";
  member.link_name = "acceptor-10ge";

  switch (options.deployment) {
    case PaxosDeployment::kLibpaxos:
    case PaxosDeployment::kDpdk: {
      member.host.config.name = "acceptor-host";
      member.host.config.node = node;
      member.host.config.num_cores = 4;
      if (options.deployment == PaxosDeployment::kDpdk) {
        member.host.config.power_curve = I7DpdkCurve();
        member.host.config.stack = NetStackType::kDpdk;
        member.host.config.stack_tx_cost = Nanoseconds(50);
      } else {
        member.host.config.power_curve = I7LibpaxosCurve();
      }
      member.host.apps = {"paxos-acceptor"};
      member.target.kind = ScenarioTargetKind::kConventionalNic;
      member.target.name = "";  // Preset (Mellanox) name.
      member.switch_routes = {node};
      member.env = RoleEnv(/*role_id=*/0, options.deployment == PaxosDeployment::kDpdk
                                              ? DpdkPaxosConfig()
                                              : LibpaxosConfig());
      return member;
    }
    case PaxosDeployment::kP4xosFpga:
    case PaxosDeployment::kP4xosStandalone: {
      const bool standalone = options.deployment == PaxosDeployment::kP4xosStandalone;
      member.host.present = !standalone;
      member.host.config.name = "p4xos-acceptor-host";
      member.host.config.node = 40;  // Distinct host address.
      member.host.config.num_cores = 4;
      member.host.config.power_curve = I7LibpaxosCurve();
      member.target.kind = ScenarioTargetKind::kFpgaNic;
      member.target.name = "netfpga-p4xos-acceptor";
      member.target.device_node = kPaxosAcceptorDeviceNode;
      member.target.standalone = standalone;
      member.target.app = "paxos-acceptor";
      member.switch_routes = {node, kPaxosAcceptorDeviceNode};
      if (member.host.present) {
        member.switch_routes.push_back(40);
      }
      member.env = RoleEnv(/*role_id=*/0, LibpaxosConfig(), node);
      return member;
    }
  }
  throw std::logic_error("PaxosTestbed: unknown deployment");
}

// Aux host for one Paxos role: never bottlenecks, never metered.
ScenarioMemberSpec MakeAuxRoleMember(std::string name, std::string host_name, NodeId node,
                                     int cores, std::string app, AppFactoryEnv env) {
  ScenarioMemberSpec member;
  member.name = std::move(name);
  member.aux = true;
  member.aux_cores = cores;
  member.link_name = member.name + "-10ge";
  member.target.kind = ScenarioTargetKind::kNone;
  member.host.config.name = std::move(host_name);
  member.host.config.node = node;
  member.host.apps = {std::move(app)};
  member.env = std::move(env);
  return member;
}

}  // namespace

PaxosGroupMembers MakePaxosGroupMembers(int num_acceptors, NodeId acceptor_base,
                                        NodeId learner_node, NodeId leader_service) {
  PaxosGroupMembers paxos;
  for (int i = 0; i < num_acceptors; ++i) {
    const NodeId node = acceptor_base + static_cast<NodeId>(i);
    paxos.group.acceptors.push_back(node);
    paxos.acceptors.push_back(MakeAuxRoleMember(
        "acceptor-" + std::to_string(i), "aux-acceptor", node, 4, "paxos-acceptor",
        RoleEnv(static_cast<uint32_t>(i), PaxosSoftwareConfig{Nanoseconds(300), 2})));
  }
  paxos.group.learners.push_back(learner_node);
  paxos.group.leader_service = leader_service;
  paxos.learner = MakeAuxRoleMember("learner", "learner-host", learner_node, 8,
                                    "paxos-learner",
                                    RoleEnv(0, PaxosSoftwareConfig{Nanoseconds(100), 8}));
  return paxos;
}

const char* PaxosDeploymentName(PaxosDeployment deployment) {
  switch (deployment) {
    case PaxosDeployment::kLibpaxos:
      return "libpaxos";
    case PaxosDeployment::kDpdk:
      return "dpdk";
    case PaxosDeployment::kP4xosFpga:
      return "p4xos-fpga";
    case PaxosDeployment::kP4xosStandalone:
      return "p4xos-standalone";
  }
  return "?";
}

ScenarioSpec MakePaxosGroupSpec(const PaxosTestbedOptions& options) {
  if (options.num_acceptors < 1) {
    throw std::invalid_argument("PaxosTestbed: need >= 1 acceptor");
  }
  if (options.dual_leader && options.sut != PaxosSut::kLeader) {
    throw std::invalid_argument("PaxosTestbed: dual_leader requires leader SUT");
  }
  ScenarioSpec spec;
  spec.name = "paxos-group";
  spec.meter_period = options.meter_period;
  spec.tor.present = true;
  spec.tor.name = "tor-switch";

  PaxosGroupMembers paxos = MakePaxosGroupMembers(options.num_acceptors,
                                                  kPaxosAcceptorBaseNode,
                                                  kPaxosLearnerNode, kPaxosLeaderService);
  spec.paxos_group = std::move(paxos.group);
  if (options.sut == PaxosSut::kAcceptor) {
    paxos.acceptors.front() = MakeSutAcceptorMember(options);
  }

  spec.members.push_back(MakeLeaderMember(options));
  for (ScenarioMemberSpec& acceptor : paxos.acceptors) {
    spec.members.push_back(std::move(acceptor));
  }
  spec.members.push_back(std::move(paxos.learner));
  return spec;
}

PaxosTestbed::PaxosTestbed(Simulation& sim, PaxosTestbedOptions options)
    : sim_(sim), options_(std::move(options)) {
  testbed_ = std::make_unique<ScenarioTestbed>(sim_, MakePaxosGroupSpec(options_));

  const bool leader_is_sut = options_.sut == PaxosSut::kLeader;
  ScenarioMember& leader = testbed_->member("leader");
  software_leader_ = leader.host_apps.empty()
                         ? nullptr
                         : dynamic_cast<SoftwareLeader*>(leader.host_apps.front().get());
  fpga_leader_ = dynamic_cast<P4xosFpgaApp*>(leader.offload_app.get());
  leader_port_ = leader.port;
  if (leader_is_sut) {
    sut_server_ = leader.server;
    sut_fpga_ = leader.fpga;
    sut_nic_ = leader.nic;
  } else {
    aux_fpga_ = leader.fpga;
  }

  for (int i = 0; i < options_.num_acceptors; ++i) {
    ScenarioMember& acceptor = testbed_->member("acceptor-" + std::to_string(i));
    if (!acceptor.host_apps.empty()) {
      if (auto* software =
              dynamic_cast<SoftwareAcceptor*>(acceptor.host_apps.front().get())) {
        software_acceptors_.push_back(software);
      }
    }
    if (acceptor.offload_app != nullptr) {
      fpga_acceptor_ = dynamic_cast<P4xosFpgaApp*>(acceptor.offload_app.get());
    }
    if (options_.sut == PaxosSut::kAcceptor && i == 0) {
      sut_server_ = acceptor.server;
      if (acceptor.fpga != nullptr) {
        sut_fpga_ = acceptor.fpga;
      }
      if (acceptor.nic != nullptr) {
        sut_nic_ = acceptor.nic;
      }
    }
  }

  ScenarioMember& learner_member = testbed_->member("learner");
  learner_ = dynamic_cast<SoftwareLearner*>(learner_member.host_apps.front().get());
  learner_->StartGapTimer();

  // Client (bespoke: a closed-loop Paxos proposer, not a LoadClient).
  options_.client.node = kPaxosClientNode;
  options_.client.leader_service = kPaxosLeaderService;
  client_ = std::make_unique<PaxosClient>(sim_, options_.client);
  Link* client_link = testbed_->builder().topology().ConnectToSwitch(
      testbed_->tor(), client_.get(), kPaxosClientNode, TestbedBuilder::TenGigLink(),
      "client-10ge");
  client_->SetUplink(client_link);
}

uint64_t PaxosTestbed::SutMessagesHandled() const {
  if (options_.sut == PaxosSut::kLeader) {
    if (fpga_leader_ != nullptr &&
        (options_.deployment == PaxosDeployment::kP4xosFpga ||
         options_.deployment == PaxosDeployment::kP4xosStandalone || options_.dual_leader)) {
      uint64_t total = fpga_leader_->messages_handled();
      if (software_leader_ != nullptr) {
        total += software_leader_->messages_handled();
      }
      return total;
    }
    return software_leader_ != nullptr ? software_leader_->messages_handled() : 0;
  }
  if (fpga_acceptor_ != nullptr) {
    return fpga_acceptor_->messages_handled();
  }
  return software_acceptors_.empty() ? 0 : software_acceptors_.front()->messages_handled();
}

}  // namespace incod
