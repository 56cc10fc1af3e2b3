// Paxos experiment testbed (Fig 3b sweeps, §6 spot checks, Fig 7 migration).
//
// Topology: a client, three acceptor hosts, a learner host, and a leader
// deployment, all hanging off one L2 switch. The whole group is a
// switch-centric ScenarioSpec (MakePaxosGroupSpec): every role is a member
// built purely from AppRegistry names ("paxos-leader", "paxos-acceptor",
// "paxos-learner"), and the system under test (leader or one acceptor) is
// deployed per the requested variant — libpaxos on the kernel stack, the
// DPDK port, P4xos on a NetFPGA in a server, or P4xos on a standalone board
// — with only the SUT's components metered, matching §4.1 ("the isolated
// ... application under test, traffic source excluded"). This class is a
// veneer over ScenarioTestbed keeping concrete-typed accessors for the
// benches and tests.
//
// The `dual_leader` option builds the Fig 7 testbed: the software leader on
// the host *and* the P4xos leader on that host's NetFPGA NIC, shiftable via
// PaxosLeaderMigrator.
#ifndef INCOD_SRC_SCENARIOS_PAXOS_TESTBED_H_
#define INCOD_SRC_SCENARIOS_PAXOS_TESTBED_H_

#include <memory>
#include <vector>

#include "src/paxos/p4xos.h"
#include "src/paxos/paxos_client.h"
#include "src/paxos/software_roles.h"
#include "src/scenarios/scenario_spec.h"

namespace incod {

enum class PaxosDeployment { kLibpaxos, kDpdk, kP4xosFpga, kP4xosStandalone };
enum class PaxosSut { kLeader, kAcceptor };

const char* PaxosDeploymentName(PaxosDeployment deployment);

// Testbed addresses.
constexpr NodeId kPaxosClientNode = 100;
constexpr NodeId kPaxosLeaderService = 200;
constexpr NodeId kPaxosLeaderHostNode = 1;
constexpr NodeId kPaxosAcceptorBaseNode = 10;  // 10, 11, 12, ...
constexpr NodeId kPaxosLearnerNode = 30;
constexpr NodeId kPaxosLeaderDeviceNode = 50;
constexpr NodeId kPaxosAcceptorDeviceNode = 51;

struct PaxosTestbedOptions {
  PaxosDeployment deployment = PaxosDeployment::kLibpaxos;
  PaxosSut sut = PaxosSut::kLeader;
  int num_acceptors = 3;
  bool dual_leader = false;  // Fig 7: SW + HW leader on one host/NIC pair.
  PaxosClientConfig client;
  SimDuration meter_period = Milliseconds(1);
};

// A Paxos group around `leader_service` and the aux members hosting its
// roles: acceptor i ("acceptor-<i>", node acceptor_base + i, 4 cores,
// 300 ns/message on 2 threads) and the learner ("learner", 8 cores,
// 100 ns/message on 8 threads), fast enough never to bottleneck. Callers add
// the leader, name the member links and may swap an acceptor for a SUT.
struct PaxosGroupMembers {
  PaxosGroupConfig group;
  std::vector<ScenarioMemberSpec> acceptors;
  ScenarioMemberSpec learner;
};
PaxosGroupMembers MakePaxosGroupMembers(int num_acceptors, NodeId acceptor_base,
                                        NodeId learner_node, NodeId leader_service);

// The declarative spec the testbed wires: one member per role deployment
// (leader, N acceptors, learner) behind an L2 ToR, apps by registry name.
// Exposed so differential tests and custom scenarios can start from the
// same literal.
ScenarioSpec MakePaxosGroupSpec(const PaxosTestbedOptions& options);

class PaxosTestbed {
 public:
  PaxosTestbed(Simulation& sim, PaxosTestbedOptions options);

  PaxosClient& client() { return *client_; }
  WallPowerMeter& meter() { return testbed_->meter(); }
  L2Switch& net_switch() { return *testbed_->tor(); }
  Simulation& sim() { return sim_; }
  TestbedBuilder& builder() { return testbed_->builder(); }
  ScenarioTestbed& scenario() { return *testbed_; }

  // SUT components (null when absent in the chosen variant).
  Server* sut_server() { return sut_server_; }
  FpgaNic* sut_fpga() { return sut_fpga_; }

  // Roles.
  SoftwareLeader* software_leader() { return software_leader_; }
  P4xosFpgaApp* fpga_leader() { return fpga_leader_; }
  SoftwareLearner* learner() { return learner_; }
  SoftwareAcceptor* software_acceptor(int i) { return software_acceptors_[i]; }
  P4xosFpgaApp* fpga_acceptor() { return fpga_acceptor_; }

  // Fig 7 support: the switch port serving the leader service.
  int leader_port() const { return leader_port_; }

  const PaxosGroupConfig& group() const { return *testbed_->spec().paxos_group; }

  // Total messages the SUT handled (for ops/watt style reporting).
  uint64_t SutMessagesHandled() const;

 private:
  Simulation& sim_;
  PaxosTestbedOptions options_;
  std::unique_ptr<ScenarioTestbed> testbed_;
  std::unique_ptr<PaxosClient> client_;

  SoftwareLeader* software_leader_ = nullptr;
  SoftwareLearner* learner_ = nullptr;
  std::vector<SoftwareAcceptor*> software_acceptors_;
  P4xosFpgaApp* fpga_leader_ = nullptr;
  P4xosFpgaApp* fpga_acceptor_ = nullptr;
  FpgaNic* sut_fpga_ = nullptr;
  FpgaNic* aux_fpga_ = nullptr;  // Unmetered fast leader for acceptor SUTs.
  ConventionalNic* sut_nic_ = nullptr;
  Server* sut_server_ = nullptr;
  int leader_port_ = -1;
};

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_PAXOS_TESTBED_H_
