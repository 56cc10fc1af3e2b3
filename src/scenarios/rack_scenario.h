// Mixed-workload rack scenario: KVS + DNS + Paxos under one orchestrator.
//
// The rack-scale composition the OffloadTarget refactor unlocks: three
// applications on three servers behind one programmable ToR, with
// heterogeneous offload destinations managed against a shared power budget:
//
//   kvs client --+                                  +-- NetFPGA(LaKe) -- kvs host
//   dns client --+-- ToR (Tofino, switch-dns prog) -+-- ConvNIC       -- dns host
//   paxos client-+                                  +-- NetFPGA(P4xos)-- leader host
//                                                   +-- acceptors / learner
//
// KVS offloads to its FPGA NIC, DNS to a program in the ToR pipeline
// (marginal watts ~0, §9.4), and the Paxos leader to its P4xos NIC via the
// switch-rule rewrite of §9.2 — all driven by the same RackOrchestrator
// through the generic StateTransferMigrator core, with a per-app warm/cold
// policy. The whole topology is a switch-centric ScenarioSpec
// (MakeMixedRackSpec): every app is a member built purely from AppRegistry
// names; this class is a veneer keeping typed accessors for benches/tests.
#ifndef INCOD_SRC_SCENARIOS_RACK_SCENARIO_H_
#define INCOD_SRC_SCENARIOS_RACK_SCENARIO_H_

#include <memory>
#include <vector>

#include "src/device/switch_offload.h"
#include "src/dns/nsd_server.h"
#include "src/dns/switch_dns.h"
#include "src/dns/zone.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/ondemand/rack.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/paxos_client.h"
#include "src/paxos/software_roles.h"
#include "src/scenarios/scenario_spec.h"

namespace incod {

// Rack-local addresses.
constexpr NodeId kRackKvsServerNode = 1;
constexpr NodeId kRackDnsServerNode = 2;
constexpr NodeId kRackPaxosHostNode = 3;
constexpr NodeId kRackKvsDeviceNode = 50;
constexpr NodeId kRackPaxosDeviceNode = 51;
constexpr NodeId kRackKvsClientNode = 100;
constexpr NodeId kRackDnsClientNode = 101;
constexpr NodeId kRackPaxosClientNode = 102;
constexpr NodeId kRackPaxosLeaderService = 200;
constexpr NodeId kRackAcceptorBaseNode = 10;
constexpr NodeId kRackLearnerNode = 30;

// Per-app warm/cold policy for orchestrator-driven shifts (RackAppSpec's
// warm_migration): warm apps carry their typed AppState on every shift.
struct MixedRackWarmPolicy {
  bool kvs = false;
  bool dns = false;
  bool paxos = false;
};

struct MixedRackOptions {
  // Shared offload power budget at the PDU (<= 0: unlimited).
  double power_budget_watts = 0;
  bool enable_paxos = true;
  int num_acceptors = 3;
  MixedRackWarmPolicy warm;             // Default: the paper's cold shifts.
  RackOrchestratorConfig orchestrator;  // budget field is overridden.
  size_t zone_size = 10000;
  PaxosClientConfig paxos_client;
  SimDuration meter_period = Milliseconds(1);
  // Second in-network KVS placement: a NetCache-style program in the ToR
  // pipeline, so FPGA death leaves recovery a surviving in-network landing
  // spot (and the orchestrator a cheaper fallback under power caps).
  bool kvs_switch_placement = false;
  // Per-app checkpoint cadences (< 0: inherit orchestrator.checkpoint_period;
  // 0: never checkpoint this app).
  SimDuration kvs_checkpoint_period = -1;
  SimDuration paxos_checkpoint_period = -1;
  // On crash recovery, restore the Paxos leader's checkpoint into the
  // software leader (its ballot/sequence live wherever the leader last ran).
  bool paxos_restore_to_home = false;
  // Declarative fault plan, armed by the testbed at build time.
  FaultPlanSpec faults;
  // Rack-wide congestion control (PFC pause propagation + DCQCN clients);
  // forwarded into the spec's flow section. Off by default so existing
  // drop-tail scenarios keep their event streams.
  ScenarioFlowSpec flow;
  // Mechanistic host-NIC datapath (RSS rings + interrupt moderation on the
  // conventional-NIC members, RSS worker dispatch on every host); forwarded
  // into the spec's hostnic section. Off by default, same contract as flow.
  ScenarioHostNicSpec hostnic;
};

// The declarative spec the scenario wires: one member per application (plus
// acceptor/learner aux members), apps by registry name. `zone` must outlive
// the built testbed.
ScenarioSpec MakeMixedRackSpec(const MixedRackOptions& options, const Zone* zone);

// Shard assignment for the sharded build: the whole rack (ToR, members,
// orchestrator, migrators, meter) stays in one shard; each load client gets
// its own, so the client--ToR links are the only cross-shard boundaries.
// Their propagation delay becomes the engine lookahead, so it is raised
// from the 500ns ToR default to something that buys useful rounds.
struct MixedRackShardPlan {
  int rack = 0;
  int kvs_client = 1;
  int dns_client = 2;
  int paxos_client = 3;
  SimDuration client_propagation = Microseconds(2);
};

class MixedRackScenario {
 public:
  MixedRackScenario(Simulation& sim, MixedRackOptions options = {});

  // Sharded build per `plan`. Event-identical to the single-Simulation
  // build only when that build uses the same client-link propagation.
  MixedRackScenario(ShardedSimulation& sharded, const MixedRackShardPlan& plan,
                    MixedRackOptions options = {});

  Simulation& sim() { return sim_; }
  TestbedBuilder& builder() { return testbed_->builder(); }
  WallPowerMeter& meter() { return testbed_->meter(); }
  RackOrchestrator& orchestrator() { return *orchestrator_; }
  ScenarioTestbed& scenario() { return *testbed_; }

  // Targets (two OffloadTarget implementations + optionally more).
  SwitchAsic& tor() { return *testbed_->tor_asic(); }
  FpgaNic& kvs_fpga() { return *kvs_fpga_; }
  SwitchOffloadTarget& dns_target() { return *dns_target_; }
  FpgaNic* paxos_fpga() { return paxos_fpga_; }
  // Second KVS placement (null unless options.kvs_switch_placement).
  SwitchOffloadTarget* kvs_switch_target() { return kvs_switch_target_; }

  // Fault injection: every server/device/link of the rack is registered by
  // name; options.faults was armed at build time.
  FaultInjector& faults() { return testbed_->faults(); }

  Server& kvs_server() { return *kvs_server_; }
  Server& dns_server() { return *dns_server_; }
  Server* paxos_host() { return paxos_host_; }

  StateTransferMigrator& kvs_migrator() { return *kvs_migrator_; }
  StateTransferMigrator& dns_migrator() { return *dns_migrator_; }
  PaxosLeaderMigrator* paxos_migrator() { return paxos_migrator_.get(); }
  StateTransferMigrator* kvs_switch_migrator() { return kvs_switch_migrator_.get(); }

  MemcachedServer& memcached() { return *memcached_; }
  LakeCache& lake() { return *lake_; }
  KvSwitchCache* netcache() { return netcache_; }
  SoftwareLeader* software_leader() { return software_leader_; }
  P4xosFpgaApp* fpga_leader() { return fpga_leader_; }
  DnsSwitchProgram& dns_program() { return *dns_program_; }
  Zone& zone() { return zone_; }

  // Orchestrator app indices (for current_option / shift introspection).
  // paxos_app_index() throws when the scenario was built without Paxos.
  size_t kvs_app_index() const { return kvs_app_; }
  size_t dns_app_index() const { return dns_app_; }
  size_t paxos_app_index() const;

  // Load clients (owned; callers Start() them).
  LoadClient& AddKvsClient(LoadClientConfig config,
                           std::unique_ptr<ArrivalProcess> arrival,
                           RequestFactory factory);
  LoadClient& AddDnsClient(LoadClientConfig config,
                           std::unique_ptr<ArrivalProcess> arrival,
                           RequestFactory factory);
  PaxosClient* paxos_client() { return paxos_client_.get(); }

  // Fills the KVS store and LaKe caches with keys [0, count).
  void PrefillKvs(uint64_t count, uint32_t value_bytes);

 private:
  void ResolveMembers();
  void BuildMigrators();
  void RegisterApps();
  int ClientShard(int shard) const { return sharded_ != nullptr ? shard : -1; }

  Simulation& sim_;
  MixedRackOptions options_;
  ShardedSimulation* sharded_ = nullptr;
  MixedRackShardPlan plan_;
  Zone zone_;
  std::unique_ptr<ScenarioTestbed> testbed_;

  // Non-owning views into the spec-built members.
  Server* kvs_server_ = nullptr;
  Server* dns_server_ = nullptr;
  Server* paxos_host_ = nullptr;
  FpgaNic* kvs_fpga_ = nullptr;
  FpgaNic* paxos_fpga_ = nullptr;
  ConventionalNic* dns_nic_ = nullptr;
  int paxos_port_ = -1;
  MemcachedServer* memcached_ = nullptr;
  LakeCache* lake_ = nullptr;
  NsdServer* nsd_ = nullptr;
  DnsSwitchProgram* dns_program_ = nullptr;
  SwitchOffloadTarget* dns_target_ = nullptr;
  KvSwitchCache* netcache_ = nullptr;
  SwitchOffloadTarget* kvs_switch_target_ = nullptr;
  SoftwareLeader* software_leader_ = nullptr;
  P4xosFpgaApp* fpga_leader_ = nullptr;

  std::unique_ptr<StateTransferMigrator> kvs_migrator_;
  std::unique_ptr<StateTransferMigrator> dns_migrator_;
  std::unique_ptr<StateTransferMigrator> kvs_switch_migrator_;
  std::unique_ptr<PaxosLeaderMigrator> paxos_migrator_;
  std::unique_ptr<RackOrchestrator> orchestrator_;
  std::unique_ptr<PaxosClient> paxos_client_;

  static constexpr size_t kNoApp = static_cast<size_t>(-1);
  size_t kvs_app_ = kNoApp;
  size_t dns_app_ = kNoApp;
  size_t paxos_app_ = kNoApp;
};

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_RACK_SCENARIO_H_
