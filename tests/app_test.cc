// Tests for the unified App contract: typed state snapshot/restore round
// trips (bit-identical), the AppRegistry placement matrix, cross-placement
// state transfer, and the generic StateTransferMigrator paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <typeinfo>
#include <vector>

#include "src/app/app.h"
#include "src/app/app_registry.h"
#include "src/app/app_state.h"
#include "src/app/switch_app.h"
#include "src/dns/emu_dns.h"
#include "src/dns/nsd_server.h"
#include "src/dns/switch_dns.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/ondemand/migrator.h"
#include "src/paxos/p4xos.h"
#include "src/paxos/software_roles.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/simulation.h"
#include "src/workload/dns_workload.h"

namespace incod {
namespace {

// A minimal substrate for exercising HandlePacket without any device: the
// narrow AppContext is all an application may depend on.
class FakeContext : public AppContext {
 public:
  explicit FakeContext(Simulation& sim, PlacementKind placement = PlacementKind::kHost,
                       NodeId self = 0)
      : sim_(sim), placement_(placement), self_(self) {}

  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return placement_; }
  NodeId self_node() const override { return self_; }
  void Reply(Packet&& packet) override { replies.push_back(std::move(packet)); }
  void Punt(Packet&& packet) override { punts.push_back(std::move(packet)); }

  std::vector<Packet> replies;
  std::vector<Packet> punts;

 private:
  Simulation& sim_;
  PlacementKind placement_;
  NodeId self_;
};

void ExpectBitIdentical(const AppState& a, const AppState& b) {
  EXPECT_EQ(SerializeAppState(a), SerializeAppState(b));
}

// ---------------------------------------------------------------- KVS -----

TEST(AppStateTest, MemcachedRoundTripIsBitIdentical) {
  MemcachedServer source;
  for (uint64_t k = 1; k <= 5; ++k) {
    source.store().Set(k, static_cast<uint32_t>(10 * k));
  }
  uint32_t bytes = 0;
  source.store().Get(2, &bytes);  // Touch: LRU order must survive the trip.
  const AppState snap = source.SnapshotState();

  MemcachedServer restored;
  restored.RestoreState(snap);
  ExpectBitIdentical(snap, restored.SnapshotState());
  EXPECT_EQ(restored.store().size(), 5u);
  EXPECT_TRUE(restored.store().Contains(2));
}

TEST(AppStateTest, LakeRoundTripKeepsBothLevels) {
  LakeConfig config;
  config.l1_entries = 8;
  config.l2_entries = 64;
  LakeCache source(config);
  source.WarmFill(0, 32, 100);  // L1 holds 8 hottest, L2 all 32.
  const AppState snap = source.SnapshotState();

  LakeCache restored(config);
  restored.RestoreState(snap);
  ExpectBitIdentical(snap, restored.SnapshotState());
  EXPECT_EQ(restored.l1().size(), source.l1().size());
  EXPECT_EQ(restored.l2()->size(), source.l2()->size());
}

TEST(AppStateTest, NetcacheRoundTrip) {
  KvSwitchCacheConfig config;
  config.kvs_service = 1;
  KvSwitchCache source(config);
  source.cache().Set(10, 64);
  source.cache().Set(11, 32);
  const AppState snap = source.SnapshotState();

  KvSwitchCache restored(config);
  restored.RestoreState(snap);
  ExpectBitIdentical(snap, restored.SnapshotState());
}

TEST(AppStateTest, HostToLakeTransferWarmsTheCache) {
  MemcachedServer host;
  for (uint64_t k = 0; k < 20; ++k) {
    host.store().Set(k, 64);
  }
  LakeConfig config;
  config.l1_entries = 8;
  config.l2_entries = 64;
  LakeCache lake(config);
  EXPECT_EQ(lake.l1().size(), 0u);

  lake.RestoreState(host.SnapshotState());
  // The hottest host entries landed in L1; everything fit L2.
  EXPECT_EQ(lake.l1().size(), 8u);
  EXPECT_EQ(lake.l2()->size(), 20u);
  EXPECT_TRUE(lake.l1().Contains(19));  // Most recent survives L1 eviction.
}

// -------------------------------------------------------------- Paxos -----

TEST(AppStateTest, AcceptorVoteLogRoundTrip) {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;

  SoftwareAcceptor source(group, /*acceptor_id=*/1);
  for (uint32_t instance = 1; instance <= 4; ++instance) {
    PaxosMessage msg;
    msg.type = PaxosMsgType::kPhase2a;
    msg.instance = instance;
    msg.round = 1;
    msg.value = 100 + instance;
    msg.client = 7;
    source.state().HandleMessage(msg);
  }
  const AppState snap = source.SnapshotState();
  const PaxosAppState& px = std::get<PaxosAppState>(snap.data);
  EXPECT_EQ(px.slots.size(), 4u);
  EXPECT_EQ(px.last_voted_instance, 4u);

  SoftwareAcceptor restored(group, /*acceptor_id=*/1);
  restored.RestoreState(snap);
  ExpectBitIdentical(snap, restored.SnapshotState());
  EXPECT_EQ(restored.state().last_voted_instance(), 4u);
  EXPECT_EQ(restored.state().stored_instances(), 4u);

  // Wrapped ring: the snapshot holds only the live window, still sorted by
  // instance, and restores bit-identically.
  constexpr uint32_t kWindow = AcceptorState::kWindow;
  constexpr uint32_t kLast = kWindow + 100;
  for (uint32_t instance = 5; instance <= kLast; ++instance) {
    PaxosMessage msg;
    msg.type = PaxosMsgType::kPhase2a;
    msg.instance = instance;
    msg.round = 1;
    msg.value = 100 + instance;
    msg.client = 7;
    source.state().HandleMessage(msg);
  }
  const AppState wrapped = source.SnapshotState();
  const PaxosAppState& wpx = std::get<PaxosAppState>(wrapped.data);
  ASSERT_EQ(wpx.slots.size(), kWindow);
  EXPECT_EQ(wpx.slots.front().instance, kLast - kWindow + 1);
  EXPECT_EQ(wpx.slots.back().instance, kLast);
  EXPECT_TRUE(std::is_sorted(wpx.slots.begin(), wpx.slots.end(),
                             [](const PaxosAcceptorSlot& a, const PaxosAcceptorSlot& b) {
                               return a.instance < b.instance;
                             }));
  SoftwareAcceptor rewrapped(group, /*acceptor_id=*/1);
  rewrapped.RestoreState(wrapped);
  ExpectBitIdentical(wrapped, rewrapped.SnapshotState());
  EXPECT_EQ(rewrapped.state().last_voted_instance(), kLast);
  EXPECT_EQ(rewrapped.state().stored_instances(), kWindow);
}

TEST(AppStateTest, LeaderBallotAndSequenceRoundTrip) {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;

  SoftwareLeader source(group, /*ballot=*/3);
  PaxosMessage request;
  request.type = PaxosMsgType::kClientRequest;
  request.value = 42;
  request.client = 100;
  source.state().HandleMessage(request);  // Advances the sequence.
  EXPECT_EQ(source.state().next_instance(), 2u);
  const AppState snap = source.SnapshotState();

  SoftwareLeader restored(group, /*ballot=*/1);
  restored.RestoreState(snap);
  ExpectBitIdentical(snap, restored.SnapshotState());
  EXPECT_EQ(restored.state().ballot(), 3u);
  EXPECT_EQ(restored.state().next_instance(), 2u);
}

TEST(AppStateTest, SoftwareToHardwareLeaderTransfer) {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;

  SoftwareLeader software(group, /*ballot=*/1);
  PaxosMessage request;
  request.type = PaxosMsgType::kClientRequest;
  request.value = 7;
  request.client = 100;
  software.state().HandleMessage(request);
  software.state().HandleMessage(request);

  P4xosFpgaApp hardware(P4xosRole::kLeader, group, /*role_id=*/1, 200);
  hardware.RestoreState(software.SnapshotState());
  EXPECT_EQ(hardware.leader()->next_instance(), software.state().next_instance());
  EXPECT_EQ(hardware.leader()->ballot(), software.state().ballot());
}

// ---------------------------------------------------------------- DNS -----

TEST(AppStateTest, DnsZoneWarmthRoundTripAcrossPlacements) {
  Zone zone;
  zone.AddRecord("a.example", 0x01020304, 60);
  zone.AddRecord("b.example", 0x0a0b0c0d, 120);

  NsdServer nsd(&zone);
  const AppState snap = nsd.SnapshotState();

  // Restore into a *different placement* holding an empty zone: the
  // snapshot alone must reproduce the answers.
  Zone empty;
  EmuDns emu(&empty);
  emu.RestoreState(snap);
  ExpectBitIdentical(snap, emu.SnapshotState());

  Simulation sim(1);
  FakeContext ctx(sim, PlacementKind::kFpgaNic, /*self=*/50);
  DnsMessage query;
  query.id = 9;
  query.questions.push_back(DnsQuestion{"b.example", kDnsTypeA, kDnsClassIn});
  Packet pkt;
  pkt.src = 100;
  pkt.dst = 1;
  pkt.proto = AppProto::kDns;
  pkt.payload = query;
  emu.HandlePacket(ctx, std::move(pkt));
  ASSERT_EQ(ctx.replies.size(), 1u);
  const DnsMessage& resp = PayloadAs<DnsMessage>(ctx.replies[0]);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(RdataToIpv4(resp.answers.front().rdata), 0x0a0b0c0du);
  EXPECT_EQ(emu.answered(), 1u);

  // And the switch placement restores the same warmth.
  DnsSwitchConfig switch_config;
  switch_config.dns_service = 1;
  Zone empty2;
  DnsSwitchProgram switch_dns(&empty2, switch_config);
  switch_dns.RestoreState(snap);
  ExpectBitIdentical(snap, switch_dns.SnapshotState());
}

// ----------------------------------------------------------- Registry -----

TEST(AppRegistryTest, AllAppsBuildOnAllFourPlacements) {
  Zone zone;
  zone.FillSynthetic(16);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;

  AppFactoryEnv env;
  env.zone = &zone;
  env.paxos_group = &group;
  env.service = 200;

  const PlacementKind placements[] = {PlacementKind::kHost, PlacementKind::kFpgaNic,
                                      PlacementKind::kSwitchAsic,
                                      PlacementKind::kSmartNic};
  struct Family {
    const char* name;
    AppProto proto;
  };
  const Family families[] = {{"kvs", AppProto::kKv},
                             {"dns", AppProto::kDns},
                             {"paxos-leader", AppProto::kPaxos},
                             {"paxos-acceptor", AppProto::kPaxos}};
  for (const Family& family : families) {
    for (PlacementKind placement : placements) {
      SCOPED_TRACE(std::string(family.name) + " on " + PlacementKindName(placement));
      ASSERT_TRUE(AppRegistry::Global().Supports(family.name, placement));
      auto app = AppRegistry::Global().Create(family.name, placement, env);
      ASSERT_NE(app, nullptr);
      EXPECT_EQ(app->proto(), family.proto);
      EXPECT_TRUE(app->SupportsPlacement(placement));
      if (placement == PlacementKind::kSwitchAsic) {
        // Switch-placement apps are loadable pipeline programs.
        EXPECT_NE(dynamic_cast<SwitchProgram*>(app.get()), nullptr);
      }
      if (placement == PlacementKind::kSmartNic) {
        // The same implementation class serves both offload substrates.
        auto fpga_app = AppRegistry::Global().Create(family.name,
                                                     PlacementKind::kFpgaNic, env);
        const App& on_smartnic = *app;
        const App& on_fpga = *fpga_app;
        EXPECT_EQ(typeid(on_smartnic), typeid(on_fpga))
            << typeid(on_smartnic).name() << " vs " << typeid(on_fpga).name();
        EXPECT_TRUE(app->SupportsPlacement(PlacementKind::kFpgaNic));
        // SmartNIC-placement apps advertise a usable per-arch datapath.
        const SmartNicPlacementProfile profile = app->OffloadProfile().smartnic;
        for (SmartNicArch arch : {SmartNicArch::kFpga, SmartNicArch::kAsic,
                                  SmartNicArch::kAsicPlusFpga, SmartNicArch::kSoc}) {
          EXPECT_GT(profile.MppsFractionFor(arch), 0.0) << SmartNicArchName(arch);
        }
        EXPECT_GE(profile.resource_slots, 1);
      }
      if (placement == PlacementKind::kHost) {
        EXPECT_GE(app->HostProfile().num_threads, 1);
      }
    }
  }
  // The acceptance matrix: every §10-capable family advertises the SmartNIC
  // placement through Placements().
  for (const char* name : {"kvs", "dns", "paxos-leader", "paxos-acceptor"}) {
    const auto all = AppRegistry::Global().Placements(name);
    EXPECT_NE(std::find(all.begin(), all.end(), PlacementKind::kSmartNic), all.end())
        << name;
  }
}

TEST(AppRegistryTest, UnknownNameAndUnsupportedPlacementThrow) {
  AppFactoryEnv env;
  EXPECT_THROW(AppRegistry::Global().Create("no-such-app", PlacementKind::kHost, env),
               std::invalid_argument);
  EXPECT_FALSE(AppRegistry::Global().Supports("paxos-learner", PlacementKind::kFpgaNic));
  EXPECT_THROW(
      AppRegistry::Global().Create("paxos-learner", PlacementKind::kFpgaNic, env),
      std::invalid_argument);
  // Missing resources are loud, not silent.
  EXPECT_THROW(AppRegistry::Global().Create("dns", PlacementKind::kHost, env),
               std::invalid_argument);
}

// ------------------------------------------- Generic state migration ------

RequestFactory UniformGets(NodeId service, uint64_t keyspace) {
  return [service, keyspace](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int>(keyspace) - 1));
    return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
}

struct KvsShiftResult {
  uint64_t client_received = 0;
  uint64_t server_completed = 0;
  uint64_t lake_l1_hits = 0;
  uint64_t lake_misses = 0;
  double p50 = 0;
};

// Runs a Fig-6-style shift scenario with the given migrator factory.
template <typename MakeMigrator>
KvsShiftResult RunKvsShift(MakeMigrator make_migrator) {
  Simulation sim(11);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(1000, 64);
  auto migrator = make_migrator(sim, testbed);
  auto& client = testbed.AddClient(LoadClientConfig{},
                                   std::make_unique<ConstantArrival>(200000.0),
                                   UniformGets(testbed.ServiceNode(), 1000));
  client.Start();
  sim.Schedule(Milliseconds(50), [&] { migrator->ShiftToNetwork(); });
  sim.Schedule(Milliseconds(150), [&] { migrator->ShiftToHost(); });
  sim.RunUntil(Milliseconds(200));
  KvsShiftResult result;
  result.client_received = client.received();
  result.server_completed = testbed.server()->requests_completed();
  result.lake_l1_hits = testbed.lake()->l1_hits();
  result.lake_misses = testbed.lake()->misses_to_host();
  result.p50 = client.latency().P50();
  return result;
}

TEST(StateTransferMigratorTest, MatchesBareClassifierFlipWhenTransferOff) {
  // Differential check: with the transfer off, binding the two placements
  // changes nothing against the bare classifier flip (no apps bound).
  const KvsShiftResult classic = RunKvsShift([](Simulation& sim, KvsTestbed& testbed) {
    return std::make_unique<StateTransferMigrator>(
        sim, *testbed.fpga(), StateTransferMigrator::Options{ParkPolicy::kGatedPark});
  });
  const KvsShiftResult generic = RunKvsShift([](Simulation& sim, KvsTestbed& testbed) {
    StateTransferMigrator::Options options{ParkPolicy::kGatedPark};
    options.transfer_state = false;
    return std::make_unique<StateTransferMigrator>(sim, *testbed.fpga(), options,
                                                   testbed.memcached(), testbed.lake());
  });
  EXPECT_EQ(classic.client_received, generic.client_received);
  EXPECT_EQ(classic.server_completed, generic.server_completed);
  EXPECT_EQ(classic.lake_l1_hits, generic.lake_l1_hits);
  EXPECT_EQ(classic.lake_misses, generic.lake_misses);
  EXPECT_EQ(classic.p50, generic.p50);
}

TEST(StateTransferMigratorTest, TransferWarmsTheIncomingPlacement) {
  // Gated park resets LaKe's memories, so a transfer-less shift starts
  // cold; the generic state transfer starts warm and serves more GETs in
  // hardware.
  const KvsShiftResult cold = RunKvsShift([](Simulation& sim, KvsTestbed& testbed) {
    StateTransferMigrator::Options options{ParkPolicy::kGatedPark};
    return std::make_unique<StateTransferMigrator>(sim, *testbed.fpga(), options,
                                                   testbed.memcached(), testbed.lake());
  });
  const KvsShiftResult warm = RunKvsShift([](Simulation& sim, KvsTestbed& testbed) {
    StateTransferMigrator::Options options{ParkPolicy::kGatedPark};
    options.transfer_state = true;
    return std::make_unique<StateTransferMigrator>(sim, *testbed.fpga(), options,
                                                   testbed.memcached(), testbed.lake());
  });
  EXPECT_GT(warm.lake_l1_hits, cold.lake_l1_hits);
  EXPECT_LT(warm.lake_misses, cold.lake_misses);
}

struct DnsShiftResult {
  uint64_t emu_answered = 0;
  uint64_t emu_nxdomain = 0;
  uint64_t client_received = 0;
};

// client --10GE-- NetFPGA(Emu DNS, zone per `device_zone_empty`) --PCIe--
// host (NSD, full zone), shifted to the device mid-run by the migrator the
// factory builds.
template <typename MakeMigrator>
DnsShiftResult RunDnsShift(bool device_zone_empty, MakeMigrator make_migrator) {
  Simulation sim(5);
  TestbedBuilder builder(sim, Milliseconds(1));
  Zone zone;
  zone.FillSynthetic(256);
  Zone empty;

  ServerConfig server_config;
  server_config.name = "dns-host";
  server_config.node = 1;
  NsdServer nsd(&zone);
  Server* server = builder.AddServer(server_config);
  server->BindApp(&nsd);

  FpgaNicConfig fpga_config;
  fpga_config.host_node = 1;
  fpga_config.device_node = 50;
  EmuDns emu(device_zone_empty ? &empty : &zone);
  FpgaNic* fpga = builder.AddFpgaNic(fpga_config);
  fpga->InstallApp(&emu);
  builder.ConnectPcie(fpga, server);
  builder.StartMeter();

  auto migrator = make_migrator(sim, *fpga, nsd, emu);

  DnsWorkloadConfig workload;
  workload.dns_service = 1;
  workload.zone_size = 256;
  LoadClient* client = builder.AddLoadClient(
      LoadClientConfig{}, std::make_unique<ConstantArrival>(50000.0),
      MakeDnsRequestFactory(workload));
  builder.ConnectClient(client, fpga);
  client->Start();
  sim.Schedule(Milliseconds(20), [&] { migrator->ShiftToNetwork(); });
  sim.RunUntil(Milliseconds(60));
  return DnsShiftResult{emu.answered(), emu.nxdomain(), client->received()};
}

TEST(StateTransferMigratorTest, AbortedReprogramShiftDoesNotWipeHostState) {
  // kReprogram + transfer_state: shifting back while the bitstream is still
  // loading means the offload app never activated — its initial (empty)
  // state must not be transferred over the host's live store.
  Simulation sim(3);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(1000, 64);

  StateTransferMigrator::Options migrate_options{ParkPolicy::kReprogram};
  migrate_options.transfer_state = true;
  StateTransferMigrator migrator(sim, *testbed.fpga(), migrate_options,
                                 testbed.memcached(), testbed.lake());
  sim.Schedule(Milliseconds(10), [&] { migrator.ShiftToNetwork(); });
  // Back before the 40 ms reprogram halt elapses.
  sim.Schedule(Milliseconds(20), [&] { migrator.ShiftToHost(); });
  sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(testbed.memcached()->store().size(), 1000u);
}

TEST(StateTransferMigratorTest, DnsShiftTransfersZoneWarmth) {
  // The generic state transfer must carry the host's zone into the device
  // on ShiftToNetwork; without it the empty device answers NXDOMAIN.
  auto make = [](bool transfer_state) {
    return [transfer_state](Simulation& sim, FpgaNic& fpga, NsdServer& nsd,
                            EmuDns& emu) {
      StateTransferMigrator::Options options{ParkPolicy::kKeepWarm};
      options.transfer_state = transfer_state;
      return std::make_unique<StateTransferMigrator>(sim, fpga, options, &nsd, &emu);
    };
  };
  const DnsShiftResult cold = RunDnsShift(/*device_zone_empty=*/true, make(false));
  const DnsShiftResult warm = RunDnsShift(/*device_zone_empty=*/true, make(true));
  EXPECT_EQ(cold.emu_answered, 0u);
  EXPECT_GT(cold.emu_nxdomain, 0u);
  EXPECT_GT(warm.emu_answered, 500u);
  EXPECT_EQ(warm.emu_nxdomain, 0u);
}

TEST(StateTransferMigratorTest, DnsGenericCoreMatchesBareClassifierFlip) {
  // Differential: with the transfer disabled and a shared zone, the core
  // with both placements bound and the bare classifier flip (no apps
  // bound) produce identical results.
  const DnsShiftResult classic = RunDnsShift(
      /*device_zone_empty=*/false,
      [](Simulation& sim, FpgaNic& fpga, NsdServer&, EmuDns&) {
        return std::make_unique<StateTransferMigrator>(
            sim, fpga, StateTransferMigrator::Options{ParkPolicy::kGatedPark});
      });
  const DnsShiftResult generic = RunDnsShift(
      /*device_zone_empty=*/false,
      [](Simulation& sim, FpgaNic& fpga, NsdServer& nsd, EmuDns& emu) {
        StateTransferMigrator::Options options{ParkPolicy::kGatedPark};
        return std::make_unique<StateTransferMigrator>(sim, fpga, options, &nsd, &emu);
      });
  EXPECT_GT(classic.emu_answered, 0u);
  EXPECT_EQ(classic.emu_answered, generic.emu_answered);
  EXPECT_EQ(classic.emu_nxdomain, generic.emu_nxdomain);
  EXPECT_EQ(classic.client_received, generic.client_received);
}

TEST(StateTransferMigratorTest, PaxosLeaderGenericPathSkipsTheLearningGap) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  migrator.SetTransferState(true);  // Generic state-transfer path.
  testbed.client().Start();
  uint32_t software_sequence_at_shift = 0;
  sim.Schedule(Seconds(1), [&] {
    software_sequence_at_shift = testbed.software_leader()->state().next_instance();
    migrator.ShiftToNetwork();
    // Ballot continuity and sequence carried over: no Reset-to-1, no
    // passive learning phase.
    EXPECT_EQ(testbed.fpga_leader()->leader()->ballot(), migrator.current_ballot());
    EXPECT_EQ(testbed.fpga_leader()->leader()->next_instance(),
              software_sequence_at_shift);
    EXPECT_FALSE(testbed.fpga_leader()->leader()->awaiting_sequence());
  });
  sim.RunUntil(Seconds(2));

  EXPECT_EQ(migrator.state_transfers(), 1u);
  EXPECT_GT(software_sequence_at_shift, 1u);
  // No Fig-7 gap: the hardware leader proposed without sequence jumps.
  EXPECT_EQ(testbed.fpga_leader()->leader()->sequence_jumps(), 0u);
  EXPECT_GT(testbed.fpga_leader()->messages_handled(), 0u);
  const double completed = static_cast<double>(testbed.client().completed());
  const double sent = static_cast<double>(testbed.client().sent());
  EXPECT_GT(completed / sent, 0.99);
}

// --------------------------------------------------- DNS pool basics ------

TEST(DnsPoolTest, PooledVecCopyMoveAndReuse) {
  PooledVec<DnsQuestion> a;
  for (int i = 0; i < 10; ++i) {  // Forces growth through capacity classes.
    a.push_back(DnsQuestion{"name" + std::to_string(i), kDnsTypeA, kDnsClassIn});
  }
  ASSERT_EQ(a.size(), 10u);
  PooledVec<DnsQuestion> b = a;  // Deep copy.
  a.clear();
  ASSERT_EQ(b.size(), 10u);
  EXPECT_EQ(b[3].name, "name3");
  PooledVec<DnsQuestion> c = std::move(b);
  EXPECT_EQ(c.back().name, "name9");
  // Destroyed buffers are recycled: churn many messages and stay correct.
  for (int round = 0; round < 100; ++round) {
    DnsMessage msg;
    msg.questions.push_back(DnsQuestion{"q.example", kDnsTypeA, kDnsClassIn});
    DnsResourceRecord rr;
    rr.name = "q.example";
    rr.rdata = Ipv4ToRdata(0x7f000001);
    msg.answers.push_back(std::move(rr));
    DnsMessage copy = msg;
    ASSERT_EQ(copy.answers.size(), 1u);
    ASSERT_EQ(RdataToIpv4(copy.answers.front().rdata), 0x7f000001u);
  }
}

TEST(DnsPoolTest, RdataRejectsOversizedAssign) {
  std::vector<uint8_t> big(DnsRdata::kCapacity + 1, 0xab);
  DnsRdata rdata;
  EXPECT_FALSE(rdata.assign(big.begin(), big.end()));
  EXPECT_TRUE(rdata.empty());
  std::vector<uint8_t> four{1, 2, 3, 4};
  EXPECT_TRUE(rdata.assign(four.begin(), four.end()));
  EXPECT_EQ(rdata.size(), 4u);
}

}  // namespace
}  // namespace incod
