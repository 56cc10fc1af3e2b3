// End-to-end integration tests over the experiment testbeds: the KVS, DNS
// and Paxos systems as wired for the paper's figures, including the on-demand
// transitions of Fig 6 and Fig 7.
#include <gtest/gtest.h>

#include <memory>

#include "src/ondemand/controller.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/dns_testbed.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/workload/dns_workload.h"
#include "src/workload/etc_workload.h"

namespace incod {
namespace {

RequestFactory UniformGetFactory(NodeId service, uint64_t keys) {
  return [service, keys](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
    return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
}

// ---------------------------------------------------------------- KVS ----

TEST(KvsIntegrationTest, SoftwareModeServesGets) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kSoftwareOnly;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(1000, 64);
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(50000.0),
                        UniformGetFactory(testbed.ServiceNode(), 1000));
  client.Start();
  sim.RunUntil(Milliseconds(200));
  EXPECT_GT(client.received(), 9000u);
  EXPECT_LT(client.LossFraction(), 0.01);
  // Software latency: a few microseconds end to end (§5.3: 1.67 us median
  // at 100 Kqps plus our link/NIC path).
  EXPECT_LT(client.latency().P50(), static_cast<uint64_t>(Microseconds(15)));
}

TEST(KvsIntegrationTest, LakeModeServesFromHardwareWhenWarm) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(1000, 64);
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(50000.0),
                        UniformGetFactory(testbed.ServiceNode(), 1000));
  client.Start();
  sim.RunUntil(Milliseconds(200));
  EXPECT_GT(client.received(), 9000u);
  EXPECT_GT(testbed.lake()->HardwareHitRatio(), 0.99);
  EXPECT_EQ(testbed.fpga()->delivered_to_host(), 0u);
}

TEST(KvsIntegrationTest, HardwareLatencyBeatsSoftwarePath) {
  // §9.2: "The latency of query-hit improves ten-fold".
  auto run = [](KvsMode mode) {
    Simulation sim(1);
    KvsTestbedOptions options;
    options.mode = mode;
    KvsTestbed testbed(sim, options);
    testbed.Prefill(100, 64);
    auto& client =
        testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(10000.0),
                          UniformGetFactory(testbed.ServiceNode(), 100));
    client.Start();
    sim.RunUntil(Milliseconds(100));
    return client.latency().P50();
  };
  const uint64_t software = run(KvsMode::kSoftwareOnly);
  const uint64_t hardware = run(KvsMode::kLake);
  EXPECT_LT(hardware, software);
  EXPECT_LT(hardware, static_cast<uint64_t>(Microseconds(3)));
}

TEST(KvsIntegrationTest, LakeMissPathReachesHostAndFills) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  KvsTestbed testbed(sim, options);
  // Only the software store is warm: the hardware cache must fill itself
  // from host replies.
  for (uint64_t k = 0; k < 100; ++k) {
    testbed.memcached()->store().Set(k, 64);
  }
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(20000.0),
                        UniformGetFactory(testbed.ServiceNode(), 100));
  client.Start();
  sim.RunUntil(Milliseconds(200));
  EXPECT_GT(testbed.lake()->misses_to_host(), 0u);
  // Cache warmed: most late traffic is hardware hits.
  EXPECT_GT(testbed.lake()->l1_hits() + testbed.lake()->l2_hits(), 1000u);
  EXPECT_GT(client.received(), 3500u);
}

TEST(KvsIntegrationTest, PowerComposesIdleAnchors) {
  // §4.2 anchors: software system idle 39 W; LaKe system idle 59 W.
  Simulation sim(1);
  KvsTestbedOptions sw_options;
  sw_options.mode = KvsMode::kSoftwareOnly;
  KvsTestbed software(sim, sw_options);
  KvsTestbedOptions hw_options;
  hw_options.mode = KvsMode::kLake;
  KvsTestbed lake(sim, hw_options);
  sim.RunUntil(Milliseconds(50));
  EXPECT_NEAR(software.meter().InstantWatts(), 39.0, 0.5);
  EXPECT_NEAR(lake.meter().InstantWatts(), 59.0, 0.5);
}

TEST(KvsIntegrationTest, StandaloneLakeAnswersWithoutHost) {
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLakeStandalone;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(100, 64);
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(10000.0),
                        UniformGetFactory(testbed.ServiceNode(), 100));
  client.Start();
  sim.RunUntil(Milliseconds(100));
  EXPECT_GT(client.received(), 900u);
  EXPECT_EQ(testbed.server(), nullptr);
  // Standalone power is in the high-20s watts (board + PSU), way below a
  // server.
  EXPECT_LT(testbed.meter().InstantWatts(), 35.0);
  EXPECT_GT(testbed.meter().InstantWatts(), 20.0);
}

TEST(KvsIntegrationTest, Fig6StyleHostControlledTransition) {
  // ETC client + background load; the host controller shifts the KVS to the
  // network after sustained load, throughput is maintained, latency drops.
  Simulation sim(1);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(5000, 64);

  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = testbed.ServiceNode();
  etc_config.key_population = 5000;
  EtcWorkload etc(etc_config);
  auto& client = testbed.AddClient(LoadClientConfig{},
                                   std::make_unique<PoissonArrival>(100000.0),
                                   etc.MakeFactory());

  // Fig 6 ran without gating.
  StateTransferMigrator migrator(sim, *testbed.fpga(),
                                 StateTransferMigrator::Options{ParkPolicy::kKeepWarm});
  RaplCounter rapl(sim, [&] { return testbed.server()->RaplPackageWatts(); });
  rapl.Start();
  HostControllerConfig controller_config;
  // Threshold above the KVS's own footprint (~27 W RAPL at 100 kqps) so the
  // shift is triggered by the ChainerMN background load, as in Fig 6.
  controller_config.up_power_watts = 50.0;
  controller_config.up_cpu_usage = -1.0;
  controller_config.up_window = Seconds(3);
  controller_config.down_rate_pps = 1000000.0;  // Don't shift back here.
  controller_config.down_power_watts = 0.0;
  OnDemandController controller(sim, *testbed.server(), AppProto::kKv, rapl, *testbed.fpga(),
                                migrator, controller_config);
  controller.Start();

  BackgroundLoad chainer(sim, *testbed.server(), 3.0);
  chainer.StartAt(Seconds(2));

  client.Start();
  sim.RunUntil(Seconds(10));

  ASSERT_EQ(migrator.transitions().size(), 1u);
  EXPECT_EQ(migrator.transitions()[0].to, Placement::kNetwork);
  // The shift happened only after the background load hit (t=2 s) and the
  // sustained window filled — not before, and not instantly.
  EXPECT_GT(migrator.transitions()[0].at, Seconds(3));
  EXPECT_LT(migrator.transitions()[0].at, Seconds(8));
  // Exact tick: the sustained window fills at 3.7 s.
  EXPECT_EQ(migrator.transitions()[0].at, Milliseconds(3700));
  // Throughput maintained: client keeps completing ~100 K/s after the shift.
  const double rate_after = client.completion_rate().MeanValueBetween(
      Seconds(8), Seconds(10));
  EXPECT_GT(rate_after, 90000.0);
  // And the hardware now serves the bulk of hits.
  EXPECT_GT(testbed.lake()->l1_hits() + testbed.lake()->l2_hits(), 100000u);
}

// ---------------------------------------------------------------- DNS ----

TEST(DnsIntegrationTest, SoftwareResolves) {
  Simulation sim(1);
  DnsTestbedOptions options;
  options.mode = DnsMode::kSoftwareOnly;
  DnsTestbed testbed(sim, options);
  DnsWorkloadConfig workload;
  workload.dns_service = testbed.ServiceNode();
  workload.zone_size = options.zone_size;
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(50000.0),
                        MakeDnsRequestFactory(workload));
  client.Start();
  sim.RunUntil(Milliseconds(200));
  EXPECT_GT(client.received(), 9000u);
  EXPECT_GT(testbed.nsd()->answered(), 9000u);
}

TEST(DnsIntegrationTest, EmuResolvesInHardware) {
  Simulation sim(1);
  DnsTestbedOptions options;
  options.mode = DnsMode::kEmu;
  DnsTestbed testbed(sim, options);
  DnsWorkloadConfig workload;
  workload.dns_service = testbed.ServiceNode();
  workload.zone_size = options.zone_size;
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(50000.0),
                        MakeDnsRequestFactory(workload));
  client.Start();
  sim.RunUntil(Milliseconds(200));
  EXPECT_GT(client.received(), 9000u);
  EXPECT_GT(testbed.emu()->answered(), 9000u);
  EXPECT_EQ(testbed.nsd()->answered(), 0u);  // All served in hardware.
}

TEST(DnsIntegrationTest, PowerAnchorsMatchPaper) {
  // §4.4: Emu DNS system ~47.5 W; idle software server just under 40 W.
  Simulation sim(1);
  DnsTestbedOptions sw;
  sw.mode = DnsMode::kSoftwareOnly;
  DnsTestbed software(sim, sw);
  DnsTestbedOptions hw;
  hw.mode = DnsMode::kEmu;
  DnsTestbed emu(sim, hw);
  sim.RunUntil(Milliseconds(50));
  EXPECT_NEAR(software.meter().InstantWatts(), 39.5, 0.5);
  EXPECT_NEAR(emu.meter().InstantWatts(), 47.5, 0.5);
}

TEST(DnsIntegrationTest, NetworkControlledShift) {
  // §9.2: "Dynamically shifting DNS operation from software to the network
  // is much the same as shifting KVS", with the network-based controller.
  Simulation sim(1);
  DnsTestbedOptions options;
  options.mode = DnsMode::kEmu;
  options.emu_initially_active = false;
  DnsTestbed testbed(sim, options);
  DnsWorkloadConfig workload;
  workload.dns_service = testbed.ServiceNode();
  workload.zone_size = options.zone_size;
  auto& client =
      testbed.AddClient(LoadClientConfig{}, std::make_unique<ConstantArrival>(300000.0),
                        MakeDnsRequestFactory(workload));
  StateTransferMigrator migrator(sim, *testbed.fpga());
  NetworkControllerConfig controller_config;
  controller_config.up_rate_pps = 150000;
  controller_config.up_window = Seconds(1);
  controller_config.down_rate_pps = 50000;
  OnDemandController controller(sim, *testbed.fpga(), migrator, controller_config);
  controller.Start();
  client.Start();
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(migrator.placement(), Placement::kNetwork);
  // Shifts once the 1 s rate window is full, at the 1.1 s check.
  ASSERT_EQ(migrator.transitions().size(), 1u);
  EXPECT_EQ(migrator.transitions()[0].at, Milliseconds(1100));
  EXPECT_GT(testbed.emu()->answered(), 0u);
}

// --------------------------------------------------------------- Paxos ----

TEST(PaxosIntegrationTest, LibpaxosReachesConsensus) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kLibpaxos;
  options.client.requests_per_second = 10000;
  PaxosTestbed testbed(sim, options);
  testbed.client().Start();
  sim.RunUntil(Milliseconds(500));
  EXPECT_GT(testbed.client().completed(), 4000u);
  EXPECT_GT(testbed.learner()->state().delivered_count(), 4000u);
  // End-to-end latency: sub-millisecond at this load.
  EXPECT_LT(testbed.client().latency().P99(),
            static_cast<uint64_t>(Milliseconds(2)));
}

TEST(PaxosIntegrationTest, LibpaxosSaturatesNearPaperPeak) {
  // §3.2: libpaxos sustains ~178 Kmsg/s on one core.
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kLibpaxos;
  options.client.requests_per_second = 400000;  // 2x capacity.
  options.client.max_retries = 0;               // Measure raw capacity.
  PaxosTestbed testbed(sim, options);
  testbed.client().Start();
  sim.RunUntil(Milliseconds(500));
  const double rate = static_cast<double>(testbed.client().completed()) / 0.5;
  EXPECT_GT(rate, 140000.0);
  EXPECT_LT(rate, 220000.0);
}

TEST(PaxosIntegrationTest, P4xosFpgaHandlesHighRate) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.client.requests_per_second = 500000;
  options.client.max_retries = 0;
  PaxosTestbed testbed(sim, options);
  testbed.client().Start();
  sim.RunUntil(Milliseconds(300));
  const double rate = static_cast<double>(testbed.client().completed()) / 0.3;
  EXPECT_GT(rate, 450000.0);  // No software bottleneck.
}

TEST(PaxosIntegrationTest, PowerAnchorsPerDeployment) {
  // One simulation per measurement: a testbed's self-rescheduling events
  // (meter samples, learner gap timer) must not outlive it in a shared sim.
  auto measure = [](PaxosDeployment deployment) {
    Simulation sim(1);
    PaxosTestbedOptions options;
    options.deployment = deployment;
    options.client.requests_per_second = 1000;  // Near idle.
    auto testbed = std::make_unique<PaxosTestbed>(sim, options);
    sim.RunUntil(sim.Now() + Milliseconds(50));
    return testbed->meter().InstantWatts();
  };
  // §4: software idle 39 W; P4xos-in-server ~48 W; DPDK high at idle;
  // standalone board ~18 W.
  EXPECT_NEAR(measure(PaxosDeployment::kLibpaxos), 39.0, 1.0);
  EXPECT_NEAR(measure(PaxosDeployment::kP4xosFpga), 47.6, 1.0);
  EXPECT_GT(measure(PaxosDeployment::kDpdk), 85.0);
  EXPECT_NEAR(measure(PaxosDeployment::kP4xosStandalone), 18.2, 1.5);
}

TEST(PaxosIntegrationTest, Fig7LeaderMigrationMaintainsConsensus) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  options.client.retry_timeout = Milliseconds(100);
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  // Shift to hardware at 1 s, back to software at 3 s (Fig 7).
  sim.Schedule(Seconds(1), [&] { migrator.ShiftToNetwork(); });
  sim.Schedule(Seconds(3), [&] { migrator.ShiftToHost(); });
  testbed.client().Start();
  sim.RunUntil(Seconds(5));

  ASSERT_EQ(migrator.transitions().size(), 2u);
  // Consensus kept running: the vast majority of requests completed.
  const double completed = static_cast<double>(testbed.client().completed());
  const double sent = static_cast<double>(testbed.client().sent());
  EXPECT_GT(completed / sent, 0.95);
  // Both leaders did work.
  EXPECT_GT(testbed.fpga_leader()->messages_handled(), 0u);
  EXPECT_GT(testbed.software_leader()->messages_handled(), 0u);
  // Retries occurred around the shifts (the ~100 ms gap of Fig 7).
  EXPECT_GT(testbed.client().retries(), 0u);
  // The new leader learned the old sequence instead of restarting at 1.
  EXPECT_GT(testbed.fpga_leader()->leader()->sequence_jumps(), 0u);
  // Throughput recovered after each shift.
  const double late_rate =
      testbed.client().completion_rate().MeanValueBetween(Seconds(4), Seconds(5));
  EXPECT_GT(late_rate, 9000.0);
}

TEST(PaxosIntegrationTest, ColdShiftPastTheWindowIsTrimmedSafely) {
  // The second, cold shift (no probe, no state transfer) happens after more
  // than AcceptorState::kWindow instances, so the fresh leader's proposals
  // from instance 1 fall below every acceptor's window. The trim rule must
  // answer them with sequence hints only: nothing is learned twice, no
  // no-op is delivered and the learner never sees a gap.
  Simulation sim(3);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 20000;
  options.client.retry_timeout = Milliseconds(100);
  PaxosTestbed testbed(sim, options);
  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  sim.Schedule(Seconds(2), [&] { migrator.ShiftToNetwork(); });
  sim.Schedule(Seconds(4), [&] {
    ASSERT_GT(testbed.learner()->state().highest_contiguous(), AcceptorState::kWindow);
    migrator.ShiftToHost();
  });
  testbed.client().Start();
  sim.RunUntil(Seconds(6));

  const PaxosClient& client = testbed.client();
  EXPECT_EQ(client.sent(),
            client.completed() + client.timeouts_abandoned() + client.outstanding());
  const LearnerState& learner = testbed.learner()->state();
  EXPECT_EQ(learner.noop_count(), 0u);
  EXPECT_EQ(learner.fill_requests_sent(), 0u);
  uint64_t trimmed = 0;
  for (int i = 0; i < options.num_acceptors; ++i) {
    const AcceptorState& acceptor = testbed.software_acceptor(i)->state();
    EXPECT_LE(acceptor.stored_instances(), AcceptorState::kWindow);
    trimmed += acceptor.trimmed_requests();
  }
  EXPECT_GT(trimmed, 0u);
  // Consensus kept running after the cold shift.
  EXPECT_GT(client.completion_rate().MeanValueBetween(Milliseconds(5000), Seconds(6)),
            15000.0);
}

TEST(PaxosIntegrationTest, AcceptorSutVariantsWork) {
  Simulation sim(1);
  PaxosTestbedOptions options;
  options.sut = PaxosSut::kAcceptor;
  options.deployment = PaxosDeployment::kLibpaxos;
  options.client.requests_per_second = 20000;
  PaxosTestbed testbed(sim, options);
  testbed.client().Start();
  sim.RunUntil(Milliseconds(300));
  EXPECT_GT(testbed.client().completed(), 4000u);
  EXPECT_GT(testbed.SutMessagesHandled(), 4000u);
}

}  // namespace
}  // namespace incod
