// Figure 6: transitioning the KVS from software to the network and back.
//
// Reproduces the timeline experiment of §9.2: a mutilate-style client with
// the Facebook ETC distribution drives the KVS; ChainerMN runs as a second
// workload on the host; the host-controlled on-demand controller (RAPL +
// CPU usage, 3 s sustain) shifts the KVS to LaKe and back after ChainerMN
// stops. Expected results: throughput unaffected by the transitions,
// query-hit latency improves roughly ten-fold within tens of microseconds,
// power tracks the background load.
//
// Modes:
//   (default) — the paper's timeline reproduction (cold shifts).
//   --check   — warm-vs-cold comparison: shifts the KVS into LaKe with
//     transfer_state off (the paper: caches start cold, every lookup punts
//     to the host until egress observation re-warms them) and on (the
//     generic state-transfer path: the host store's LRU contents arrive in
//     LaKe's caches with the flip), measures the post-shift miss fraction
//     and hit latency, and exits 1 if the warm-vs-cold floors below break.
//   The comparison additionally runs a SmartNIC leg: the same warm-vs-cold
//   shift onto a §10 AccelNet-class board hosting the registry KVS through
//   a ScenarioSpec, held to the same floors.
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/ondemand/controller.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"
#include "src/workload/etc_workload.h"

namespace {

using namespace incod;

struct TransitionResult {
  // Fraction of classifier-diverted lookups that missed to the host in the
  // measurement window right after the shift (cold caches -> near 1).
  double post_shift_miss_fraction = 0;
  double post_shift_p50_us = 0;
  uint64_t window_misses = 0;
  uint64_t window_hits = 0;
};

// --check floors on the post-shift miss fraction, shared by the FPGA and
// SmartNIC legs (same store, ETC stream and transfer path). Simulated time,
// deterministic per seed: cold shifts miss ~0.443 of post-shift lookups,
// warm shifts none. Move them only with an intentional change to the
// state-transfer path.
constexpr double kWarmMaxMissFraction = 0.05;
constexpr double kMinDeltaMissFraction = 0.25;

// Shared measurement protocol for every warm-vs-cold leg: ETC client
// against a pre-warmed authoritative store, one shift into the network at
// 1 s, miss fraction + p50 over the 200 ms post-shift window. Only the
// testbed (which offload substrate hosts LaKe) differs between legs.
TransitionResult MeasureTransition(Simulation& sim, StateTransferMigrator& migrator,
                                   LakeCache& lake, LoadClient& client) {
  const SimTime shift_at = Seconds(1);
  const SimDuration window = Milliseconds(200);

  TransitionResult result;
  uint64_t hits_at_shift = 0;
  uint64_t misses_at_shift = 0;
  sim.Schedule(shift_at, [&] {
    migrator.ShiftToNetwork();
    hits_at_shift = lake.l1_hits() + lake.l2_hits();
    misses_at_shift = lake.misses_to_host();
    client.mutable_latency().Reset();
  });
  sim.Schedule(shift_at + window, [&] {
    result.window_hits = lake.l1_hits() + lake.l2_hits() - hits_at_shift;
    result.window_misses = lake.misses_to_host() - misses_at_shift;
    const uint64_t total = result.window_hits + result.window_misses;
    result.post_shift_miss_fraction =
        total == 0 ? 0.0 : static_cast<double>(result.window_misses) / total;
    result.post_shift_p50_us =
        ToMicroseconds(static_cast<SimDuration>(client.latency().P50()));
  });

  client.Start();
  sim.RunUntil(shift_at + window + Milliseconds(50));
  return result;
}

constexpr uint64_t kTransitionKeys = 20000;

// The workload must outlive the client (MakeFactory captures it).
EtcWorkload MakeTransitionWorkload(NodeId service) {
  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = service;
  etc_config.key_population = kTransitionKeys;
  return EtcWorkload(etc_config);
}

LoadClientConfig TransitionClientConfig() {
  LoadClientConfig client_config;
  client_config.rate_bucket = Milliseconds(500);
  return client_config;
}

TransitionResult RunTransition(bool warm) {
  Simulation sim(23);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  // Warm only the authoritative host store: LaKe's caches hold whatever the
  // shift (and subsequent traffic) brings them.
  for (uint64_t k = 0; k < kTransitionKeys; ++k) {
    testbed.memcached()->store().Set(k, 64);
  }
  EtcWorkload etc = MakeTransitionWorkload(testbed.ServiceNode());
  LoadClient& client =
      testbed.AddClient(TransitionClientConfig(),
                        std::make_unique<PoissonArrival>(16000.0), etc.MakeFactory());

  // Fig 6 ran without clock gating / memory reset enabled; the warm mode
  // additionally carries the store contents through the generic transfer.
  StateTransferMigrator::Options migrate_options{ParkPolicy::kKeepWarm};
  migrate_options.transfer_state = warm;
  StateTransferMigrator migrator(sim, *testbed.fpga(), migrate_options,
                                 testbed.memcached(), testbed.lake());
  return MeasureTransition(sim, migrator, *testbed.lake(), client);
}

// The SmartNIC leg of the comparison: the same host store and ETC client,
// but the offload placement is the registry KVS hosted on an AccelNet-class
// SmartNIC, built declaratively from a ScenarioSpec (PR 5's fourth
// substrate). Cold shifts start the board's caches empty; warm shifts carry
// the store through the generic state-transfer path.
TransitionResult RunSmartNicTransition(bool warm) {
  Simulation sim(23);
  ScenarioMemberSpec kvs;
  kvs.host.config.name = "kvs-host";
  kvs.host.config.node = 1;
  kvs.host.apps = {"kvs"};
  kvs.target.kind = ScenarioTargetKind::kSmartNic;
  kvs.target.name = "kvs-smartnic";
  kvs.target.smartnic_preset = "accelnet-fpga";
  kvs.target.device_node = 50;
  kvs.target.app = "kvs";
  kvs.target.initially_active = false;
  ScenarioSpec spec;
  spec.name = "fig6-smartnic";
  spec.members = {kvs};
  ScenarioTestbed testbed(sim, std::move(spec));
  auto* memcached = testbed.member_host_app_as<MemcachedServer>(0);
  auto* lake = testbed.member_offload_app_as<LakeCache>(0);

  for (uint64_t k = 0; k < kTransitionKeys; ++k) {
    memcached->store().Set(k, 64);
  }
  EtcWorkload etc = MakeTransitionWorkload(testbed.ServiceNode());
  LoadClient& client =
      testbed.AddClient(TransitionClientConfig(),
                        std::make_unique<PoissonArrival>(16000.0), etc.MakeFactory());

  StateTransferMigrator::Options migrate_options{ParkPolicy::kKeepWarm};
  migrate_options.transfer_state = warm;
  StateTransferMigrator migrator(sim, *testbed.member(0).smartnic, migrate_options,
                                 memcached, lake);
  return MeasureTransition(sim, migrator, *lake, client);
}

void CheckLeg(bench::Check& check, const char* leg, const TransitionResult& cold,
              const TransitionResult& warm) {
  check.AtMost(std::string(leg) + " warm post-shift miss fraction",
               warm.post_shift_miss_fraction, kWarmMaxMissFraction);
  check.AtLeast(std::string(leg) + " cold-warm miss-fraction delta",
                cold.post_shift_miss_fraction - warm.post_shift_miss_fraction,
                kMinDeltaMissFraction);
}

int RunCheck() {
  bench::PrintHeader("Figure 6: KVS transition warmth, warm vs cold",
                     "Cold: the paper's classifier flip (LaKe starts empty, "
                     "misses punt to the host). Warm: the host store's LRU "
                     "contents ride the generic state-transfer path.");
  const TransitionResult cold = RunTransition(/*warm=*/false);
  const TransitionResult warm = RunTransition(/*warm=*/true);
  const TransitionResult nic_cold = RunSmartNicTransition(/*warm=*/false);
  const TransitionResult nic_warm = RunSmartNicTransition(/*warm=*/true);

  std::cout << "cold: post-shift miss fraction " << cold.post_shift_miss_fraction
            << " (" << cold.window_misses << " misses / " << cold.window_hits
            << " hits), p50 " << cold.post_shift_p50_us << " us\n";
  std::cout << "warm: post-shift miss fraction " << warm.post_shift_miss_fraction
            << " (" << warm.window_misses << " misses / " << warm.window_hits
            << " hits), p50 " << warm.post_shift_p50_us << " us\n";
  std::cout << "smartnic cold: post-shift miss fraction "
            << nic_cold.post_shift_miss_fraction << " (" << nic_cold.window_misses
            << " misses / " << nic_cold.window_hits << " hits)\n";
  std::cout << "smartnic warm: post-shift miss fraction "
            << nic_warm.post_shift_miss_fraction << " (" << nic_warm.window_misses
            << " misses / " << nic_warm.window_hits << " hits)\n\n";

  bench::Check check;
  CheckLeg(check, "fpga", cold, warm);
  CheckLeg(check, "smartnic", nic_cold, nic_warm);
  return check.ExitCode();
}

int RunTimeline() {
  bench::PrintHeader("Figure 6: KVS software->network->software transition",
                     "ETC client at ~16 kpps + ChainerMN background load; "
                     "host-controlled shift after 3 s sustained high power. "
                     "Red lines in the paper = transition timestamps below.");

  Simulation sim(23);
  KvsTestbedOptions options;
  options.mode = KvsMode::kLake;
  options.lake_initially_active = false;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(20000, 64);

  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = testbed.ServiceNode();
  etc_config.key_population = 20000;
  EtcWorkload etc(etc_config);
  LoadClientConfig client_config;
  client_config.rate_bucket = Milliseconds(500);
  auto& client = testbed.AddClient(client_config,
                                   std::make_unique<PoissonArrival>(16000.0),
                                   etc.MakeFactory());

  // Fig 6 ran without clock gating / memory reset enabled.
  StateTransferMigrator migrator(sim, *testbed.fpga(),
                                 StateTransferMigrator::Options{ParkPolicy::kKeepWarm});

  RaplCounter rapl(sim, [&] { return testbed.server()->RaplPackageWatts(); });
  rapl.Start();
  HostControllerConfig controller_config;
  // Threshold near ChainerMN's steady RAPL level so the 3 s window must be
  // mostly "high" before the shift fires — the paper's "transition is
  // triggered after three seconds of sustained high load".
  controller_config.up_power_watts = 60.0;
  controller_config.up_cpu_usage = -1.0;  // Power-triggered (ChainerMN load).
  controller_config.up_window = Seconds(3);  // Fig 6: 3 s sustained.
  controller_config.down_rate_pps = 50000.0;
  controller_config.down_power_watts = 15.0;
  controller_config.down_window = Seconds(3);
  controller_config.min_dwell = Seconds(2);
  OnDemandController controller(sim, *testbed.server(), AppProto::kKv, rapl, *testbed.fpga(),
                                migrator, controller_config);
  controller.Start();

  // ChainerMN: 3 busy cores from t=5 s to t=20 s.
  BackgroundLoad chainer(sim, *testbed.server(), 3.0);
  chainer.StartAt(Seconds(5));
  chainer.StopAt(Seconds(20));

  // Timeline sampling: throughput (hardware counter + host), latency, power.
  CsvTable timeline(
      {"time_ms", "throughput_kpps", "hit_latency_us", "power_w", "placement"});
  uint64_t last_received = 0;
  SchedulePeriodic(sim, Milliseconds(500), Milliseconds(500), [&] {
    const uint64_t received = client.received();
    const double kpps =
        static_cast<double>(received - last_received) / 0.5 / 1000.0;
    last_received = received;
    // Use the running latency histogram delta via p50 of all-so-far; for a
    // windowed view reset a private histogram from the client each period.
    timeline.AddRow({static_cast<int64_t>(ToMilliseconds(sim.Now())), kpps,
                     ToMicroseconds(static_cast<SimDuration>(client.latency().P50())),
                     testbed.meter().InstantWatts(),
                     std::string(PlacementName(migrator.placement()))});
    // Reset the latency histogram so each sample reflects the last window.
    client.mutable_latency().Reset();
    return sim.Now() < Seconds(30);
  });

  client.Start();
  sim.RunUntil(Seconds(30));

  timeline.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  timeline.WriteCsv(std::cout);

  std::cout << "\ntransitions:";
  for (const auto& t : migrator.transitions()) {
    std::cout << " " << ToSeconds(t.at) << "s->" << PlacementName(t.to);
  }
  std::cout << "\nhardware hits: " << testbed.lake()->l1_hits() + testbed.lake()->l2_hits()
            << ", misses to host: " << testbed.lake()->misses_to_host()
            << "\nclient received: " << client.received() << " of " << client.sent()
            << " sent\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  if (!bench::ParseCheckFlag(argc, argv, &check)) {
    return 2;
  }
  return check ? RunCheck() : RunTimeline();
}
