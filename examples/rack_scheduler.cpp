// Rack-scale on-demand placement: the real orchestrator, live.
//
// A mixed rack — memcached+LaKe, NSD+switch-DNS, and a dual Paxos leader —
// runs under one RackOrchestrator with a shared offload power budget. Load
// ramps per app; the orchestrator measures each app's classifier-visible
// rate, predicts both placements' watts with the §8 models, and greedily
// places each app on its cheapest eligible target (FPGA NIC for the KVS,
// the ToR pipeline for DNS, the P4xos NIC for the Paxos leader), honoring
// capacity and the shared budget. The timeline below narrates the result.
#include <cstdio>
#include <memory>

#include "src/scenarios/rack_scenario.h"
#include "src/sim/simulation.h"
#include "src/workload/dns_workload.h"
#include "src/workload/etc_workload.h"

using namespace incod;

namespace {

std::string AppPlacement(MixedRackScenario& rack, size_t app) {
  const RackPlacementOption* option = rack.orchestrator().current_option(app);
  return option == nullptr ? "host" : option->migrator->target().TargetName();
}

}  // namespace

int main() {
  Simulation sim(/*seed=*/11);

  MixedRackOptions options;
  options.power_budget_watts = 120.0;  // Shared PDU headroom for offloads.
  options.orchestrator.min_dwell = Seconds(1);
  // Warm policy for the KVS: every orchestrator shift carries the store's
  // LRU contents through the generic state-transfer path, so LaKe serves
  // hits from the first post-shift packet (no Fig 6 re-warm gap). DNS and
  // Paxos keep the paper's cold shifts for contrast.
  options.warm.kvs = true;
  // Near the one-core libpaxos peak. Note the orchestrator still keeps the
  // leader on the host: P4xos-in-a-server saves < 1 W over libpaxos even at
  // peak (Fig 3b) — the switch, not the NIC, is where consensus pays (§9.4).
  options.paxos_client.requests_per_second = 170000;
  MixedRackScenario rack(sim, options);
  rack.PrefillKvs(50000, 64);

  // KVS: quiet start, morning surge at 3 s.
  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = kRackKvsServerNode;
  etc_config.key_population = 50000;
  EtcWorkload etc(etc_config);
  auto kvs_arrival = std::make_unique<PoissonArrival>(20000.0);
  PoissonArrival* kvs_knob = kvs_arrival.get();
  LoadClient& kvs_client =
      rack.AddKvsClient(LoadClientConfig{}, std::move(kvs_arrival), etc.MakeFactory());

  // DNS: steady 300 kqps edge traffic.
  DnsWorkloadConfig dns_config;
  dns_config.dns_service = kRackDnsServerNode;
  LoadClient& dns_client = rack.AddDnsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(300000.0),
      MakeDnsRequestFactory(dns_config));

  sim.Schedule(Seconds(3), [&] {
    kvs_knob->SetRate(500000.0);
    std::printf("[%5.1fs] load: kvs morning surge (500 kqps)\n", ToSeconds(sim.Now()));
  });
  sim.Schedule(Seconds(10), [&] {
    kvs_knob->SetRate(20000.0);
    std::printf("[%5.1fs] load: kvs night (20 kqps)\n", ToSeconds(sim.Now()));
  });

  rack.orchestrator().Start();
  kvs_client.Start();
  dns_client.Start();
  rack.paxos_client()->Start();

  std::printf("%-8s %-22s %-22s %-22s %10s %10s\n", "time", "kvs", "dns", "paxos",
              "committed", "budget");
  SchedulePeriodic(sim, Seconds(1), Seconds(1), [&] {
    std::printf("[%5.1fs] %-22s %-22s %-22s %8.1f W %8.1f W\n", ToSeconds(sim.Now()),
                AppPlacement(rack, rack.kvs_app_index()).c_str(),
                AppPlacement(rack, rack.dns_app_index()).c_str(),
                AppPlacement(rack, rack.paxos_app_index()).c_str(),
                rack.orchestrator().ledger().committed_watts(),
                rack.orchestrator().ledger().budget_watts());
    return sim.Now() < Seconds(15);
  });

  sim.RunUntil(Seconds(15));

  std::printf("\nshifts by target:\n");
  std::printf("  %-24s %llu\n", rack.kvs_fpga().TargetName().c_str(),
              static_cast<unsigned long long>(
                  rack.orchestrator().ShiftsToTarget(rack.kvs_fpga())));
  std::printf("  %-24s %llu\n", rack.dns_target().TargetName().c_str(),
              static_cast<unsigned long long>(
                  rack.orchestrator().ShiftsToTarget(rack.dns_target())));
  if (rack.paxos_fpga() != nullptr) {
    std::printf("  %-24s %llu\n", rack.paxos_fpga()->TargetName().c_str(),
                static_cast<unsigned long long>(
                    rack.orchestrator().ShiftsToTarget(*rack.paxos_fpga())));
  }

  std::printf("\ntransitions:\n");
  for (const auto& t : rack.kvs_migrator().transitions()) {
    std::printf("  kvs   %5.1fs -> %s\n", ToSeconds(t.at), PlacementName(t.to));
  }
  for (const auto& t : rack.dns_migrator().transitions()) {
    std::printf("  dns   %5.1fs -> %s\n", ToSeconds(t.at), PlacementName(t.to));
  }
  if (rack.paxos_migrator() != nullptr) {
    for (const auto& t : rack.paxos_migrator()->transitions()) {
      std::printf("  paxos %5.1fs -> %s\n", ToSeconds(t.at), PlacementName(t.to));
    }
  }

  std::printf("\nserved: kvs %llu/%llu, dns %llu/%llu, paxos %llu/%llu\n",
              static_cast<unsigned long long>(kvs_client.received()),
              static_cast<unsigned long long>(kvs_client.sent()),
              static_cast<unsigned long long>(dns_client.received()),
              static_cast<unsigned long long>(dns_client.sent()),
              static_cast<unsigned long long>(rack.paxos_client()->completed()),
              static_cast<unsigned long long>(rack.paxos_client()->sent()));
  std::printf("dns answered in ToR: %llu; kvs served in LaKe: %llu\n",
              static_cast<unsigned long long>(rack.dns_program().answered()),
              static_cast<unsigned long long>(rack.kvs_fpga().processed_in_hardware()));
  std::printf("warm shifts: %llu of %llu total (kvs state transfers: %llu)\n",
              static_cast<unsigned long long>(rack.orchestrator().warm_shifts()),
              static_cast<unsigned long long>(rack.orchestrator().total_shifts()),
              static_cast<unsigned long long>(rack.kvs_migrator().state_transfers()));
  std::printf("mean committed offload power: %.1f W (series of %zu samples)\n",
              rack.orchestrator().committed_watts_series().MeanValue(),
              rack.orchestrator().committed_watts_series().size());
  return 0;
}
