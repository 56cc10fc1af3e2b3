// Figure 7: transitioning the Paxos leader between software and hardware.
//
// A central controller re-points the leader service (switch rule) from the
// software leader to the P4xos leader on the NetFPGA and back. Expected
// shape (§9.2): throughput rises and latency halves while the leader is in
// hardware; at each shift throughput drops to zero for about the client
// timeout (~100 ms) while the new leader learns the latest Paxos instance.
//
// Modes:
//   (default) — the paper's timeline reproduction (cold shifts).
//   --check   — warm-vs-cold comparison: runs the same shifts with
//     transfer_state off (the paper: ballot reset + sequence re-learning,
//     ~100 ms gap) and on (the generic state-transfer path: ballot+sequence
//     ride the typed snapshot), measures the service gap at each shift, and
//     exits 1 if the warm-vs-cold floors below break.
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/ondemand/migrator.h"
#include "src/scenarios/paxos_testbed.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"

namespace {

using namespace incod;

struct GapResult {
  // Service gap after each shift: time from the classifier flip until the
  // client completes its next request.
  double to_network_gap_ms = 0;
  double to_host_gap_ms = 0;
  uint64_t completed = 0;
  uint64_t retries = 0;
};

// --check floors on the to-network service gap. Simulated time,
// deterministic per seed: cold shifts gap ~100 ms (the Fig 7 client-timeout
// re-learning), warm shifts ~0.5 ms. Move them only with an intentional
// change to the state-transfer path.
constexpr double kWarmMaxGapMs = 5.0;
constexpr double kMinDeltaGapMs = 50.0;

GapResult RunTransition(bool warm) {
  Simulation sim(29);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  options.client.retry_timeout = Milliseconds(100);
  options.client.rate_bucket = Milliseconds(100);
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  migrator.SetTransferState(warm);

  const SimTime shift_net_at = Seconds(1);
  const SimTime shift_host_at = Seconds(2);
  const SimTime end_at = shift_host_at + Seconds(1);

  GapResult result;
  auto measure_gap = [&](SimTime at, double* gap_ms) {
    sim.Schedule(at - sim.Now(), [&sim, &testbed, at, gap_ms] {
      const uint64_t base = testbed.client().completed();
      SchedulePeriodic(sim, Microseconds(500), Microseconds(500),
                       [&sim, &testbed, at, gap_ms, base] {
                         if (testbed.client().completed() <= base) {
                           return true;
                         }
                         *gap_ms = ToMilliseconds(sim.Now() - at);
                         return false;
                       });
    });
  };

  sim.Schedule(shift_net_at, [&] { migrator.ShiftToNetwork(); });
  measure_gap(shift_net_at, &result.to_network_gap_ms);
  sim.Schedule(shift_host_at, [&] { migrator.ShiftToHost(); });
  measure_gap(shift_host_at, &result.to_host_gap_ms);

  testbed.client().Start();
  sim.RunUntil(end_at);
  result.completed = testbed.client().completed();
  result.retries = testbed.client().retries();
  return result;
}

int RunCheck() {
  bench::PrintHeader("Figure 7: Paxos leader transition gap, warm vs cold",
                     "Cold: the paper's shift (ballot reset, sequence "
                     "re-learning, ~100 ms gap). Warm: ballot+sequence ride "
                     "the generic state-transfer path.");
  const GapResult cold = RunTransition(/*warm=*/false);
  const GapResult warm = RunTransition(/*warm=*/true);

  std::cout << "cold: to-network gap " << cold.to_network_gap_ms << " ms, to-host gap "
            << cold.to_host_gap_ms << " ms, completed " << cold.completed
            << ", retries " << cold.retries << "\n";
  std::cout << "warm: to-network gap " << warm.to_network_gap_ms << " ms, to-host gap "
            << warm.to_host_gap_ms << " ms, completed " << warm.completed
            << ", retries " << warm.retries << "\n\n";

  bench::Check check;
  check.AtMost("warm to-network gap ms", warm.to_network_gap_ms, kWarmMaxGapMs);
  check.AtLeast("cold-warm to-network gap delta ms",
                cold.to_network_gap_ms - warm.to_network_gap_ms, kMinDeltaGapMs);
  return check.ExitCode();
}

int RunTimeline() {
  bench::PrintHeader("Figure 7: Paxos leader software->network->software",
                     "10 kreq/s client, 100 ms retry timeout; shifts at 1 s "
                     "and 3 s (the paper's red dashed lines).");

  Simulation sim(29);
  PaxosTestbedOptions options;
  options.deployment = PaxosDeployment::kP4xosFpga;
  options.dual_leader = true;
  options.client.requests_per_second = 10000;
  options.client.retry_timeout = Milliseconds(100);
  options.client.rate_bucket = Milliseconds(100);
  PaxosTestbed testbed(sim, options);

  PaxosLeaderMigrator migrator(sim, testbed.net_switch(), kPaxosLeaderService,
                               *testbed.software_leader(), testbed.leader_port(),
                               *testbed.sut_fpga(), *testbed.fpga_leader(),
                               testbed.leader_port());
  sim.Schedule(Seconds(1), [&] { migrator.ShiftToNetwork(); });
  sim.Schedule(Seconds(3), [&] { migrator.ShiftToHost(); });

  CsvTable timeline({"time_ms", "throughput_kpps", "latency_us", "placement"});
  SchedulePeriodic(sim, Milliseconds(100), Milliseconds(100), [&] {
    const auto& series = testbed.client().completion_rate();
    const double kpps = series.empty() ? 0.0 : series.samples().back().value / 1000.0;
    timeline.AddRow({static_cast<int64_t>(ToMilliseconds(sim.Now())), kpps,
                     ToMicroseconds(static_cast<SimDuration>(
                         testbed.client().latency().P50())),
                     std::string(PlacementName(migrator.placement()))});
    testbed.client().mutable_latency().Reset();
    return sim.Now() < Seconds(5);
  });

  testbed.client().Start();
  sim.RunUntil(Seconds(5));

  timeline.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  timeline.WriteCsv(std::cout);

  std::cout << "\ntransitions:";
  for (const auto& t : migrator.transitions()) {
    std::cout << " " << ToSeconds(t.at) << "s->" << PlacementName(t.to);
  }
  std::cout << "\nclient: sent " << testbed.client().sent() << ", completed "
            << testbed.client().completed() << ", retries " << testbed.client().retries()
            << " (the ~100 ms gap at each shift)\n";
  std::cout << "sequence jumps learned by leaders: hw="
            << testbed.fpga_leader()->leader()->sequence_jumps()
            << " sw=" << testbed.software_leader()->state().sequence_jumps() << "\n";
  std::cout << "learner: delivered " << testbed.learner()->state().delivered_count()
            << ", no-ops " << testbed.learner()->state().noop_count()
            << ", fill requests " << testbed.learner()->state().fill_requests_sent()
            << "\n";
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
