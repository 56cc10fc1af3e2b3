// Backpressure under overload: drop-tail vs PFC + DCQCN flow control.
//
// The congestion counterpart of the Fig 3 capacity sweeps: one §4.1 chain
// (client -- NIC -- host) driven well past service capacity, run in the two
// regimes the flow-control subsystem distinguishes:
//
//   drop-tail (flow off) — the host rx queue overflows and sheds load
//     silently; the client sees losses and a flat, queue-bounded p99.
//   backpressure (flow on) — the host pauses its PCIe uplink at the rx
//     watermarks, the NIC propagates the pause to the client link, ECN
//     marks come back as CNPs, and the client's DCQCN machine throttles to
//     the service rate: the same overload becomes slowdown instead of loss.
//
// Two gated legs:
//
//   backpressure — the same overloaded host-only chain, flow off vs on.
//     Gated: the drop-tail run must actually shed (min drop fraction), the
//     flow run must not drop at all on the chain (server rx + PCIe), must
//     show the machinery engaged (pause frames, CNPs), and must keep
//     goodput within a ratio of the drop-tail run (backpressure slows the
//     sender down; it must not collapse the service).
//   offload — §9's host-vs-offload comparison in both regimes: the same
//     overload against the software host and against the LaKe FPGA NIC.
//     The FPGA absorbs the offered load either way; the host sheds (flow
//     off) or backpressures (flow on). Gated: the host-vs-offload p99
//     slowdown ratio must *shift* measurably when backpressure is on —
//     with flow control the host path's queueing shows up as client-visible
//     latency instead of silent loss, so the ratio grows.
//
// Modes:
//   (default) — human-readable summary of both legs (60 ms window).
//   --check   — the same legs over a 20 ms window; exits 1 if a floor
//     below breaks.
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"

namespace {

using namespace incod;

constexpr uint64_t kKeyspace = 1024;
constexpr double kOfferedPps = 2.0e6;  // ~6x the 1-core host's capacity.
constexpr uint64_t kSeed = 42;

// --check floors. Simulated time, deterministic per seed, with margin over
// both windows. Reference (20 ms / 60 ms): drop-tail drop fraction
// 0.85-0.87, flow drop fraction 0, pause frames 40/118, CNPs 39/117,
// goodput ratio 1.0, flow slowdown x8413/x25177, slowdown shift x4.2/x12.7.
constexpr double kMinDroptailDropFraction = 0.5;
constexpr double kMaxFlowDropFraction = 0.001;
constexpr double kMinFlowPauseFrames = 10;
constexpr double kMinFlowCnps = 10;
constexpr double kMinGoodputRatio = 0.8;
constexpr double kMinFlowSlowdown = 3000.0;
constexpr double kMinSlowdownShift = 2.0;
constexpr double kMaxOffloadFlowDropFraction = 0.001;

SimDuration RunWindow(bool quick) {
  return quick ? Milliseconds(20) : Milliseconds(60);
}

// One overloaded §4.1 chain. `offload` picks the LaKe FPGA NIC placement
// (prefilled, so gets are absorbed at device rate) vs the 1-core software
// host behind a conventional NIC.
ScenarioSpec OverloadSpec(bool offload, bool flow_on) {
  KvsTestbedOptions options;
  options.mode = offload ? KvsMode::kLake : KvsMode::kSoftwareOnly;
  ScenarioSpec spec = MakeKvsScenarioSpec(options);
  spec.name = std::string(offload ? "lake" : "host") +
              (flow_on ? "-flow" : "-droptail");
  spec.members[0].host.config.num_cores = 1;
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = kOfferedPps;
  spec.workload.keyspace = kKeyspace;
  spec.workload.client.node = kTestbedClientNode;
  spec.flow.enabled = flow_on;
  // Engage host ingress pause well before the rx queue capacity (1024).
  spec.flow.host.pause_high_watermark = 64;
  spec.flow.host.pause_low_watermark = 16;
  // The pacer must not be the artificial bottleneck (the offered load is
  // the arrival process), and throttled overload defers at the source
  // instead of shedding there.
  spec.flow.dcqcn_config.line_rate_pps = 2.5e6;
  spec.flow.dcqcn_config.pacer_capacity = 1 << 20;
  return spec;
}

struct FlowRun {
  double achieved_pps = 0;
  double drop_fraction = 0;   // Chain drops (server rx + PCIe) / sent.
  double p99_us = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t chain_drops = 0;
  uint64_t pause_frames = 0;  // Host ingress pauses of the PCIe uplink.
  uint64_t cnps = 0;          // CNPs the host sent back to the client.
  double end_rate_pps = -1;   // Client DCQCN rate when the window closed.
};

FlowRun RunChain(bool offload, bool flow_on, bool quick) {
  Simulation sim(kSeed);
  ScenarioTestbed testbed(sim, OverloadSpec(offload, flow_on));
  auto* memcached = testbed.member_host_app_as<MemcachedServer>(0);
  for (uint64_t k = 0; k < kKeyspace; ++k) {
    memcached->store().Set(k, 64);
  }
  if (auto* lake = testbed.member_offload_app_as<LakeCache>(0)) {
    lake->WarmFill(0, kKeyspace, 64);
  }
  const SimDuration window = RunWindow(quick);
  sim.RunUntil(window);

  FlowRun run;
  LoadClient* client = testbed.client();
  Server* server = testbed.member(0).server;
  run.sent = client->sent();
  run.received = client->received();
  run.achieved_pps = static_cast<double>(run.received) / ToSeconds(window);
  run.p99_us = ToMicroseconds(static_cast<SimDuration>(client->latency().P99()));
  run.chain_drops = server->requests_dropped();
  if (Link* pcie = server->uplink()) {
    run.chain_drops += pcie->dropped_overflow(server);
  }
  run.drop_fraction =
      run.sent == 0 ? 0 : static_cast<double>(run.chain_drops) / run.sent;
  run.pause_frames = server->pause_frames_sent();
  run.cnps = server->cnps_sent();
  if (client->dcqcn() != nullptr) {
    run.end_rate_pps = client->dcqcn()->current_rate_pps();
  }
  return run;
}

void Print(const char* label, const FlowRun& r) {
  std::cout << label << ": goodput " << r.achieved_pps / 1000.0 << " kpps, drop fraction "
            << r.drop_fraction << " (" << r.chain_drops << "/" << r.sent
            << "), p99 " << r.p99_us << " us, pauses " << r.pause_frames
            << ", cnps " << r.cnps;
  if (r.end_rate_pps >= 0) {
    std::cout << ", dcqcn rate " << r.end_rate_pps / 1000.0 << " kpps";
  }
  std::cout << "\n";
}

// --check runs the short (quick) window.
int Run(bool check) {
  const bool quick = check;
  bench::PrintHeader("Backpressure under overload: drop-tail vs PFC + DCQCN",
                     "One overloaded client--NIC--host chain; flow control "
                     "converts silent rx-queue loss into pause propagation "
                     "and sender slowdown, and shifts the host-vs-offload "
                     "comparison.");

  std::cout << "offered load: " << kOfferedPps / 1000.0 << " kpps against a 1-core host ("
            << ToSeconds(RunWindow(quick)) << " s window)\n\n";

  const FlowRun host_drop = RunChain(/*offload=*/false, /*flow_on=*/false, quick);
  const FlowRun host_flow = RunChain(/*offload=*/false, /*flow_on=*/true, quick);
  std::cout << "backpressure leg (host-only chain):\n";
  Print("  drop-tail", host_drop);
  Print("  flow     ", host_flow);
  const double goodput_ratio =
      host_drop.achieved_pps == 0 ? 0 : host_flow.achieved_pps / host_drop.achieved_pps;
  std::cout << "  goodput ratio (flow / drop-tail): " << goodput_ratio << "\n\n";

  const FlowRun lake_drop = RunChain(/*offload=*/true, /*flow_on=*/false, quick);
  const FlowRun lake_flow = RunChain(/*offload=*/true, /*flow_on=*/true, quick);
  std::cout << "offload leg (LaKe FPGA absorbs the same load):\n";
  Print("  drop-tail", lake_drop);
  Print("  flow     ", lake_flow);
  const double slowdown_droptail =
      lake_drop.p99_us == 0 ? 0 : host_drop.p99_us / lake_drop.p99_us;
  const double slowdown_flow =
      lake_flow.p99_us == 0 ? 0 : host_flow.p99_us / lake_flow.p99_us;
  const double slowdown_shift =
      slowdown_droptail == 0 ? 0 : slowdown_flow / slowdown_droptail;
  std::cout << "  host-vs-offload p99 slowdown: drop-tail x" << slowdown_droptail
            << ", flow x" << slowdown_flow << " (shift x" << slowdown_shift << ")\n";

  if (!check) {
    return 0;
  }
  std::cout << "\n";
  bench::Check floors;
  floors.AtLeast("drop-tail drop fraction", host_drop.drop_fraction,
                 kMinDroptailDropFraction);
  floors.AtMost("flow-control chain drop fraction", host_flow.drop_fraction,
                kMaxFlowDropFraction);
  floors.AtLeast("host pause frames", static_cast<double>(host_flow.pause_frames),
                 kMinFlowPauseFrames);
  floors.AtLeast("CNPs sent", static_cast<double>(host_flow.cnps), kMinFlowCnps);
  floors.AtLeast("goodput ratio (flow / drop-tail)", goodput_ratio, kMinGoodputRatio);
  floors.AtLeast("host-vs-offload p99 slowdown (flow)", slowdown_flow, kMinFlowSlowdown);
  floors.AtLeast("slowdown shift (flow / drop-tail)", slowdown_shift, kMinSlowdownShift);
  floors.AtMost("offload chain drop fraction under flow", lake_flow.drop_fraction,
                kMaxOffloadFlowDropFraction);
  return floors.ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  if (!bench::ParseCheckFlag(argc, argv, &check)) {
    return 2;
  }
  return Run(check);
}
