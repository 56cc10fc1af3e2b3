// Quickstart: measure the power/performance trade-off of in-network
// computing with the declarative scenario API.
//
// Builds the paper's KVS testbed twice from struct-literal ScenarioSpecs —
// memcached in software, then LaKe on the FPGA NIC, both created by name
// ("kvs") through the AppRegistry — drives both with the same declarative
// workload, and prints throughput, latency and wall power side by side.
//
// Build & run:   cmake -B build -S . && cmake --build build -j
//                ./build/quickstart
#include <cstdio>
#include <memory>

#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/power/cpu_power.h"
#include "src/scenarios/scenario_spec.h"
#include "src/sim/simulation.h"

using namespace incod;

namespace {

struct Result {
  double kqps;
  double p50_us;
  double watts;
};

Result Run(bool offload, double offered_pps) {
  // 1. A deterministic simulation.
  Simulation sim(/*seed=*/42);

  // 2. The scenario, declaratively: nodes, target, app by registry name,
  //    and the workload. ScenarioTestbed wires the topology and attaches a
  //    wall power meter exactly as in the paper's setup.
  ScenarioSpec spec;
  spec.name = offload ? "kvs-lake" : "kvs-software";
  spec.host.config.name = "i7-server";
  spec.host.config.node = 1;
  spec.host.config.num_cores = 4;
  spec.host.config.power_curve = I7MemcachedCurve();
  spec.host.apps = {"kvs"};  // memcached, via the AppRegistry.
  // The paper's link calibration (same as the KVS testbed).
  spec.client_link = TestbedBuilder::TenGigLink(Nanoseconds(100));
  spec.target.pcie = TestbedBuilder::PcieLink(Nanoseconds(2500));
  if (offload) {
    spec.target.kind = ScenarioTargetKind::kFpgaNic;
    spec.target.name = "netfpga-lake";
    spec.target.device_node = 50;
    spec.target.app = "kvs";  // Same name, FPGA placement: LaKe.
  } else {
    spec.target.kind = ScenarioTargetKind::kConventionalNic;
  }
  spec.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
  spec.workload.rate_per_second = offered_pps;
  spec.workload.keyspace = 1000;

  ScenarioTestbed testbed(sim, spec);

  // 3. Warm stores so GETs hit (the workload client is already running).
  if (auto* memcached = testbed.host_app_as<MemcachedServer>()) {
    for (uint64_t k = 0; k < 1000; ++k) {
      memcached->store().Set(k, 64);
    }
  }
  if (auto* lake = testbed.offload_app_as<LakeCache>()) {
    lake->WarmFill(0, 1000, 64);
  }

  // 4. Warm up, then measure a steady-state window.
  sim.RunUntil(Milliseconds(100));
  LoadClient& client = *testbed.client();
  client.ResetStats();
  const SimTime start = sim.Now();
  sim.RunUntil(start + Milliseconds(200));

  return Result{
      static_cast<double>(client.received()) / 0.2 / 1000.0,
      ToMicroseconds(static_cast<SimDuration>(client.latency().P50())),
      testbed.meter().MeanWatts(start, sim.Now()),
  };
}

}  // namespace

int main() {
  std::printf("offered    | memcached (software)        | LaKe (in-network)\n");
  std::printf("kqps       | kqps   p50us   watts        | kqps   p50us   watts\n");
  for (double offered : {50e3, 150e3, 400e3, 800e3}) {
    const Result sw = Run(/*offload=*/false, offered);
    const Result hw = Run(/*offload=*/true, offered);
    std::printf("%-10.0f | %-6.1f %-7.2f %-12.1f | %-6.1f %-7.2f %-6.1f\n",
                offered / 1000.0, sw.kqps, sw.p50_us, sw.watts, hw.kqps, hw.p50_us,
                hw.watts);
  }
  std::printf(
      "\nThe paper's result in miniature: the software server is cheaper at\n"
      "idle, but past ~80 kqps the FPGA serves the same load at lower power\n"
      "and ~10x lower latency — which is why placement should be decided\n"
      "on demand (see examples/kvs_ondemand and examples/paxos_migration).\n");
  return 0;
}
