// Multi-rack fabric: N identical KVS+DNS racks behind one spine switch.
//
// The scale-out scenario the sharded engine is built for: each rack is a
// self-contained ScenarioTestbed (plain L2 ToR, a KVS member with an active
// LaKe FPGA NIC, a DNS member on a conventional NIC, and both load clients)
// living in its own shard, and the spine switch gets a shard of its own.
// The only cross-shard links are the rack uplinks, whose propagation delay
// (microseconds of fiber between racks) is exactly the conservative
// lookahead the parallel engine synchronizes on — racks simulate
// independently between uplink-latency-sized rounds.
//
// A fixed fraction (kCrossRackFraction) of each rack's KVS gets target the
// *next* rack's server (cross-rack traffic through ToR default routes and the
// spine), so the shards genuinely exchange events rather than running N
// disjoint simulations.
//
// MakeMultiRackRowSpec builds the declarative RowSpec; RowScenario does all
// the wiring (over options.num_racks + 1 shards: one per rack plus the
// spine) and PrefillMultiRack loads the KVS members:
//
//   RowScenario row(sharded, MakeMultiRackRowSpec(options));
//   PrefillMultiRack(row, options);
//   row.Start();
#ifndef INCOD_SRC_SCENARIOS_MULTI_RACK_H_
#define INCOD_SRC_SCENARIOS_MULTI_RACK_H_

#include "src/row/row_scenario.h"
#include "src/row/row_spec.h"
#include "src/scenarios/scenario_spec.h"

namespace incod {

// Fraction of each rack's KVS gets addressed to the next rack's server.
inline constexpr double kCrossRackFraction = 0.05;

struct MultiRackOptions {
  int num_racks = 4;
  double kvs_rate_per_second = 500000;
  double dns_rate_per_second = 250000;
  uint64_t keyspace = 4000;
  uint64_t prefill = 4000;
  uint32_t value_bytes = 64;
  size_t zone_size = 2000;
  // Inter-rack fiber: the rack uplinks' propagation delay, and therefore
  // the engine lookahead. Must be > 0.
  SimDuration inter_rack_propagation = Microseconds(5);
  double uplink_gigabits_per_second = 40.0;
  SimDuration meter_period = Milliseconds(1);
};

// Rack node addresses: rack r owns [1000r, 1000r + 999].
constexpr NodeId KvsHostNode(int rack) { return 1000 * rack + 1; }
constexpr NodeId DnsHostNode(int rack) { return 1000 * rack + 2; }
constexpr NodeId KvsDeviceNode(int rack) { return 1000 * rack + 50; }
constexpr NodeId KvsClientNode(int rack) { return 1000 * rack + 100; }
constexpr NodeId DnsClientNode(int rack) { return 1000 * rack + 101; }

// The declarative form of the scenario above: N rack ScenarioSpecs (KVS
// member with an active LaKe FPGA, DNS member on a conventional NIC) plus
// per-rack KVS/DNS clients, with each KVS client's workload sending
// kCrossRackFraction of its gets to the next rack's server. Callers
// customise the racks (orchestration, faults, ToR programs) before building.
RowSpec MakeMultiRackRowSpec(const MultiRackOptions& options);

// Fills every rack's KVS member (member 0): keys [0, options.prefill) of
// options.value_bytes in the memcached store and warm in the LaKe cache.
void PrefillMultiRack(RowScenario& row, const MultiRackOptions& options);

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_MULTI_RACK_H_
