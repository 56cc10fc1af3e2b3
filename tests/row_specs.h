// RowSpec literals shared by row_test and engine_diff_test.
#ifndef INCOD_TESTS_ROW_SPECS_H_
#define INCOD_TESTS_ROW_SPECS_H_

#include <string>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/row/row_spec.h"
#include "src/scenarios/multi_rack.h"

namespace incod {

// The multi-rack KVS+DNS row with every rack's KVS member orchestrated under
// a global power budget, on fast (2 ms) control cadences.
inline RowSpec OrchestratedRowSpec(int num_racks, double budget_watts) {
  MultiRackOptions options;
  options.num_racks = num_racks;
  options.kvs_rate_per_second = 150000;
  options.dns_rate_per_second = 75000;
  options.prefill = 1000;
  options.keyspace = 1000;
  RowSpec row = MakeMultiRackRowSpec(options);
  for (RowRackSpec& rack : row.racks) {
    // The orchestrator decides placement; the spec's FPGA starts parked and
    // gets a rack-local fault name shared across racks so correlated waves
    // can address "lake" in every rack at once.
    rack.scenario.members[0].target.initially_active = false;
    rack.scenario.members[0].target.name = "lake";
    rack.orchestrator.check_period = Milliseconds(2);
    rack.orchestrator.min_dwell = Milliseconds(2);
    rack.orchestrator.sample_period = Milliseconds(2);
    rack.orchestrator.heartbeat_period = Milliseconds(1);
    rack.orchestrator.checkpoint_period = Milliseconds(2);
    RowAppSpec app;
    app.member = 0;
    rack.apps.push_back(app);
  }
  row.power.global_budget_watts = budget_watts;
  row.power.report_period = Milliseconds(2);
  row.power.apportion_period = Milliseconds(5);
  row.power.sample_period = Milliseconds(2);
  row.power.min_rack_watts = 5;
  return row;
}

// The §9.3 trace-driven rack as a one-rack row: an ASIC ToR and two
// registry members (kvs, dns), each a host plus a parked FPGA, driven by
// 150 kpps of Poisson load apiece. The Google trace has one node per app,
// so each task's background load lands on exactly one member host.
inline RowSpec TraceRowSpec() {
  RowSpec row;
  row.name = "trace-row";
  RowRackSpec rack;
  ScenarioSpec& spec = rack.scenario;
  spec.name = "trace-rack";
  spec.tor.present = true;
  spec.tor.asic = true;
  spec.tor.name = "trace-tor";
  spec.tor.metered = true;

  const std::pair<const char*, ScenarioWorkloadSpec::Kind> apps[] = {
      {"kvs", ScenarioWorkloadSpec::Kind::kKvUniformGets},
      {"dns", ScenarioWorkloadSpec::Kind::kDnsQueries}};
  for (size_t i = 0; i < 2; ++i) {
    const std::string name = apps[i].first;
    const NodeId host_node = 1 + static_cast<NodeId>(i);
    ScenarioMemberSpec member;
    member.name = name;
    member.link_name = name + "-10ge";
    member.host.config.name = name + "-host";
    member.host.config.node = host_node;
    member.host.config.num_cores = 4;
    member.host.config.power_curve = I7SyntheticCurve();
    member.host.apps = {name};
    member.target.kind = ScenarioTargetKind::kFpgaNic;
    member.target.name = name + "-netfpga";
    member.target.device_node = 50 + static_cast<NodeId>(i);
    member.target.app = name;
    member.target.initially_active = false;  // The migrator parks it.
    member.switch_routes = {host_node, member.target.device_node};
    spec.members.push_back(std::move(member));

    RowAppSpec app;
    app.member = i;
    rack.apps.push_back(app);

    RowClientSpec client;
    client.client.node = 100 + static_cast<NodeId>(i);
    client.rate_per_second = 150000;
    client.workload.kind = apps[i].second;
    client.service = host_node;
    rack.clients.push_back(std::move(client));
  }
  row.racks.push_back(std::move(rack));

  row.trace.enabled = true;
  row.trace.trace = {.num_tasks = 4000, .num_nodes = 2};
  return row;
}

}  // namespace incod

#endif  // INCOD_TESTS_ROW_SPECS_H_
