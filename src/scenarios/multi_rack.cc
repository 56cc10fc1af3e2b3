#include "src/scenarios/multi_rack.h"

#include <string>
#include <utility>

#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/power/cpu_power.h"

namespace incod {

RowSpec MakeMultiRackRowSpec(const MultiRackOptions& options) {
  RowSpec row;
  row.name = "multi-rack";
  row.zone_size = options.zone_size;
  row.inter_rack_propagation = options.inter_rack_propagation;
  row.uplink_gigabits_per_second = options.uplink_gigabits_per_second;

  for (int r = 0; r < options.num_racks; ++r) {
    RowRackSpec rack;
    ScenarioSpec& spec = rack.scenario;
    spec.name = "rack-" + std::to_string(r);
    spec.meter_period = options.meter_period;
    spec.tor.present = true;
    spec.tor.asic = false;  // Plain L2 ToR; the spine handles inter-rack.
    spec.tor.name = "tor-" + std::to_string(r);

    {
      ScenarioMemberSpec kvs;
      kvs.name = "kvs";
      kvs.link_name = "kvs-10ge";
      kvs.host.config.name = spec.name + "-kvs-host";
      kvs.host.config.node = KvsHostNode(r);
      kvs.host.config.num_cores = 4;
      kvs.host.config.power_curve = I7MemcachedCurve();
      kvs.host.apps = {"kvs"};
      kvs.target.kind = ScenarioTargetKind::kFpgaNic;
      kvs.target.name = spec.name + "-lake";
      kvs.target.device_node = KvsDeviceNode(r);
      kvs.target.app = "kvs";
      kvs.switch_routes = {KvsHostNode(r), KvsDeviceNode(r)};
      spec.members.push_back(std::move(kvs));
    }
    {
      ScenarioMemberSpec dns;
      dns.name = "dns";
      dns.link_name = "dns-10ge";
      dns.host.config.name = spec.name + "-dns-host";
      dns.host.config.node = DnsHostNode(r);
      dns.host.config.num_cores = 4;
      dns.host.config.power_curve = I7NsdCurve();
      dns.host.apps = {"dns"};
      dns.target.kind = ScenarioTargetKind::kConventionalNic;
      dns.switch_routes = {DnsHostNode(r)};
      dns.env.service = DnsHostNode(r);
      spec.members.push_back(std::move(dns));
    }

    {
      // Uniform gets split between the local rack's server and the next
      // rack's. The cross-rack decision consumes one extra draw per request
      // in *every* mode, so sharded and single-queue runs stay
      // stream-identical.
      RowClientSpec kvs_client;
      kvs_client.client.node = KvsClientNode(r);
      kvs_client.rate_per_second = options.kvs_rate_per_second;
      kvs_client.workload.kind = ScenarioWorkloadSpec::Kind::kKvUniformGets;
      kvs_client.workload.keyspace = options.keyspace;
      kvs_client.workload.cross_service = KvsHostNode((r + 1) % options.num_racks);
      kvs_client.workload.cross_fraction = kCrossRackFraction;
      kvs_client.service = KvsHostNode(r);
      rack.clients.push_back(std::move(kvs_client));
    }
    {
      RowClientSpec dns_client;
      dns_client.client.node = DnsClientNode(r);
      dns_client.rate_per_second = options.dns_rate_per_second;
      dns_client.workload.kind = ScenarioWorkloadSpec::Kind::kDnsQueries;
      dns_client.service = DnsHostNode(r);
      rack.clients.push_back(std::move(dns_client));
    }

    row.racks.push_back(std::move(rack));
  }
  return row;
}

void PrefillMultiRack(RowScenario& row, const MultiRackOptions& options) {
  for (int r = 0; r < row.num_racks(); ++r) {
    auto* memcached = row.rack(r).member_host_app_as<MemcachedServer>(0);
    auto* lake = row.rack(r).member_offload_app_as<LakeCache>(0);
    for (uint64_t k = 0; k < options.prefill; ++k) {
      memcached->store().Set(k, options.value_bytes);
    }
    lake->WarmFill(0, options.prefill, options.value_bytes);
  }
}

}  // namespace incod
