// Extension bench: the §9.2 "can this move to a Tofino?" question, answered.
//
// Runs the NetCache-style KVS cache and the switch DNS program on the ASIC
// model in front of a software server, measuring how much of the load the
// switch absorbs, the client latency split, and the marginal switch power —
// the §9.4 scenario where "the switch handl[es] just some of the requests,
// and the rest are handled by the host".
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/device/switch_asic.h"
#include "src/dns/nsd_server.h"
#include "src/dns/switch_dns.h"
#include "src/host/server.h"
#include "src/kvs/memcached_server.h"
#include "src/kvs/netcache.h"
#include "src/net/topology.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"
#include "src/workload/client.h"
#include "src/workload/dns_workload.h"
#include "src/workload/etc_workload.h"

namespace incod {
namespace {

struct KvRunResult {
  double hit_ratio;
  double server_kqps;
  double client_kqps;
  double p50_us;
  double switch_overhead_pct;
  double server_watts;
};

KvRunResult RunSwitchKvs(double rate_pps, double zipf_skew) {
  Simulation sim(61);
  Topology topo(sim);
  SwitchAsicConfig asic_config;
  asic_config.rate_window = Milliseconds(10);
  SwitchAsic sw(sim, asic_config);

  ServerConfig server_config;
  server_config.node = 1;
  server_config.power_curve = I7MemcachedCurve();
  Server server(sim, server_config);
  MemcachedServer memcached;
  server.BindApp(&memcached);
  for (uint64_t k = 0; k < 100000; ++k) {
    memcached.store().Set(k, 64);
  }

  KvSwitchCacheConfig cache_config;
  cache_config.kvs_service = 1;
  cache_config.cache_entries = 4096;
  cache_config.hot_threshold = 4;
  KvSwitchCache cache(cache_config);
  sw.LoadProgram(&cache);

  EtcWorkloadConfig etc_config;
  etc_config.kvs_service = 1;
  etc_config.key_population = 100000;
  etc_config.zipf_skew = zipf_skew;
  etc_config.get_fraction = 1.0;  // GET-only to isolate the cache effect.
  EtcWorkload etc(etc_config);
  LoadClient client(sim, LoadClientConfig{}, std::make_unique<ConstantArrival>(rate_pps),
                    etc.MakeFactory());
  Link* client_link = topo.ConnectToSwitch(&sw, &client, 100);
  client.SetUplink(client_link);
  Link* server_link = topo.ConnectToSwitch(&sw, &server, 1);
  server.SetUplink(server_link);

  client.Start();
  sim.RunUntil(Milliseconds(300));  // Warm the sketch + cache.
  client.ResetStats();
  const uint64_t server_before = server.requests_completed();
  const SimTime start = sim.Now();
  sim.RunUntil(start + Milliseconds(200));

  KvRunResult result;
  result.hit_ratio = cache.HitRatio();
  result.server_kqps =
      static_cast<double>(server.requests_completed() - server_before) / 0.2 / 1000.0;
  result.client_kqps = static_cast<double>(client.received()) / 0.2 / 1000.0;
  result.p50_us = ToMicroseconds(static_cast<SimDuration>(client.latency().P50()));
  result.switch_overhead_pct =
      100.0 * (sw.PowerWatts() / sw.ForwardingOnlyWatts() - 1.0);
  result.server_watts = server.PowerWatts();
  return result;
}

}  // namespace
}  // namespace incod

int main() {
  using namespace incod;
  bench::PrintHeader("Extension: in-switch KVS and DNS on the ASIC",
                     "NetCache-style cache and switch DNS fronting a "
                     "software server (§9.2/§9.4).");

  CsvTable kv({"zipf_skew", "offered_kqps", "switch_hit_ratio", "server_kqps",
               "client_kqps", "p50_us", "switch_overhead_pct", "server_watts"});
  for (double skew : {0.7, 0.99, 1.2}) {
    const auto r = RunSwitchKvs(800000, skew);
    kv.AddRow({skew, 800.0, r.hit_ratio, r.server_kqps, r.client_kqps, r.p50_us,
               r.switch_overhead_pct, r.server_watts});
  }
  kv.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  kv.WriteCsv(std::cout);
  std::cout << "\n(The skewed head lives in the switch: the hotter the "
               "workload, the more the server's load and power drop — "
               "'caching provides a large benefit in the common case' "
               "(§9.5). Efficiency of on-demand offload 'is a function of "
               "hit:miss ratio' (§9.4).)\n\n";

  // DNS on the ASIC: answered at line rate vs punted deep names.
  Simulation sim(62);
  Topology topo(sim);
  SwitchAsic sw(sim, SwitchAsicConfig{});
  Zone zone;
  zone.FillSynthetic(10000);
  DnsSwitchConfig dns_config;
  dns_config.dns_service = 1;
  DnsSwitchProgram dns(&zone, dns_config);
  sw.LoadProgram(&dns);

  ServerConfig host_config;
  host_config.node = 1;
  host_config.power_curve = I7NsdCurve();
  Server host(sim, host_config);
  NsdServer nsd(&zone);
  host.BindApp(&nsd);

  DnsWorkloadConfig workload;
  workload.dns_service = 1;
  workload.zone_size = 10000;
  LoadClient client(sim, LoadClientConfig{}, std::make_unique<ConstantArrival>(500000.0),
                    MakeDnsRequestFactory(workload));
  Link* client_link = topo.ConnectToSwitch(&sw, &client, 100);
  client.SetUplink(client_link);
  Link* host_link = topo.ConnectToSwitch(&sw, &host, 1);
  host.SetUplink(host_link);
  client.Start();
  sim.RunUntil(Milliseconds(300));

  CsvTable dns_table({"metric", "value"});
  dns_table.AddRow({std::string("answered in switch"),
                    static_cast<int64_t>(dns.answered())});
  dns_table.AddRow({std::string("punted to host (deep names)"),
                    static_cast<int64_t>(dns.punted_to_host())});
  dns_table.AddRow({std::string("host answered"), static_cast<int64_t>(nsd.answered())});
  dns_table.AddRow({std::string("client p50 us"),
                    ToMicroseconds(static_cast<SimDuration>(client.latency().P50()))});
  dns_table.WriteAligned(std::cout);
  std::cout << "\n(§9.2: DNS fits the switch; queries deeper than the parse "
               "budget fall back to the host as iterative requests.)\n";
  return 0;
}
