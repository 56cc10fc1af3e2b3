// The benchmark suite's canonical workloads.
//
// Each workload is a scenario literal plus a uniform surface that
// bench_suite times phase by phase: construct (build), Prefill, Start,
// RunUntil, Read.
// Everything is measured from outside the simulator: Read() only calls
// public accessors, so the suite needs no hooks inside the program.
//
//   kvs_chain          client -> NetFPGA LaKe -> memcached host, every get an
//                      L1 hit: engine, link fast path and FPGA NIC only.
//   rack_ondemand      the mixed KVS+DNS+Paxos rack with its orchestrator
//                      and Paxos client running: the paper's on-demand loop.
//   rack_backpressure  the same rack driven through PFC/DCQCN and the
//                      mechanistic host NIC at ~2% over capacity.
//   row4_parallel      4 KVS+DNS racks + spine on the parallel sharded
//                      engine: the only workload that runs its rounds.
#ifndef INCOD_BENCH_SUITE_SUITE_WORKLOADS_H_
#define INCOD_BENCH_SUITE_SUITE_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/dns/nsd_server.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/lake.h"
#include "src/kvs/memcached_server.h"
#include "src/paxos/paxos_client.h"
#include "src/row/row_scenario.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/scenarios/multi_rack.h"
#include "src/scenarios/rack_scenario.h"
#include "src/sim/sharded.h"
#include "src/sim/simulation.h"
#include "src/stats/histogram.h"
#include "src/workload/dns_workload.h"
#include "src/workload/etc_workload.h"

namespace incod {
namespace suite {

// One client's request ledger. The Paxos client maps completed -> received
// and abandoned -> lost.
struct ClientTally {
  std::string name;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t lost = 0;
  uint64_t outstanding = 0;
};

// Every simulated quantity the suite reports, read from public accessors.
struct Readout {
  uint64_t events = 0;
  std::vector<ClientTally> clients;
  Histogram latency;  // Merged over every client (default geometry).
  // Per-layer counters keyed by metric name ("net.delivered", ...).
  std::map<std::string, uint64_t> counts;
  double energy_joules = 0;        // Summed wall-meter energy since build.
  std::vector<std::string> links;  // Links summed into net.*.

  uint64_t Count(const std::string& key) const {
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }
  uint64_t Sum(uint64_t ClientTally::*field) const {
    uint64_t n = 0;
    for (const ClientTally& c : clients) {
      n += c.*field;
    }
    return n;
  }
  uint64_t Sent() const { return Sum(&ClientTally::sent); }
  uint64_t Received() const { return Sum(&ClientTally::received); }
  uint64_t Lost() const { return Sum(&ClientTally::lost); }
  uint64_t Outstanding() const { return Sum(&ClientTally::outstanding); }
  // Client-edge packets: requests sent plus replies received.
  uint64_t EdgePackets() const { return Sent() + Received(); }
};

inline void AddClient(Readout& r, const std::string& name, const LoadClient& c) {
  r.clients.push_back({name, c.sent(), c.received(), c.lost(), c.outstanding()});
  r.latency.Merge(c.latency());
}

inline void AddPaxosClient(Readout& r, const PaxosClient& c) {
  r.clients.push_back({"paxos", c.sent(), c.completed(), c.timeouts_abandoned(),
                       c.outstanding()});
  r.latency.Merge(c.latency());
  r.counts["app.paxos_completed"] += c.completed();
  r.counts["app.paxos_retries"] += c.retries();
}

// Sums both directions of a link (a and b are its two endpoints).
inline void AddLink(Readout& r, const std::string& name, const Link* link,
                    const PacketSink* a, const PacketSink* b) {
  if (link == nullptr) {
    throw std::logic_error("suite: link " + name + " not found");
  }
  for (const PacketSink* toward : {a, b}) {
    r.counts["net.delivered"] += link->delivered(toward);
    r.counts["net.dropped"] += link->dropped_overflow(toward) +
                               link->dropped_link_down(toward) +
                               link->dropped_to_dead(toward);
    r.counts["net.pause_frames"] += link->pause_frames(toward);
    r.counts["net.ecn_marked"] += link->ecn_marked(toward);
    r.counts["net.paused_deferred"] += link->paused_deferred(toward);
  }
  r.links.push_back(name);
}

inline void AddServer(Readout& r, const Server& s) {
  r.counts["host.received"] += s.requests_received();
  r.counts["host.completed"] += s.requests_completed();
  r.counts["host.dropped"] += s.requests_dropped();
  r.counts["host.irqs_serviced"] += s.interrupts_serviced();
  r.counts["host.pause_frames"] += s.pause_frames_sent();
  r.counts["host.cnps"] += s.cnps_sent();
}

inline void AddFpga(Readout& r, const FpgaNic& f) {
  r.counts["device.fpga_hw"] += f.processed_in_hardware();
  r.counts["device.fpga_to_host"] += f.delivered_to_host();
}

inline void AddNic(Readout& r, const ConventionalNic& n) {
  r.counts["device.ring_drops"] += n.ring_drops();
  r.counts["device.interrupts"] += n.interrupts_raised();
  r.counts["device.doorbells"] += n.doorbells_rung();
}

inline void AddApps(Readout& r, ScenarioMember& m) {
  if (const auto* lake = dynamic_cast<const LakeCache*>(m.offload_app.get())) {
    r.counts["app.lake_hits"] += lake->l1_hits() + lake->l2_hits();
    r.counts["app.lake_misses"] += lake->misses_to_host();
  }
  for (const auto& app : m.host_apps) {
    if (const auto* nsd = dynamic_cast<const NsdServer*>(app.get())) {
      r.counts["app.dns_answered_host"] += nsd->answered();
    }
  }
}

// Everything hanging off a switch-centric testbed's ToR: member servers,
// devices and apps, the named member links and every server uplink.
inline void AddTorTestbed(Readout& r, ScenarioTestbed& testbed, const std::string& prefix) {
  Topology& topology = testbed.builder().topology();
  const PacketSink* tor = testbed.tor();
  for (size_t i = 0; i < testbed.member_count(); ++i) {
    ScenarioMember& m = testbed.member(i);
    const ScenarioMemberSpec& spec = testbed.spec().members.at(i);
    const PacketSink* device = nullptr;
    if (m.fpga != nullptr) {
      AddFpga(r, *m.fpga);
      device = m.fpga;
    } else if (m.nic != nullptr) {
      AddNic(r, *m.nic);
      device = m.nic;
    } else if (m.smartnic != nullptr) {
      device = m.smartnic;
    }
    if (device != nullptr) {
      AddLink(r, prefix + spec.link_name, topology.FindLink(spec.link_name), tor, device);
    }
    if (m.server != nullptr) {
      AddServer(r, *m.server);
      // Aux hosts hang straight off the ToR; the rest sit behind their NIC.
      AddLink(r, prefix + spec.name + "-uplink", m.server->uplink(),
              device != nullptr ? device : tor, m.server);
    }
    AddApps(r, m);
  }
  if (testbed.tor_asic() != nullptr) {
    r.counts["device.tor_consumed"] += testbed.tor_asic()->consumed_in_pipeline();
  }
  r.energy_joules += testbed.meter().EnergyJoules();
}

class Instance {
 public:
  virtual ~Instance() = default;
  virtual void Prefill() = 0;
  virtual void Start() = 0;
  virtual void RunUntil(SimTime t) = 0;
  virtual Readout Read() = 0;
};

inline RequestFactory UniformGets(NodeId service, uint64_t keys) {
  return [service, keys](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
    return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
}

// 1 Mpps of uniform gets over 1,000 prefilled keys; L1 holds them all, so
// every get is answered by LaKe and the host stays idle.
class KvsChain final : public Instance {
 public:
  static constexpr uint64_t kKeys = 1000;

  explicit KvsChain(uint64_t seed) : sim_(seed), testbed_(sim_, Options()) {
    client_ = &testbed_.AddClient(LoadClientConfig{},
                                  std::make_unique<PoissonArrival>(1000000.0),
                                  UniformGets(testbed_.ServiceNode(), kKeys));
  }

  static KvsTestbedOptions Options() {
    KvsTestbedOptions options;
    options.mode = KvsMode::kLake;
    options.lake.l1_entries = 1024;
    return options;
  }

  void Prefill() override { testbed_.Prefill(kKeys, 0); }
  void Start() override { client_->Start(); }
  void RunUntil(SimTime t) override { sim_.RunUntil(t); }

  Readout Read() override {
    Readout r;
    r.events = sim_.events_executed();
    AddClient(r, "kvs", *client_);
    FpgaNic* fpga = testbed_.fpga();
    Server* server = testbed_.server();
    AddLink(r, "client-10ge", testbed_.builder().topology().FindLink("client-10ge"),
            client_, fpga);
    AddLink(r, "pcie", server->uplink(), fpga, server);
    AddServer(r, *server);
    AddFpga(r, *fpga);
    r.counts["app.lake_hits"] += testbed_.lake()->l1_hits() + testbed_.lake()->l2_hits();
    r.counts["app.lake_misses"] += testbed_.lake()->misses_to_host();
    r.energy_joules = testbed_.meter().EnergyJoules();
    return r;
  }

 private:
  Simulation sim_;
  KvsTestbed testbed_;
  LoadClient* client_ = nullptr;
};

// The mixed rack's load. `orchestrate` starts the RackOrchestrator;
// kvs_step_at > 0 drops the (Poisson) KVS rate to kvs_step_pps at that time.
// constant_spacing replaces the KVS/DNS Poisson sources with evenly spaced
// ones (OSNT-style).
struct RackLoad {
  bool orchestrate = false;
  bool constant_spacing = false;
  double kvs_pps = 0;
  double dns_pps = 0;
  SimTime kvs_step_at = 0;
  double kvs_step_pps = 0;
};

class MixedRack final : public Instance {
 public:
  MixedRack(uint64_t seed, const MixedRackOptions& options, const RackLoad& load)
      : sim_(seed), etc_(EtcConfig()), rack_(sim_, options), load_(load) {
    kvs_ = &rack_.AddKvsClient(LoadClientConfig{}, Arrival(load_.kvs_pps), etc_.MakeFactory());
    DnsWorkloadConfig dns;
    dns.dns_service = kRackDnsServerNode;
    dns_ = &rack_.AddDnsClient(LoadClientConfig{}, Arrival(load_.dns_pps),
                               MakeDnsRequestFactory(dns));
  }

  std::unique_ptr<ArrivalProcess> Arrival(double pps) const {
    if (load_.constant_spacing) {
      return std::make_unique<ConstantArrival>(pps);
    }
    return std::make_unique<PoissonArrival>(pps);
  }

  static EtcWorkloadConfig EtcConfig() {
    EtcWorkloadConfig etc;
    etc.kvs_service = kRackKvsServerNode;
    etc.key_population = 10000;
    return etc;
  }

  // 120 W offload budget and 100 kpps of Paxos, shared by both rack
  // workloads; backpressure additionally turns on flow control and the
  // mechanistic host NIC.
  static MixedRackOptions Options(bool backpressure) {
    MixedRackOptions options;
    options.power_budget_watts = 120.0;
    options.paxos_client.requests_per_second = 100000;
    options.flow.enabled = backpressure;
    options.hostnic.enabled = backpressure;
    return options;
  }

  void Prefill() override { rack_.PrefillKvs(10000, 64); }

  void Start() override {
    if (load_.orchestrate) {
      rack_.orchestrator().Start();
    }
    kvs_->Start();
    dns_->Start();
    rack_.paxos_client()->Start();
    if (load_.kvs_step_at > 0) {
      auto* arrival = dynamic_cast<PoissonArrival*>(&kvs_->arrival());
      if (arrival == nullptr) {
        throw std::logic_error("suite: the KVS rate step needs a Poisson source");
      }
      const double rate = load_.kvs_step_pps;
      sim_.ScheduleAt(load_.kvs_step_at, [arrival, rate] { arrival->SetRate(rate); });
    }
  }

  void RunUntil(SimTime t) override { sim_.RunUntil(t); }

  Readout Read() override {
    Readout r;
    r.events = sim_.events_executed();
    AddClient(r, "kvs", *kvs_);
    AddClient(r, "dns", *dns_);
    AddPaxosClient(r, *rack_.paxos_client());
    AddTorTestbed(r, rack_.scenario(), "");
    const RackOrchestrator& orchestrator = rack_.orchestrator();
    r.counts["ondemand.decisions"] += orchestrator.decisions_evaluated();
    r.counts["ondemand.shifts"] += orchestrator.total_shifts();
    r.counts["ondemand.warm_shifts"] += orchestrator.warm_shifts();
    return r;
  }

 private:
  Simulation sim_;
  EtcWorkload etc_;  // Before rack_: its factory captures `this`.
  MixedRackScenario rack_;
  RackLoad load_;
  LoadClient* kvs_ = nullptr;
  LoadClient* dns_ = nullptr;
};

// MultiRackScenario's row (4 racks + spine, one shard each) built through
// RowScenario directly, so build, prefill and start time separately. The
// prefill and the client start order mirror MultiRackScenario exactly.
class Row4 final : public Instance {
 public:
  Row4(uint64_t seed, ShardedSimulation::Mode mode, int threads)
      : sim_(Engine(seed, mode, threads)), row_(sim_, MakeMultiRackRowSpec(options_)) {}

  static ShardedSimulation::Options Engine(uint64_t seed, ShardedSimulation::Mode mode,
                                           int threads) {
    ShardedSimulation::Options engine;
    engine.num_shards = MultiRackOptions{}.num_racks + 1;
    engine.num_threads = threads;
    engine.mode = mode;
    engine.seed = seed;
    return engine;
  }

  void Prefill() override {
    for (int r = 0; r < row_.num_racks(); ++r) {
      auto* memcached = row_.rack(r).member_host_app_as<MemcachedServer>(0);
      for (uint64_t k = 0; k < options_.prefill; ++k) {
        memcached->store().Set(k, options_.value_bytes);
      }
      row_.rack(r).member_offload_app_as<LakeCache>(0)->WarmFill(0, options_.prefill,
                                                                  options_.value_bytes);
    }
  }

  void Start() override {
    for (size_t client = 0; client < 2; ++client) {  // All KVS, then all DNS.
      for (int r = 0; r < row_.num_racks(); ++r) {
        row_.client(r, client).Start();
      }
    }
  }

  void RunUntil(SimTime t) override { sim_.RunUntil(t); }

  Readout Read() override {
    Readout r;
    r.events = sim_.events_executed();
    for (int rack = 0; rack < row_.num_racks(); ++rack) {
      const std::string prefix = "rack" + std::to_string(rack) + "/";
      AddClient(r, prefix + "kvs", row_.client(rack, 0));
      AddClient(r, prefix + "dns", row_.client(rack, 1));
      AddTorTestbed(r, row_.rack(rack), prefix);
      AddLink(r, "uplink-" + std::to_string(rack), &row_.uplink(rack), row_.rack(rack).tor(),
              &row_.spine());
    }
    return r;
  }

 private:
  MultiRackOptions options_;
  ShardedSimulation sim_;
  RowScenario row_;
};

struct WorkloadSpec {
  std::string name;
  uint64_t base_seed;
  SimDuration duration;  // Simulated time per rep.
  int trace_slices;      // RunUntil slices of the traced rep.
  bool sharded;
};

// row4_parallel gets fewer slices: every sharded RunUntil spawns and joins
// its worker threads.
inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"kvs_chain", 7, Seconds(5), 50, false},
      {"rack_ondemand", 11, Seconds(3), 50, false},
      {"rack_backpressure", 11, Milliseconds(600), 50, false},
      {"row4_parallel", 13, Seconds(1), 20, true},
  };
  return kWorkloads;
}

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

// `mode`/`threads` select the engine of sharded workloads only.
inline std::unique_ptr<Instance> MakeInstance(const WorkloadSpec& w, uint64_t seed,
                                              ShardedSimulation::Mode mode, int threads) {
  if (w.name == "kvs_chain") {
    return std::make_unique<KvsChain>(seed);
  }
  if (w.name == "rack_ondemand") {
    RackLoad load;
    load.orchestrate = true;
    load.kvs_pps = 300000;
    load.dns_pps = 300000;
    load.kvs_step_at = Milliseconds(1500);
    load.kvs_step_pps = 20000;
    return std::make_unique<MixedRack>(seed, MixedRack::Options(false), load);
  }
  if (w.name == "rack_backpressure") {
    // Evenly spaced: an overloaded Poisson source's backlog is a random walk,
    // which moved p50 latency by +-10% between seeds.
    RackLoad load;
    load.constant_spacing = true;
    load.kvs_pps = 900000;
    load.dns_pps = 900000;
    return std::make_unique<MixedRack>(seed, MixedRack::Options(true), load);
  }
  if (w.name == "row4_parallel") {
    return std::make_unique<Row4>(seed, mode, threads);
  }
  throw std::invalid_argument("suite: unknown workload " + w.name);
}

}  // namespace suite
}  // namespace incod

#endif  // INCOD_BENCH_SUITE_SUITE_WORKLOADS_H_
