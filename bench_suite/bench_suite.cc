// bench_suite: the repository's benchmark.
//
// Runs one canonical workload (suite_workloads.h) for a fixed simulated
// duration per rep, as many reps as fit in --seconds (at least --reps).
// Every rep builds a fresh scenario, so setup is measured each time.
//
// End-to-end metrics (medians over reps, tracing off):
//   sim_pkts_per_ref_s simulated client-edge packets (requests sent +
//                     replies received) per host second of the timed
//                     RunUntil, scaled to a host where the reference loop
//                     (suite_reference.h) runs its nominal rate.
//   setup_s           host seconds to build, prefill and start a scenario.
//   peak_rss_mb       peak resident memory of this process.
//   sim_p50_us/p99_us merged client latency, simulated microseconds.
//   sim_goodput_kpps  replies per simulated second.
//   sim_reply_frac    replies / requests.
//
// --trace 1 adds the per-layer run: one rep whose RunUntil is cut into
// slices, kernels timing single layers, and (row4_parallel) single-queue and
// 1-thread references. It reports the per-layer metrics instead and, with
// --trace-out, writes the spans as Chrome trace-event JSON.
//
// Checks, every rep: each client's sent == received + lost + outstanding;
// every rep of the run yields the same sim_digest (a hash of every simulated
// counter and the latency histogram); row4_parallel's references match the
// parallel digest. A broken check makes `correct` false and the exit code 1.
//
// The last stdout line is one JSON object: correct, attempted (requests sent
// in one rep), failed (requests lost in one rep) and metrics.
//
// Usage: bench_suite --workload NAME [--seed N] [--seconds S] [--reps N]
//                    [--trace 0|1] [--trace-out PATH] [--out PATH]
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "suite_kernels.h"
#include "suite_reference.h"
#include "suite_trace.h"
#include "suite_workloads.h"

namespace incod {
namespace suite {
namespace {

using Mode = ShardedSimulation::Mode;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int reps = 3;
  bool trace = false;
  std::string trace_out;
  std::string out;
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool needs_trace;  // Host time from the traced run (kernels, references).
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sim_pkts_per_ref_s", "pkt/s", false}, {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},         {"sim_p50_us", "us", false},
      {"sim_p99_us", "us", false},          {"sim_goodput_kpps", "kpps", false},
      {"sim_reply_frac", "fraction", false},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sim.events", "count", false},
      {"sim.events_per_pkt", "event/pkt", false},
      {"sim.events_per_s", "event/s", false},
      {"sim.pkts_per_s", "pkt/s", false},
      {"sim.ref_events_per_s", "event/s", false},
      {"sim.host_ns_per_event", "ns", false},
      {"sim.churn_ns_per_event", "ns", true},
      {"sharded.speedup", "x", true},
      {"sharded.overhead_1t", "x", true},
      {"sharded.round_ns", "ns", true},
      {"net.delivered", "count", false},
      {"net.dropped", "count", false},
      {"net.pause_frames", "count", false},
      {"net.ecn_marked", "count", false},
      {"net.paused_deferred", "count", false},
      {"net.link_ns_per_pkt", "ns", true},
      {"net.link_paced_ns_per_pkt", "ns", true},
      {"device.fpga_hw_frac", "fraction", false},
      {"device.tor_consumed", "count", false},
      {"device.ring_drops", "count", false},
      {"device.interrupts", "count", false},
      {"device.doorbells", "count", false},
      {"host.received", "count", false},
      {"host.completed", "count", false},
      {"host.dropped", "count", false},
      {"host.irqs_serviced", "count", false},
      {"host.pause_frames", "count", false},
      {"host.cnps", "count", false},
      {"app.lake_hit_ratio", "fraction", false},
      {"app.dns_answered_host", "count", false},
      {"app.paxos_completed", "count", false},
      {"app.paxos_retries", "count", false},
      {"ondemand.decisions", "count", false},
      {"ondemand.shifts", "count", false},
      {"ondemand.warm_shifts", "count", false},
      {"power.mean_watts", "W", false},
      {"workload.sent", "count", false},
      {"workload.received", "count", false},
      {"workload.lost", "count", false},
      {"workload.outstanding_end", "count", false},
      {"workload.latency_n", "count", false},
      {"workload.etc_factory_ns", "ns", true},
      {"workload.dns_factory_ns", "ns", true},
      {"scenarios.build_s", "s", false},
      {"scenarios.prefill_s", "s", false},
      {"scenarios.start_s", "s", false},
      {"trace.overhead_frac", "fraction", true},
  };
  return kMetrics;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Simulation seed of a workload: its base seed mixed with the bench seed.
uint64_t SimSeed(uint64_t base, uint64_t seed) {
  uint64_t x = base * 0x9e3779b97f4a7c15ULL + seed;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Fnv {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Str(const std::string& s) {
    for (unsigned char c : s) {
      hash_ = (hash_ ^ c) * 0x100000001b3ULL;
    }
    U64(s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Hash of every simulated output of a rep: events, client ledgers, layer
// counters, metered energy and the latency histogram (count, extremes, mean
// and a dense quantile sweep).
uint64_t Digest(const Readout& r) {
  Fnv f;
  f.U64(r.events);
  for (const ClientTally& c : r.clients) {
    f.Str(c.name);
    f.U64(c.sent);
    f.U64(c.received);
    f.U64(c.lost);
    f.U64(c.outstanding);
  }
  for (const auto& [key, value] : r.counts) {
    f.Str(key);
    f.U64(value);
  }
  f.U64(std::bit_cast<uint64_t>(r.energy_joules));
  const Histogram& h = r.latency;
  f.U64(h.count());
  f.U64(h.min());
  f.U64(h.max());
  f.U64(std::bit_cast<uint64_t>(h.Mean()));
  for (int k = 1; k < 1000; ++k) {
    f.U64(h.ValueAtQuantile(k / 1000.0));
  }
  f.U64(h.ValueAtQuantile(0.9999));
  return f.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Quantile q of a latency histogram, interpolated by rank inside the bucket
// that holds it. ValueAtQuantile alone returns bucket midpoints, so a
// percentile moves in ~1.6% steps; interpolation gives a continuous value.
// Assumes the clients' default histogram geometry (6 significant bits:
// values below 128 exact, then 64 buckets per power of two).
double InterpolatedQuantile(const Histogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) {
    return 0;
  }
  const auto at_rank = [&h, n](uint64_t rank) {
    return h.ValueAtQuantile(static_cast<double>(rank) / static_cast<double>(n));
  };
  const double target = q * static_cast<double>(n);
  const uint64_t rank =
      std::clamp<uint64_t>(static_cast<uint64_t>(target + 0.5), 1, n);
  const uint64_t v = at_rank(rank);
  uint64_t lo = v;
  uint64_t width = 1;
  if (v >= 128) {
    const int shift = (63 - std::countl_zero(v)) - 6;
    lo = (v >> shift) << shift;
    width = uint64_t{1} << shift;
  }
  // First rank whose value reaches `bound` (n + 1 when none does).
  const auto first_rank_at_least = [&](uint64_t bound) {
    uint64_t a = 1;
    uint64_t b = n + 1;
    while (a < b) {
      const uint64_t mid = a + (b - a) / 2;
      if (at_rank(mid) >= bound) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    return a;
  };
  const uint64_t first = first_rank_at_least(lo);
  const uint64_t end = first_rank_at_least(lo + width);
  const double in_bucket = static_cast<double>(end - first);
  const double frac =
      std::clamp((target - static_cast<double>(first - 1)) / in_bucket, 0.0, 1.0);
  return static_cast<double>(lo) + frac * static_cast<double>(width);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

struct Rep {
  double build_s = 0;
  double prefill_s = 0;
  double start_s = 0;
  double run_s = 0;
  double ref_events_per_s = 0;  // Reference loop around the run (0: not measured).
  Readout readout;
  uint64_t digest = 0;

  double setup_s() const { return build_s + prefill_s + start_s; }
};

// Builds, prefills and starts one scenario; with slices > 0 also runs it for
// the workload's duration in that many RunUntil slices (one slice: plain
// run; more: the traced run, each slice span carrying counter deltas). A
// non-null `reference` is timed right before and after the run.
Rep RunRep(const WorkloadSpec& w, uint64_t seed, Mode mode, int threads, int slices,
           ReferenceLoop* reference, SpanRecorder& trace, int parent) {
  Rep rep;
  const int setup = trace.Begin("setup", parent);
  int span = trace.Begin("build", setup);
  std::unique_ptr<Instance> instance = MakeInstance(w, seed, mode, threads);
  trace.End(span);
  rep.build_s = trace.DurationSeconds(span);
  span = trace.Begin("prefill", setup);
  instance->Prefill();
  trace.End(span);
  rep.prefill_s = trace.DurationSeconds(span);
  span = trace.Begin("start", setup);
  instance->Start();
  trace.End(span);
  rep.start_s = trace.DurationSeconds(span);
  trace.End(setup);
  if (slices <= 0) {
    return rep;
  }

  const auto host_speed = [&] {
    const int span = trace.Begin("host_speed", parent);
    const double rate = reference->EventsPerSecond(0.05);
    trace.End(span, {{"ref_events_per_s", rate}});
    return rate;
  };
  const double ref_before = reference != nullptr ? host_speed() : 0;
  const int run = trace.Begin("run", parent);
  if (slices == 1) {
    instance->RunUntil(w.duration);
  } else {
    Readout before = instance->Read();
    for (int i = 1; i <= slices; ++i) {
      const int slice = trace.Begin("slice", run);
      instance->RunUntil(w.duration * i / slices);
      Readout after = instance->Read();
      const auto delta = [&](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
      trace.End(slice,
                {{"sim_time_s", ToSeconds(w.duration * i / slices)},
                 {"events", delta(before.events, after.events)},
                 {"packets", delta(before.EdgePackets(), after.EdgePackets())},
                 {"shifts",
                  delta(before.Count("ondemand.shifts"), after.Count("ondemand.shifts"))},
                 {"pause_frames", delta(before.Count("net.pause_frames"),
                                        after.Count("net.pause_frames"))}});
      before = std::move(after);
    }
  }
  trace.End(run);
  rep.run_s = trace.DurationSeconds(run);
  if (reference != nullptr) {
    rep.ref_events_per_s = std::sqrt(ref_before * host_speed());
  }

  const int verify = trace.Begin("verify", parent);
  rep.readout = instance->Read();
  rep.digest = Digest(rep.readout);
  trace.End(verify);
  return rep;
}

void CheckConservation(const Rep& rep, std::vector<std::string>& failures) {
  for (const ClientTally& c : rep.readout.clients) {
    if (c.sent != c.received + c.lost + c.outstanding) {
      failures.push_back("conservation: client " + c.name + " sent " +
                         std::to_string(c.sent) + " != received " +
                         std::to_string(c.received) + " + lost " + std::to_string(c.lost) +
                         " + outstanding " + std::to_string(c.outstanding));
    }
  }
  if (rep.readout.Received() == 0) {
    failures.push_back("no client received a reply");
  }
}

// Everything one invocation measured, before it is turned into metrics.
struct Measurement {
  std::vector<Rep> reps;        // Timed reps (index traced_rep is the traced one).
  int traced_rep = -1;
  std::vector<double> setup_s;  // Setup samples: every rep plus setup-only cycles.
  std::vector<double> build_s;
  std::vector<double> prefill_s;
  std::vector<double> start_s;
  std::map<std::string, double> kernel;      // Trace-only host-time metrics.
  std::map<std::string, double> ref_run_s;   // row4_parallel references' run walls.
  std::map<std::string, std::string> digests;
  std::vector<std::string> failures;
};

void AddSetupSample(Measurement& m, const Rep& rep) {
  m.setup_s.push_back(rep.setup_s());
  m.build_s.push_back(rep.build_s);
  m.prefill_s.push_back(rep.prefill_s);
  m.start_s.push_back(rep.start_s);
}

void RunKernels(int threads, SpanRecorder& trace, int parent, Measurement& m) {
  const int group = trace.Begin("kernels", parent);
  const auto record = [&](const std::string& metric, const auto& kernel) {
    const int span = trace.Begin(metric, group);
    const KernelResult result = kernel();
    trace.End(span, {{"ops", static_cast<double>(result.ops)},
                     {"ns_per_op", result.ns_per_op}});
    if (!result.ok) {
      m.failures.push_back("kernel " + metric + " did not complete its work");
    }
    m.kernel[metric] = result.ns_per_op;
  };
  record("sim.churn_ns_per_event", [] { return ChurnKernel(); });
  record("sharded.round_ns", [threads] { return RoundKernel(threads); });
  record("net.link_ns_per_pkt", [] { return LinkKernel(false); });
  record("net.link_paced_ns_per_pkt", [] { return LinkKernel(true); });
  record("workload.etc_factory_ns", [] {
    EtcWorkloadConfig config = MixedRack::EtcConfig();
    const EtcWorkload etc(config);
    return FactoryKernel(etc.MakeFactory(), 400000);
  });
  record("workload.dns_factory_ns", [] {
    DnsWorkloadConfig config;
    config.dns_service = kRackDnsServerNode;
    return FactoryKernel(MakeDnsRequestFactory(config), 100000);
  });
  trace.End(group);
}

Measurement Measure(const WorkloadSpec& w, const Args& args, int threads,
                    SpanRecorder& trace, int root) {
  Measurement m;
  const uint64_t seed = SimSeed(w.base_seed, args.seed);
  const auto started = std::chrono::steady_clock::now();

  if (args.trace) {
    RunKernels(threads, trace, root, m);
    if (w.sharded) {
      // Engine identity from outside: both references must reproduce the
      // parallel run's digest; their walls give the sharded speedup.
      const std::pair<const char*, Mode> refs[] = {{"single_queue", Mode::kSingleQueue},
                                                   {"parallel_1t", Mode::kParallel}};
      for (const auto& [name, mode] : refs) {
        const int span = trace.Begin(std::string("reference/") + name, root);
        const Rep ref = RunRep(w, seed, mode, 1, 1, nullptr, trace, span);
        trace.End(span);
        m.ref_run_s[name] = ref.run_s;
        m.digests[name] = Hex(ref.digest);
        CheckConservation(ref, m.failures);
      }
    }
  }

  ReferenceLoop reference;
  // Rep 1 is the traced one in a traced run; the rest run untraced.
  const int min_reps = std::max(args.reps, args.trace ? 3 : 1);
  std::vector<double> rep_walls;
  for (int i = 0;; ++i) {
    const double elapsed = SecondsSince(started);
    if (i >= min_reps && elapsed + Median(rep_walls) > args.seconds) {
      break;
    }
    const bool traced = args.trace && i == 1;
    const auto rep_started = std::chrono::steady_clock::now();
    const int span = trace.Begin(traced ? "rep/traced" : "rep", root);
    Rep rep = RunRep(w, seed, Mode::kParallel, threads, traced ? w.trace_slices : 1,
                     &reference, trace, span);
    trace.End(span);
    rep_walls.push_back(SecondsSince(rep_started));
    CheckConservation(rep, m.failures);
    AddSetupSample(m, rep);
    if (traced) {
      m.traced_rep = i;
    }
    m.reps.push_back(std::move(rep));
  }

  // Setup takes milliseconds; sample it more often for a steady median.
  for (int i = static_cast<int>(m.setup_s.size()); i < 25; ++i) {
    const int span = trace.Begin("setup_only", root);
    AddSetupSample(m, RunRep(w, seed, Mode::kParallel, threads, 0, nullptr, trace, span));
    trace.End(span);
  }

  const uint64_t digest = m.reps.front().digest;
  m.digests["run"] = Hex(digest);
  for (size_t i = 0; i < m.reps.size(); ++i) {
    if (m.reps[i].digest != digest) {
      m.failures.push_back("determinism: rep " + std::to_string(i) + " digest " +
                           Hex(m.reps[i].digest) + " != rep 0 digest " + Hex(digest));
    }
  }
  for (const auto& [name, ref_digest] : m.digests) {
    if (ref_digest != Hex(digest)) {
      m.failures.push_back("engine identity: " + name + " digest " + ref_digest +
                           " != run digest " + Hex(digest));
    }
  }
  return m;
}

// Medians over the untraced timed reps.
struct RepMedians {
  double run_s = 0;
  double pkts_per_s = 0;      // Raw: client-edge packets per host second.
  double pkts_per_ref_s = 0;  // Scaled to the reference loop's nominal rate.
  double ref_events_per_s = 0;
};

double PktsPerS(const Rep& rep) {
  return Ratio(static_cast<double>(rep.readout.EdgePackets()), rep.run_s);
}

double PktsPerRefS(const Rep& rep) {
  return PktsPerS(rep) * Ratio(ReferenceLoop::kNominalEventsPerSecond, rep.ref_events_per_s);
}

RepMedians UntracedMedians(const Measurement& m) {
  std::vector<double> run_s, raw, scaled, ref;
  for (size_t i = 0; i < m.reps.size(); ++i) {
    if (static_cast<int>(i) == m.traced_rep) {
      continue;
    }
    const Rep& rep = m.reps[i];
    run_s.push_back(rep.run_s);
    raw.push_back(PktsPerS(rep));
    scaled.push_back(PktsPerRefS(rep));
    ref.push_back(rep.ref_events_per_s);
  }
  return {Median(run_s), Median(raw), Median(scaled), Median(ref)};
}

std::map<std::string, double> EndToEnd(const WorkloadSpec& w, const Measurement& m) {
  const Readout& r = m.reps.front().readout;
  return {
      {"sim_pkts_per_ref_s", UntracedMedians(m).pkts_per_ref_s},
      {"setup_s", Median(m.setup_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"sim_p50_us", InterpolatedQuantile(r.latency, 0.50) / 1e3},
      {"sim_p99_us", InterpolatedQuantile(r.latency, 0.99) / 1e3},
      {"sim_goodput_kpps", static_cast<double>(r.Received()) / ToSeconds(w.duration) / 1e3},
      {"sim_reply_frac", Ratio(static_cast<double>(r.Received()), static_cast<double>(r.Sent()))},
  };
}

std::map<std::string, double> PerLayer(const WorkloadSpec& w, const Measurement& m) {
  const Readout& r = m.reps.front().readout;
  const RepMedians medians = UntracedMedians(m);
  const double run_s = medians.run_s;
  const auto count = [&r](const std::string& key) { return static_cast<double>(r.Count(key)); };
  std::map<std::string, double> v = {
      {"sim.events", static_cast<double>(r.events)},
      {"sim.events_per_pkt",
       Ratio(static_cast<double>(r.events), static_cast<double>(r.EdgePackets()))},
      {"sim.events_per_s", Ratio(static_cast<double>(r.events), run_s)},
      {"sim.host_ns_per_event", Ratio(run_s * 1e9, static_cast<double>(r.events))},
      {"sim.pkts_per_s", medians.pkts_per_s},
      {"sim.ref_events_per_s", medians.ref_events_per_s},
      {"device.fpga_hw_frac",
       Ratio(count("device.fpga_hw"), count("device.fpga_hw") + count("device.fpga_to_host"))},
      {"app.lake_hit_ratio",
       Ratio(count("app.lake_hits"), count("app.lake_hits") + count("app.lake_misses"))},
      {"power.mean_watts", r.energy_joules / ToSeconds(w.duration)},
      {"workload.sent", static_cast<double>(r.Sent())},
      {"workload.received", static_cast<double>(r.Received())},
      {"workload.lost", static_cast<double>(r.Lost())},
      {"workload.outstanding_end", static_cast<double>(r.Outstanding())},
      {"workload.latency_n", static_cast<double>(r.latency.count())},
      {"scenarios.build_s", Median(m.build_s)},
      {"scenarios.prefill_s", Median(m.prefill_s)},
      {"scenarios.start_s", Median(m.start_s)},
  };
  for (const char* key :
       {"net.delivered", "net.dropped", "net.pause_frames", "net.ecn_marked",
        "net.paused_deferred", "device.tor_consumed", "device.ring_drops",
        "device.interrupts", "device.doorbells", "host.received", "host.completed",
        "host.dropped", "host.irqs_serviced", "host.pause_frames", "host.cnps",
        "app.dns_answered_host", "app.paxos_completed", "app.paxos_retries",
        "ondemand.decisions", "ondemand.shifts", "ondemand.warm_shifts"}) {
    v[key] = count(key);
  }
  if (m.traced_rep >= 0) {
    for (const auto& [key, value] : m.kernel) {
      v[key] = value;
    }
    // Zero where the workload does not run the sharded engine.
    const bool sharded = !m.ref_run_s.empty();
    v["sharded.speedup"] = sharded ? Ratio(m.ref_run_s.at("single_queue"), run_s) : 0;
    v["sharded.overhead_1t"] =
        sharded ? Ratio(m.ref_run_s.at("parallel_1t"), m.ref_run_s.at("single_queue")) : 0;
    // Compared at reference host speed, like the end-to-end throughput.
    v["trace.overhead_frac"] =
        Ratio(medians.pkts_per_ref_s, PktsPerRefS(m.reps[static_cast<size_t>(m.traced_rep)])) -
        1;
  }
  return v;
}

void WriteMetrics(std::ostream& out, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values, bool include_trace) {
  bool first = true;
  for (const MetricDef& def : defs) {
    if (def.needs_trace && !include_trace) {
      continue;
    }
    out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
        << JsonNumber(values.at(def.name)) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
}

int RunWorkload(const WorkloadSpec& w, const Args& args) {
  const int hardware = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = w.sharded ? std::min(4, hardware) : 1;
  SpanRecorder trace(w.name);
  const int root = trace.Begin("workload/" + w.name, -1);
  Measurement m = Measure(w, args, threads, trace, root);
  trace.End(root);

  const std::map<std::string, double> e2e = EndToEnd(w, m);
  const std::map<std::string, double> layer = PerLayer(w, m);
  const Readout& r = m.reps.front().readout;
  const bool correct = m.failures.empty();
  for (const std::string& failure : m.failures) {
    std::cerr << w.name << ": CHECK FAILED: " << failure << "\n";
  }

  const std::vector<MetricDef>& shown = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  const std::map<std::string, double>& shown_values = args.trace ? layer : e2e;
  for (const MetricDef& def : shown) {
    std::cout << w.name << " " << def.name << " " << JsonNumber(shown_values.at(def.name))
              << " " << def.unit << "\n";
  }
  std::cout << w.name << " reps " << m.reps.size() << ", sim_digest " << m.digests["run"]
            << ", " << (correct ? "all checks passed" : "CHECKS FAILED") << "\n";

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"bench\": \"bench_suite\", \"seed\": " << args.seed
        << ", \"seconds\": " << JsonNumber(args.seconds) << ", \"build_type\": \""
        << SUITE_BUILD_TYPE << "\", \"nproc\": " << hardware << ",\n \"workloads\": {\""
        << w.name << "\": {\n  \"correct\": " << (correct ? "true" : "false")
        << ", \"sim_digest\": \"" << m.digests["run"] << "\", \"sim_seed\": "
        << SimSeed(w.base_seed, args.seed) << ", \"sim_seconds\": "
        << JsonNumber(ToSeconds(w.duration)) << ", \"threads\": " << threads
        << ", \"reps\": " << m.reps.size() << ", \"traced\": " << (args.trace ? "true" : "false")
        << ", \"attempted\": " << r.Sent() << ", \"failed\": " << r.Lost() << ",\n  \"digests\": {";
    bool first = true;
    for (const auto& [name, digest] : m.digests) {
      out << (first ? "" : ", ") << "\"" << name << "\": \"" << digest << "\"";
      first = false;
    }
    out << "},\n  \"checks_failed\": [";
    for (size_t i = 0; i < m.failures.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << m.failures[i] << "\"";
    }
    out << "],\n  \"links_summed\": [";
    for (size_t i = 0; i < r.links.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << r.links[i] << "\"";
    }
    out << "],\n  \"rep_run_s\": [";
    for (size_t i = 0; i < m.reps.size(); ++i) {
      out << (i == 0 ? "" : ", ") << JsonNumber(m.reps[i].run_s);
    }
    out << "],\n  \"end_to_end\": {";
    WriteMetrics(out, EndToEndMetrics(), e2e, true);
    out << "},\n  \"per_layer\": {";
    WriteMetrics(out, PerLayerMetrics(), layer, args.trace);
    out << "}}}}\n";
    if (!out) {
      std::cerr << "cannot write " << args.out << "\n";
      return 1;
    }
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    trace.WriteChromeTrace(out);
    if (!out) {
      std::cerr << "cannot write " << args.trace_out << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.Sent() << ", \"failed\": " << r.Lost()
            << ", \"metrics\": {";
  WriteMetrics(std::cout, shown, shown_values, true);
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

int Usage(const std::string& error) {
  std::cerr << "bench_suite: " << error << "\n"
            << "usage: bench_suite --workload NAME [--seed N] [--seconds S] [--reps N]\n"
            << "                   [--trace 0|1] [--trace-out PATH] [--out PATH]\n"
            << "workloads:";
  for (const WorkloadSpec& w : Workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace suite
}  // namespace incod

int main(int argc, char** argv) {
  using namespace incod::suite;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--reps") {
      args.reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage("bad number for " + flag + ": " + value);
    }
  }
  if (args.reps < 1 || args.seconds < 0) {
    return Usage("--reps must be >= 1 and --seconds >= 0");
  }
  const WorkloadSpec* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    return Usage(args.workload.empty() ? "--workload is required"
                                       : "unknown workload " + args.workload);
  }
  try {
    return RunWorkload(*workload, args);
  } catch (const std::exception& e) {
    std::cerr << "bench_suite: " << e.what() << "\n";
    return 1;
  }
}
