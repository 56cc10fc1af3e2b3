// Kernels of the traced run: each times one layer's public functions in
// isolation, so a per-layer host cost can be compared with what the same
// layer costs inside a workload.
//
//   ChurnKernel    Simulation::Schedule/Cancel/RunUntil on bench_engine's
//                  synthetic churn pattern (packet-like hops, same-tick
//                  bursts, ms timers, schedule+cancel pairs).
//   RoundKernel    ShardedSimulation rounds: 5 shards, 5 us lookahead, each
//                  shard posting one cross-shard record per 5 us window.
//   LinkKernel     Link::Send of 64 B packets at 1 Mpps over 10 GbE between
//                  two bench-owned sinks, fast path or PFC paced mode.
//   FactoryKernel  a workload RequestFactory called in a loop.
#ifndef INCOD_BENCH_SUITE_SUITE_KERNELS_H_
#define INCOD_BENCH_SUITE_SUITE_KERNELS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/net/link.h"
#include "src/sim/sharded.h"
#include "src/sim/simulation.h"
#include "src/workload/client.h"

namespace incod {
namespace suite {

struct KernelResult {
  double ns_per_op = 0;
  uint64_t ops = 0;
  bool ok = false;  // The kernel did the work it was asked to.
};

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

inline KernelResult Finish(std::chrono::steady_clock::time_point start, uint64_t ops,
                           bool ok) {
  return KernelResult{ops > 0 ? SecondsSince(start) * 1e9 / static_cast<double>(ops) : 0,
                      ops, ok};
}

// Each event drags a Packet-sized blob, as the real hot path does.
struct ChurnSource {
  Simulation* sim;
  uint64_t remaining;
  uint64_t state;  // Per-source LCG, so the pattern is engine-independent.
  unsigned char blob[112];

  void operator()() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 33;
    SimDuration gap = static_cast<SimDuration>(100 + r % 1500);
    if (r % 16 == 0) {
      gap = 0;
    } else if (r % 64 == 0) {
      gap = Milliseconds(static_cast<int64_t>(1 + r % 5));
    }
    if (r % 32 == 0) {
      const uint64_t id = sim->Schedule(gap + 50, [] {});
      sim->Cancel(id);
    }
    blob[r % sizeof(blob)]++;
    sim->Schedule(gap, *this);
  }
};

inline KernelResult ChurnKernel(int sources = 1024, uint64_t events_per_source = 1000) {
  Simulation sim(1);
  for (int i = 0; i < sources; ++i) {
    sim.Schedule(i, ChurnSource{&sim, events_per_source,
                                0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1), {}});
  }
  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(3600));
  const uint64_t events = sim.events_executed();
  const uint64_t expected = static_cast<uint64_t>(sources) * (events_per_source + 1);
  return Finish(start, events, events == expected && sim.pending_events() == 0);
}

// Returns host ns per 5 us simulated window (one conservative round).
inline KernelResult RoundKernel(int threads, SimDuration sim_time = Milliseconds(100)) {
  constexpr int kShards = 5;
  constexpr SimDuration kWindow = Microseconds(5);
  ShardedSimulation::Options options;
  options.num_shards = kShards;
  options.num_threads = threads;
  options.mode = ShardedSimulation::Mode::kParallel;
  ShardedSimulation sharded(options);
  sharded.RegisterCrossShardLatency(kWindow);
  struct Ping {
    ShardedSimulation* sharded;
    int shard;
    void operator()() const {
      Simulation& sim = sharded->shard(shard);
      sharded->PostCrossShard(shard, (shard + 1) % kShards, sim.Now() + kWindow, [] {});
      sim.Schedule(kWindow, *this);
    }
  };
  for (int i = 0; i < kShards; ++i) {
    sharded.shard(i).Schedule(0, Ping{&sharded, i});
  }
  const auto start = std::chrono::steady_clock::now();
  sharded.RunUntil(sim_time);
  const uint64_t windows = static_cast<uint64_t>(sim_time / kWindow);
  // Per window: one ping per shard and one delivered record per shard.
  const uint64_t events = sharded.events_executed();
  return Finish(start, windows, events >= 2 * kShards * windows);
}

class CountingSink final : public PacketSink {
 public:
  void Receive(Packet packet) override {
    (void)packet;
    ++received_;
  }
  std::string SinkName() const override { return "kernel-sink"; }
  uint64_t received() const { return received_; }

 private:
  uint64_t received_ = 0;
};

inline KernelResult LinkKernel(bool paced, uint64_t packets = 200000) {
  Simulation sim(1);
  Link::Config config;
  config.gigabits_per_second = 10.0;
  config.flow.pfc = paced;
  Link link(sim, config, "kernel");
  CountingSink a;
  CountingSink b;
  link.Connect(&a, &b);
  struct Source {
    Simulation* sim;
    Link* link;
    const PacketSink* from;
    uint64_t left;
    void operator()() {
      if (left == 0) {
        return;
      }
      --left;
      Packet packet;
      packet.size_bytes = 64;
      link->Send(from, packet);
      sim->Schedule(Microseconds(1), *this);
    }
  };
  sim.Schedule(0, Source{&sim, &link, &a, packets});
  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(Seconds(3600));
  return Finish(start, packets, b.received() == packets && link.delivered(&b) == packets);
}

inline KernelResult FactoryKernel(const RequestFactory& factory, uint64_t calls) {
  Rng rng(1);
  uint64_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t id = 1; id <= calls; ++id) {
    bytes += factory(100, id, 0, rng).size_bytes;
  }
  return Finish(start, calls, bytes >= calls);
}

}  // namespace suite
}  // namespace incod

#endif  // INCOD_BENCH_SUITE_SUITE_KERNELS_H_
