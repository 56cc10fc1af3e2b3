// ShardedSimulation unit tests: parallel mode must be event-identical to
// the single-queue reference — same per-shard execution traces, same
// cross-shard tie-breaking, same cancel decisions, same RNG streams.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/sharded.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

using Mode = ShardedSimulation::Mode;
using Trace = std::vector<std::pair<SimTime, uint64_t>>;

constexpr SimDuration kLookahead = Microseconds(1);

ShardedSimulation::Options MakeOptions(Mode mode, int shards, int threads,
                                       uint64_t seed = 5) {
  ShardedSimulation::Options options;
  options.num_shards = shards;
  options.num_threads = threads;
  options.mode = mode;
  options.seed = seed;
  return options;
}

// Self-expanding churn that hops shards: every event records (Now, tag) into
// its shard's trace, schedules local children at 0..2us gaps, and posts a
// cross-shard child to the next shard at now + L + jitter. Identical logic
// in both modes => per-shard traces must match exactly.
struct HopDriver {
  ShardedSimulation* ssim;
  int shard;
  std::vector<Trace>* traces;
  uint64_t state;
  uint64_t tag;
  int depth;

  void operator()() {
    Simulation& sim = ssim->shard(shard);
    (*traces)[static_cast<size_t>(shard)].push_back({sim.Now(), tag});
    if (depth >= 5) {
      return;
    }
    uint64_t s = state;
    const auto next = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    const uint64_t locals = next() % 3;
    for (uint64_t c = 0; c < locals; ++c) {
      sim.Schedule(static_cast<SimDuration>(next() % 2000),
                   HopDriver{ssim, shard, traces, next(), tag * 31 + c + 1, depth + 1});
    }
    if (next() % 2 == 0) {
      const int dst = (shard + 1) % ssim->num_shards();
      const SimTime at = sim.Now() + kLookahead + static_cast<SimDuration>(next() % 1000);
      ssim->PostCrossShard(shard, dst, at,
                           HopDriver{ssim, dst, traces, next(), tag * 37 + 7, depth + 1});
    }
  }
};

std::vector<Trace> RunHopWorkload(Mode mode, int threads, uint64_t seed) {
  ShardedSimulation ssim(MakeOptions(mode, 4, threads, seed));
  ssim.RegisterCrossShardLatency(kLookahead);
  std::vector<Trace> traces(4);
  for (int shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 10; ++i) {
      ssim.shard(shard).Schedule(
          static_cast<SimDuration>(i * 137),
          HopDriver{&ssim, shard, &traces,
                    0x9e3779b97f4a7c15ULL * (seed + static_cast<uint64_t>(i) + 1),
                    static_cast<uint64_t>(shard * 1000 + i), 0});
    }
  }
  ssim.Run();
  EXPECT_EQ(ssim.pending_events(), 0u);
  return traces;
}

TEST(ShardedSimTest, CrossShardChurnIdenticalAcrossModes) {
  for (const uint64_t seed : {3u, 7u, 11u}) {
    const std::vector<Trace> reference = RunHopWorkload(Mode::kSingleQueue, 1, seed);
    size_t total = 0;
    for (const Trace& t : reference) {
      total += t.size();
    }
    ASSERT_GT(total, 200u) << "workload did not expand, seed " << seed;
    for (const int threads : {1, 2, 4}) {
      const std::vector<Trace> parallel = RunHopWorkload(Mode::kParallel, threads, seed);
      for (int shard = 0; shard < 4; ++shard) {
        const Trace& want = reference[static_cast<size_t>(shard)];
        const Trace& got = parallel[static_cast<size_t>(shard)];
        ASSERT_EQ(want.size(), got.size())
            << "shard " << shard << " threads " << threads << " seed " << seed;
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], got[i]) << "shard " << shard << " event " << i
                                     << " threads " << threads << " seed " << seed;
        }
      }
    }
  }
}

TEST(ShardedSimTest, SameTickDeliveriesOrderBySourceShardThenSendOrder) {
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    ShardedSimulation ssim(MakeOptions(mode, 3, 3));
    ssim.RegisterCrossShardLatency(kLookahead);
    const SimTime tick = Microseconds(2);
    std::vector<uint64_t> order;  // Executed in shard 0 only: no race.
    // Receiver-local events at the contested tick land first.
    ssim.shard(0).ScheduleAt(tick, [&order] { order.push_back(100); });
    ssim.shard(0).ScheduleAt(tick, [&order] { order.push_back(101); });
    // Sources post interleaved; arrival order must not matter.
    ssim.PostCrossShard(2, 0, tick, [&order] { order.push_back(200); });
    ssim.PostCrossShard(1, 0, tick, [&order] { order.push_back(110); });
    ssim.PostCrossShard(2, 0, tick, [&order] { order.push_back(201); });
    ssim.PostCrossShard(1, 0, tick, [&order] { order.push_back(111); });
    ssim.Run();
    const std::vector<uint64_t> want = {100, 101, 110, 111, 200, 201};
    EXPECT_EQ(order, want) << "mode " << static_cast<int>(mode);
  }
}

TEST(ShardedSimTest, LookaheadViolationThrows) {
  ShardedSimulation ssim(MakeOptions(Mode::kParallel, 2, 2));
  // No registered latency: any cross-shard post is a topology bug.
  EXPECT_THROW(ssim.PostCrossShard(0, 1, Microseconds(5), [] {}), std::logic_error);
  ssim.RegisterCrossShardLatency(kLookahead);
  // Under the lookahead bound: the receiver may already be past this time.
  EXPECT_THROW(ssim.PostCrossShard(0, 1, kLookahead - 1, [] {}), std::logic_error);
  ssim.PostCrossShard(0, 1, kLookahead, [] {});  // Exactly at the bound: fine.
  ssim.Run();
}

TEST(ShardedSimTest, ShardIndexOutOfRangeThrows) {
  for (const auto mode : {Mode::kSingleQueue, Mode::kParallel}) {
    ShardedSimulation ssim(MakeOptions(mode, 3, 2));
    EXPECT_THROW(ssim.shard(-1), std::out_of_range);
    EXPECT_THROW(ssim.shard(3), std::out_of_range);
    EXPECT_NO_THROW(ssim.shard(2));  // The last valid index.
  }
}

struct CancelOutcome {
  bool first = false;
  bool second = false;
  bool delivered = false;

  bool operator==(const CancelOutcome&) const = default;
};

// Posts a cancellable delivery to shard 1 at `deliver_at`, then attempts to
// cancel from shard 0 at `cancel_at` (and once more a tick later when
// `double_cancel`). Returns the cancel results and whether it still fired.
CancelOutcome RunCancelProbe(Mode mode, SimTime deliver_at, SimTime cancel_at,
                             bool double_cancel = false) {
  ShardedSimulation ssim(MakeOptions(mode, 2, 2));
  ssim.RegisterCrossShardLatency(kLookahead);
  CancelOutcome outcome;
  const auto id = ssim.PostCrossShardCancellable(
      0, 1, deliver_at, [&outcome] { outcome.delivered = true; });
  ssim.shard(0).ScheduleAt(cancel_at, [&ssim, id, &outcome] {
    outcome.first = ssim.CancelCrossShard(id);
  });
  if (double_cancel) {
    ssim.shard(0).ScheduleAt(cancel_at + 1, [&ssim, id, &outcome] {
      outcome.second = ssim.CancelCrossShard(id);
    });
  }
  ssim.RunUntil(deliver_at + Microseconds(5));
  return outcome;
}

TEST(ShardedSimTest, TimelyCrossShardCancelTakesEffect) {
  // Cancel at 5us against a 10us delivery: 5 + L <= 10, must succeed —
  // before the safe-horizon handoff ever sees the event.
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    const CancelOutcome outcome =
        RunCancelProbe(mode, Microseconds(10), Microseconds(5));
    EXPECT_EQ(outcome, (CancelOutcome{true, false, false}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ShardedSimTest, LateCrossShardCancelFailsAndDeliveryFires) {
  // Cancel at 2.5us against a 3us delivery: 2.5 + L > 3. The safe horizon
  // may already have handed the event to shard 1 (it may even have fired);
  // the conservative rule rejects the cancel identically in both modes.
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    const CancelOutcome outcome =
        RunCancelProbe(mode, Microseconds(3), Nanoseconds(2500));
    EXPECT_EQ(outcome, (CancelOutcome{false, false, true}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ShardedSimTest, CancelAfterDeliveryTimeFails) {
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    const CancelOutcome outcome =
        RunCancelProbe(mode, Microseconds(3), Microseconds(8));
    EXPECT_EQ(outcome, (CancelOutcome{false, false, true}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ShardedSimTest, DoubleCancelSecondAttemptFails) {
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    const CancelOutcome outcome = RunCancelProbe(mode, Microseconds(10),
                                                 Microseconds(5),
                                                 /*double_cancel=*/true);
    EXPECT_EQ(outcome, (CancelOutcome{true, false, false}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ShardedSimTest, RunUntilAdvancesEveryShardClock) {
  for (const Mode mode : {Mode::kSingleQueue, Mode::kParallel}) {
    ShardedSimulation ssim(MakeOptions(mode, 3, 3));
    ssim.RegisterCrossShardLatency(kLookahead);
    // Uneven load: shard 0 busy, shard 2 empty.
    for (int i = 0; i < 100; ++i) {
      ssim.shard(0).Schedule(Microseconds(i), [] {});
    }
    ssim.shard(1).Schedule(Microseconds(3), [] {});
    ssim.RunUntil(Milliseconds(1));
    EXPECT_EQ(ssim.Now(), Milliseconds(1));
    for (int shard = 0; shard < 3; ++shard) {
      EXPECT_EQ(ssim.shard(shard).Now(), Milliseconds(1))
          << "shard " << shard << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(ShardedSimTest, ShardRngStreamsIdenticalAcrossModes) {
  ShardedSimulation single(MakeOptions(Mode::kSingleQueue, 4, 1, 77));
  ShardedSimulation parallel(MakeOptions(Mode::kParallel, 4, 4, 77));
  for (int shard = 0; shard < 4; ++shard) {
    Rng a = single.shard(shard).rng().Fork();
    Rng b = parallel.shard(shard).rng().Fork();
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(a.NextU64(), b.NextU64()) << "shard " << shard << " draw " << i;
    }
  }
  // And the per-shard roots are genuinely distinct streams.
  Rng s0 = single.shard(0).rng().Fork();
  Rng s1 = single.shard(1).rng().Fork();
  EXPECT_NE(s0.NextU64(), s1.NextU64());
}

TEST(ShardedSimTest, EventsExecutedAggregatesAcrossModes) {
  for (const uint64_t seed : {5u}) {
    ShardedSimulation a(MakeOptions(Mode::kSingleQueue, 4, 1, seed));
    ShardedSimulation b(MakeOptions(Mode::kParallel, 4, 4, seed));
    for (ShardedSimulation* ssim : {&a, &b}) {
      ssim->RegisterCrossShardLatency(kLookahead);
      for (int shard = 0; shard < 4; ++shard) {
        for (int i = 0; i < 50; ++i) {
          ssim->shard(shard).Schedule(static_cast<SimDuration>(i * 100), [] {});
        }
      }
      ssim->Run();
    }
    EXPECT_EQ(a.events_executed(), 200u);
    EXPECT_EQ(a.events_executed(), b.events_executed());
    EXPECT_EQ(a.pending_events(), 0u);
    EXPECT_EQ(b.pending_events(), 0u);
  }
}

}  // namespace
}  // namespace incod
