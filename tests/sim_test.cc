// Tests for the discrete-event engine and RNG.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace incod {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Microseconds(1), 1000);
  EXPECT_EQ(Milliseconds(1), 1000 * 1000);
  EXPECT_EQ(Seconds(1), 1000 * 1000 * 1000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(Microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(Milliseconds(9)), 9.0);
}

TEST(TimeTest, SecondsFRounds) {
  EXPECT_EQ(SecondsF(1.0), Seconds(1));
  EXPECT_EQ(SecondsF(0.5e-9), 1);  // Rounds half up to 1 ns.
  EXPECT_EQ(SecondsF(1e-6), Microseconds(1));
}

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Microseconds(30), [&] { order.push_back(3); });
  sim.Schedule(Microseconds(10), [&] { order.push_back(1); });
  sim.Schedule(Microseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Microseconds(30));
}

TEST(SimulationTest, FifoTieBreakAtSameTime) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulationTest, NestedSchedulingAdvancesTime) {
  Simulation sim;
  SimTime inner_time = -1;
  sim.Schedule(Microseconds(10), [&] {
    sim.Schedule(Microseconds(5), [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, Microseconds(15));
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  bool ran = false;
  sim.Schedule(Microseconds(10), [&] {
    sim.Schedule(-Microseconds(100), [&] {
      ran = true;
      EXPECT_EQ(sim.Now(), Microseconds(10));
    });
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndSetsNow) {
  Simulation sim;
  int count = 0;
  sim.Schedule(Microseconds(10), [&] { ++count; });
  sim.Schedule(Microseconds(20), [&] { ++count; });
  sim.Schedule(Microseconds(30), [&] { ++count; });
  sim.RunUntil(Microseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Microseconds(20));
  sim.RunUntil(Microseconds(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Microseconds(25));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const uint64_t id = sim.Schedule(Microseconds(10), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelTwiceFails) {
  Simulation sim;
  const uint64_t id = sim.Schedule(Microseconds(10), [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(SimulationTest, CancelAfterExecutionIsHonestNoOp) {
  // Cancelling a stale id (the event already ran) must report false and
  // leave the pending-event accounting intact.
  Simulation sim;
  const uint64_t id = sim.Schedule(Microseconds(10), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Schedule(Microseconds(10), [] {});
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, PendingEventsAccountsForCancellations) {
  Simulation sim;
  sim.Schedule(Microseconds(10), [] {});
  const uint64_t id = sim.Schedule(Microseconds(20), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Microseconds(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulationTest, FarFutureOverflowBucketsPreserveOrder) {
  // Events seconds apart overflow the calendar's near window into the far
  // list; interleaved near events must still run in global time order.
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(5); });
  sim.Schedule(Microseconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(1), [&] { order.push_back(3); });
  sim.Schedule(Microseconds(2), [&] {
    order.push_back(2);
    // Scheduled mid-run, lands between the two far events.
    sim.Schedule(Seconds(2) - Microseconds(2), [&] { order.push_back(4); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(SimulationTest, SameTickFifoAcrossFarBoundary) {
  // Two events at the exact same far-future tick keep FIFO order after
  // migrating from the far list into buckets.
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(1), [&] { order.push_back(2); });
  sim.Schedule(Milliseconds(1), [&] { order.push_back(0); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulationTest, CancelFarFutureEvent) {
  Simulation sim;
  bool near_ran = false;
  bool far_ran = false;
  sim.Schedule(Microseconds(1), [&] { near_ran = true; });
  const uint64_t id = sim.Schedule(Seconds(5), [&] { far_ran = true; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(near_ran);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(sim.Now(), Microseconds(1));  // Never advanced to the far tick.
}

TEST(SimulationTest, CancelDuringOwnExecutionIsNoOp) {
  Simulation sim;
  uint64_t id = 0;
  bool cancel_result = true;
  id = sim.Schedule(Microseconds(1), [&] { cancel_result = sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(cancel_result);  // Already running: no longer pending.
}

TEST(SimulationTest, StaleIdAfterSlotReuseDoesNotCancelNewEvent) {
  // Ids are generation-tagged: an id from an event that already ran must not
  // cancel a later event that happens to reuse the same slot.
  Simulation sim;
  const uint64_t first = sim.Schedule(Microseconds(1), [] {});
  sim.Run();
  bool second_ran = false;
  sim.Schedule(Microseconds(1), [&] { second_ran = true; });
  EXPECT_FALSE(sim.Cancel(first));
  sim.Run();
  EXPECT_TRUE(second_ran);
}

TEST(SimulationTest, DensityShiftExercisesWidthAdaptation) {
  // A dense ns-scale burst followed by sparse ms timers forces the calendar
  // to re-bucket (narrow, then widen); counts and final time must be exact.
  Simulation sim;
  uint64_t dense = 0;
  struct Burst {
    Simulation* sim;
    uint64_t* count;
    uint64_t remaining;
    void operator()() {
      ++*count;
      if (remaining > 0) {
        sim->Schedule(3, Burst{sim, count, remaining - 1});
      }
    }
  };
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(i, Burst{&sim, &dense, 20000});
  }
  uint64_t sparse = 0;
  for (int i = 1; i <= 50; ++i) {
    sim.Schedule(Milliseconds(i), [&] { ++sparse; });
  }
  sim.Run();
  EXPECT_EQ(dense, 8u * 20001u);
  EXPECT_EQ(sparse, 50u);
  EXPECT_EQ(sim.Now(), Milliseconds(50));
  EXPECT_EQ(sim.events_executed(), dense + sparse);
}

TEST(SimulationTest, HeapEngineMatchesSemantics) {
  // The reference engine passes the same core contract.
  Simulation sim(1, Simulation::EngineKind::kHeap);
  EXPECT_EQ(sim.engine(), Simulation::EngineKind::kHeap);
  std::vector<int> order;
  sim.Schedule(Microseconds(2), [&] { order.push_back(2); });
  sim.Schedule(Microseconds(1), [&] { order.push_back(1); });
  const uint64_t id = sim.Schedule(Microseconds(3), [&] { order.push_back(3); });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, PoolGrowthKeepsTheRunningEventIntact) {
  // A running event's body lives in the slot pool; scheduling three blocks'
  // worth of events from inside it adds blocks, which must not move it.
  struct Grower {
    Simulation* sim;
    uint64_t* scheduled_ran;
    bool* intact;
    std::array<uint8_t, 96> payload;
    uint64_t Checksum() const {
      uint64_t sum = 0;
      for (const uint8_t b : payload) {
        sum = sum * 131 + b;
      }
      return sum;
    }
    void operator()() {
      const uint64_t before = Checksum();
      for (size_t i = 0; i < 3 * Simulation::kPoolBlockEvents; ++i) {
        sim->Schedule(static_cast<SimDuration>(1 + i % 7), [ran = scheduled_ran] { ++*ran; });
      }
      *intact = Checksum() == before;
    }
  };
  static_assert(sizeof(Grower) == 120 && sizeof(Grower) <= InlineEvent::kInlineCapacity);
  Simulation sim;
  uint64_t ran = 0;
  bool intact = false;
  Grower grower{&sim, &ran, &intact, {}};
  for (size_t i = 0; i < grower.payload.size(); ++i) {
    grower.payload[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  sim.Schedule(Microseconds(1), grower);
  sim.Run();
  EXPECT_TRUE(intact);
  EXPECT_EQ(ran, 3 * Simulation::kPoolBlockEvents);
}

TEST(SimulationTest, CancelReleasesCapturesAtOnce) {
  for (const auto kind : {Simulation::EngineKind::kCalendar, Simulation::EngineKind::kHeap}) {
    Simulation sim(1, kind);
    auto owned = std::make_shared<int>(7);
    const std::weak_ptr<int> watch = owned;
    bool ran = false;
    const uint64_t id = sim.Schedule(Milliseconds(5), [owned, &ran] { ran = *owned == 7; });
    owned.reset();
    EXPECT_FALSE(watch.expired());  // The pending event holds the capture.
    EXPECT_TRUE(sim.Cancel(id));
    EXPECT_TRUE(watch.expired());  // Released by Cancel, not when the key surfaces.
    sim.Run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

// A seeded random event stream for the engine differential below. Every
// executed event logs (Now, tag) and, by its own LCG, schedules same-tick
// bursts, near hops, and far timers past the calendar window, then cancels
// pending, running (its own) and stale ids, logging each Cancel result.
// Dense and sparse phases alternate so the calendar re-buckets.
struct EngineStream {
  Simulation sim;
  std::vector<uint64_t> log;
  std::vector<uint64_t> ids;  // By tag; every id ever issued.
  uint64_t budget = 60000;    // Events still allowed to be scheduled.
  uint64_t cancels = 0;       // Cancels that hit a pending event.

  explicit EngineStream(Simulation::EngineKind kind) : sim(5, kind) {}

  void Spawn(SimDuration delay, uint64_t state) {
    if (budget == 0) {
      return;
    }
    --budget;
    const uint64_t tag = ids.size();
    ids.push_back(0);
    ids[tag] = sim.Schedule(delay, [this, tag, state] { Fire(tag, state); });
  }

  void Fire(uint64_t tag, uint64_t state) {
    log.push_back(static_cast<uint64_t>(sim.Now()));
    log.push_back(tag);
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    // Phase by tag: dense (tens of ns) then sparse (tens of us) gaps.
    const SimDuration scale = (tag / 20000) % 2 == 0 ? 1 : 1000;
    const uint64_t children = next() % 3;
    for (uint64_t c = 0; c < children; ++c) {
      const uint64_t r = next();
      if (r % 9 == 0) {
        for (int k = 0; k < 3; ++k) {
          Spawn(0, next());  // Same-tick burst.
        }
      } else if (r % 13 == 0) {
        Spawn(Milliseconds(static_cast<int64_t>(100 + r % 400)), next());  // Far timer.
      } else {
        Spawn(scale * static_cast<SimDuration>(10 * (r % 40)), next());  // Near hop.
      }
    }
    const uint64_t action = next() % 8;
    if (action == 0) {
      log.push_back(sim.Cancel(ids[tag]) ? 1 : 0);  // Running: must fail.
    } else if (action <= 2) {
      const bool cancelled = sim.Cancel(ids[next() % ids.size()]);  // Pending or stale.
      cancels += cancelled ? 1 : 0;
      log.push_back(cancelled ? 1 : 0);
    }
  }

  // Checkpoint after a bound: what ran so far, and what is left.
  void Mark() {
    log.push_back(~uint64_t{0});
    log.push_back(sim.events_executed());
    log.push_back(sim.pending_events());
    log.push_back(static_cast<uint64_t>(sim.Now()));
  }
};

std::vector<uint64_t> RunEngineStream(Simulation::EngineKind kind) {
  EngineStream s(kind);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 64; ++i) {
    s.Spawn(10 * (i % 8), state + static_cast<uint64_t>(i));
  }
  // Interleaved bounds on a 10 ns grid, so bounds often tie event times.
  uint64_t bounds = 0;
  while (s.sim.pending_events() > 0 && bounds < 20000) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mostly short steps; one in eight reaches out to the far timers.
    const SimTime step = (state >> 50) % 8 == 0 ? Milliseconds(50) : Microseconds(5);
    const SimTime bound =
        s.sim.Now() + 10 * static_cast<SimTime>((state >> 33) % static_cast<uint64_t>(step / 10));
    if ((state >> 40) % 2 == 0) {
      s.sim.RunUntil(bound);
    } else {
      s.sim.RunWhileBefore(bound);
    }
    s.Mark();
    ++bounds;
  }
  s.sim.Run();
  s.Mark();
  EXPECT_EQ(s.budget, 0u) << "the stream should exhaust its budget";
  EXPECT_GT(s.cancels, 100u);
  return s.log;
}

TEST(SimulationTest, CalendarMatchesHeapUnderInterleavedBounds) {
  const std::vector<uint64_t> calendar = RunEngineStream(Simulation::EngineKind::kCalendar);
  const std::vector<uint64_t> heap = RunEngineStream(Simulation::EngineKind::kHeap);
  ASSERT_GT(calendar.size(), 100000u);
  ASSERT_EQ(calendar.size(), heap.size());
  for (size_t i = 0; i < calendar.size(); ++i) {
    ASSERT_EQ(calendar[i], heap[i]) << "diverged at log entry " << i;
  }
}

TEST(SimulationTest, SchedulePeriodicStopsWhenCallbackReturnsFalse) {
  Simulation sim;
  int ticks = 0;
  SchedulePeriodic(sim, Microseconds(10), Microseconds(10), [&] {
    ++ticks;
    return ticks < 3;
  });
  sim.Run();
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.Now(), Microseconds(30));
}

TEST(SimTest, SchedulePeriodicRejectsNonPositivePeriod) {
  // A zero period would re-run the callback at one instant forever.
  Simulation sim;
  int ticks = 0;
  auto tick = [&] {
    ++ticks;
    return true;
  };
  EXPECT_THROW(SchedulePeriodic(sim, Microseconds(10), 0, tick), std::invalid_argument);
  EXPECT_THROW(SchedulePeriodic(sim, 0, -Microseconds(1), tick), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(ticks, 0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values reachable.
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(11);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_THROW(rng.UniformInt(6, 5), std::invalid_argument);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.Exponential(0), std::invalid_argument);
  EXPECT_THROW(rng.Exponential(-1), std::invalid_argument);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(ZipfTest, SamplesWithinRange) {
  Rng rng(29);
  ZipfDistribution zipf(1000, 0.99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 1000u);
  }
}

TEST(ZipfTest, PopularItemsDominate) {
  Rng rng(31);
  ZipfDistribution zipf(100000, 0.99);
  int top10 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) {
      ++top10;
    }
  }
  // With s=0.99 over 100k items, the top-10 ranks draw a large share.
  EXPECT_GT(top10, n / 5);
}

TEST(ZipfTest, HigherSkewConcentratesMore) {
  Rng rng1(37);
  Rng rng2(37);
  ZipfDistribution mild(10000, 0.7);
  ZipfDistribution steep(10000, 1.3);
  int mild_top = 0;
  int steep_top = 0;
  for (int i = 0; i < 50000; ++i) {
    if (mild.Sample(rng1) < 10) {
      ++mild_top;
    }
    if (steep.Sample(rng2) < 10) {
      ++steep_top;
    }
  }
  EXPECT_GT(steep_top, mild_top);
}

TEST(ZipfTest, RejectsBadParameters) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, 0.0), std::invalid_argument);
}

TEST(ZipfTest, SingleElementAlwaysZero) {
  Rng rng(41);
  ZipfDistribution zipf(1, 0.99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(DiscreteDistributionTest, RespectsWeights) {
  Rng rng(43);
  DiscreteDistribution dist({1.0, 3.0});
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (dist.Sample(rng) == 1) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(DiscreteDistributionTest, ZeroWeightNeverSampled) {
  Rng rng(47);
  DiscreteDistribution dist({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dist.Sample(rng), 1u);
  }
}

TEST(DiscreteDistributionTest, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), std::invalid_argument);
}

// Property sweep: the exponential distribution's mean tracks the parameter.
class ExponentialMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMeanTest, MeanTracksParameter) {
  Rng rng(53);
  const double mean = GetParam();
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(mean);
  }
  EXPECT_NEAR(sum / n / mean, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMeanTest,
                         ::testing::Values(0.001, 0.1, 1.0, 50.0, 1e6));

}  // namespace
}  // namespace incod
