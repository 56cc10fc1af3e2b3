// Tests for histograms, time series, sliding windows, and CSV output.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "src/stats/counters.h"
#include "src/stats/csv.h"
#include "src/stats/histogram.h"
#include "src/stats/request_window.h"
#include "src/stats/timeseries.h"

namespace incod {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.P50(), 1000u);
  EXPECT_EQ(h.P99(), 1000u);
}

TEST(HistogramTest, SmallValuesExact) {
  // Values below the sub-bucket count are recorded exactly.
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.ValueAtQuantile(0.5), 50u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 100u);
  EXPECT_EQ(h.min(), 1u);
}

TEST(HistogramTest, RelativePrecisionBounded) {
  Histogram h;  // 6 significant bits -> ~1.6 % relative error.
  const uint64_t value = 123456789;
  h.Record(value);
  const uint64_t p50 = h.P50();
  const double rel =
      std::abs(static_cast<double>(p50) - static_cast<double>(value)) / value;
  EXPECT_LT(rel, 0.02);
}

TEST(HistogramTest, QuantileMonotonicity) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<uint64_t>(i * 37 + 1));
  }
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const uint64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
}

TEST(HistogramTest, RecordNCounts) {
  Histogram h;
  h.RecordN(5, 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.P50(), 5u);
  h.RecordN(7, 0);  // No-op.
  EXPECT_EQ(h.count(), 100u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.Record(7);
  EXPECT_EQ(h.P50(), 7u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, MergeRejectsGeometryMismatch) {
  Histogram a(1 << 20, 6);
  Histogram b(1 << 30, 6);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
}

TEST(HistogramTest, ClampsAboveMaxValue) {
  Histogram h(1000, 6);
  h.Record(50000);  // Far beyond max: clamped into the top bucket.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 50000u);  // recorded_max keeps the raw value.
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1, 6), std::invalid_argument);
  EXPECT_THROW(Histogram(1000, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1000, 15), std::invalid_argument);
}

// Percentile sanity across magnitudes (property sweep).
class HistogramScaleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramScaleTest, P99WithinPrecision) {
  Histogram h;
  const uint64_t scale = GetParam();
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Record(i * scale);
  }
  const double p99 = static_cast<double>(h.P99());
  const double expect = static_cast<double>(990 * scale);
  EXPECT_NEAR(p99 / expect, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramScaleTest,
                         ::testing::Values(1u, 10u, 1000u, 1000000u));

TEST(TimeSeriesTest, BasicStats) {
  TimeSeries ts("x");
  ts.Append(0, 1.0);
  ts.Append(Seconds(1), 3.0);
  ts.Append(Seconds(2), 5.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 5.0);
  EXPECT_DOUBLE_EQ(ts.MeanValue(), 3.0);
}

TEST(TimeSeriesTest, MeanBetweenWindow) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Append(Seconds(i), static_cast<double>(i));
  }
  // [2s, 5s) covers samples 2, 3, 4.
  EXPECT_DOUBLE_EQ(ts.MeanValueBetween(Seconds(2), Seconds(5)), 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanValueBetween(Seconds(100), Seconds(200)), 0.0);
}

TEST(SlidingWindowRateTest, RateOverWindow) {
  SlidingWindowRate rate(Seconds(1));
  for (int i = 0; i < 100; ++i) {
    rate.RecordEvent(Milliseconds(i * 10));
  }
  // 100 events in the last second.
  EXPECT_NEAR(rate.RatePerSecond(Milliseconds(990)), 100.0, 1.0);
}

TEST(SlidingWindowRateTest, OldEventsEvicted) {
  SlidingWindowRate rate(Seconds(1));
  for (int i = 0; i < 1000; ++i) {
    rate.RecordEvent(0);
  }
  EXPECT_GT(rate.RatePerSecond(Milliseconds(500)), 0.0);
  EXPECT_DOUBLE_EQ(rate.RatePerSecond(Seconds(3)), 0.0);
}

TEST(SlidingWindowRateTest, EventsSharingATick) {
  SlidingWindowRate rate(Seconds(1));
  for (int i = 0; i < 50; ++i) {
    rate.RecordEvent(0);
    rate.RecordEvent(Milliseconds(100));
  }
  EXPECT_NEAR(rate.RatePerSecond(Milliseconds(200)), 100.0, 0.1);
}

// Differential check: over seeded random bursts, gaps and reads, the ring
// buffer reports exactly what a recount of every recorded time says.
TEST(SlidingWindowRateTest, MatchesNaiveRecount) {
  for (uint64_t seed : {3u, 5u, 8u}) {
    std::mt19937_64 gen(seed);
    const SimDuration window = Microseconds(50);
    SlidingWindowRate rate(window);
    std::vector<SimTime> recorded;
    SimTime now = 0;
    for (int step = 0; step < 20000; ++step) {
      now += static_cast<SimDuration>(gen() % 3 == 0 ? gen() % Microseconds(40) : gen() % 200);
      if (gen() % 4 != 0) {
        const int burst = static_cast<int>(gen() % 40);
        for (int i = 0; i < burst; ++i) {
          rate.RecordEvent(now);
          recorded.push_back(now);
        }
        continue;
      }
      // Times are recorded in order, so the recount walks back from the
      // newest until it leaves the window.
      size_t in_window = 0;
      for (auto it = recorded.rbegin(); it != recorded.rend() && *it >= now - window; ++it) {
        ++in_window;
      }
      ASSERT_DOUBLE_EQ(rate.RatePerSecond(now),
                       static_cast<double>(in_window) / ToSeconds(window))
          << "seed " << seed << " step " << step;
    }
  }
}

// Differential check of the clients' request window against a map of
// outstanding ids: replies arrive late, twice, out of order or for ids never
// sent, and timeouts sweep expired requests, over seeded random sequences.
TEST(RequestWindowTest, MatchesReferenceMap) {
  for (uint64_t seed : {13u, 21u, 34u}) {
    std::mt19937_64 gen(seed);
    RequestWindow window;
    std::map<uint64_t, SimTime> reference;
    uint64_t next_id = 1;
    SimTime now = 0;
    const SimDuration timeout = Microseconds(200);
    for (int step = 0; step < 50000; ++step) {
      now += static_cast<SimDuration>(gen() % 1000);
      const uint64_t op = gen() % 100;
      if (op < 45) {
        ASSERT_EQ(window.Open(now), next_id);
        reference[next_id++] = now;
      } else if (op < 90) {
        // Mostly recent ids (out-of-order replies), sometimes old ones
        // (late or duplicate), id 0 and ids never sent.
        const uint64_t back = gen() % 8 == 0 ? gen() % (next_id + 1) : gen() % 12;
        const uint64_t id = back <= next_id ? next_id - back : 0;
        const uint64_t probe = gen() % 20 == 0 ? next_id + gen() % 3 : id;
        const auto it = reference.find(probe);
        ASSERT_EQ(window.IsOpen(probe), it != reference.end()) << "id " << probe;
        const std::optional<SimTime> closed = window.Close(probe);
        ASSERT_EQ(closed.has_value(), it != reference.end()) << "id " << probe;
        if (it != reference.end()) {
          ASSERT_EQ(*closed, it->second);
          reference.erase(it);
        }
      } else {
        uint64_t expired = 0;
        for (auto it = reference.begin(); it != reference.end();) {
          if (it->second < now - timeout) {
            it = reference.erase(it);
            ++expired;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(window.ExpireBefore(now - timeout), expired) << "step " << step;
      }
      ASSERT_EQ(window.outstanding(), reference.size()) << "step " << step;
    }
  }
}

TEST(SlidingWindowRateTest, RejectsBadWindow) {
  EXPECT_THROW(SlidingWindowRate(0), std::invalid_argument);
}

TEST(SlidingWindowMeanTest, MeanAndEviction) {
  SlidingWindowMean mean(Seconds(1));
  mean.AddSample(0, 10.0);
  mean.AddSample(Milliseconds(500), 20.0);
  EXPECT_DOUBLE_EQ(mean.Mean(Milliseconds(600)), 15.0);
  // After 1.2 s the first sample is evicted.
  EXPECT_DOUBLE_EQ(mean.Mean(Milliseconds(1200)), 20.0);
}

TEST(SlidingWindowMeanTest, WindowFullDetection) {
  SlidingWindowMean mean(Seconds(1));
  mean.AddSample(0, 1.0);
  EXPECT_FALSE(mean.WindowFull(Milliseconds(100)));
  mean.AddSample(Milliseconds(500), 1.0);
  mean.AddSample(Milliseconds(1000), 1.0);
  EXPECT_TRUE(mean.WindowFull(Milliseconds(1000)));
  // Far in the future everything is evicted again.
  EXPECT_FALSE(mean.WindowFull(Seconds(10)));
}

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.value(), 6u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(RatioCounterTest, HitRatio) {
  RatioCounter r;
  EXPECT_DOUBLE_EQ(r.HitRatio(), 0.0);
  r.Hit();
  r.Hit();
  r.Hit();
  r.Miss();
  EXPECT_DOUBLE_EQ(r.HitRatio(), 0.75);
  EXPECT_EQ(r.total(), 4u);
}

TEST(CsvTableTest, WritesHeaderAndRows) {
  CsvTable table({"name", "value"});
  table.AddRow({std::string("a"), 1.5});
  table.AddRow({std::string("b"), static_cast<int64_t>(42)});
  std::ostringstream out;
  table.WriteCsv(out);
  EXPECT_EQ(out.str(), "name,value\na,1.5\nb,42\n");
}

TEST(CsvTableTest, EscapesSpecialCharacters) {
  CsvTable table({"text"});
  table.AddRow({std::string("a,b")});
  table.AddRow({std::string("say \"hi\"")});
  std::ostringstream out;
  table.WriteCsv(out);
  EXPECT_EQ(out.str(), "text\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
}

TEST(CsvTableTest, RejectsMismatchedRow) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.AddRow({std::string("only-one")}), std::invalid_argument);
  EXPECT_THROW(CsvTable({}), std::invalid_argument);
}

TEST(CsvTableTest, AlignedOutputHasAllCells) {
  CsvTable table({"col", "value"});
  table.AddRow({std::string("row1"), 3.25});
  std::ostringstream out;
  table.WriteAligned(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("row1"), std::string::npos);
  EXPECT_NE(s.find("3.25"), std::string::npos);
}

}  // namespace
}  // namespace incod
