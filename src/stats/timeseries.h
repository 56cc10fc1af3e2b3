// Time-series recording and sliding-window rate estimation.
//
// TimeSeries stores (time, value) samples for benchmark/figure output.
// SlidingWindowRate implements the averaging the paper's on-demand
// controllers use: "the average message rate ... over the averaging period
// (implemented as a sliding window)" (§9.1).
#ifndef INCOD_SRC_STATS_TIMESERIES_H_
#define INCOD_SRC_STATS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/ring_queue.h"
#include "src/sim/time.h"

namespace incod {

class TimeSeries {
 public:
  struct Sample {
    SimTime at;
    double value;
  };

  explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

  void Append(SimTime at, double value) { samples_.push_back({at, value}); }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::string& name() const { return name_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  double MinValue() const;
  double MaxValue() const;
  double MeanValue() const;
  // Mean over samples with at in [from, to).
  double MeanValueBetween(SimTime from, SimTime to) const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

// Counts events and reports the average rate (events/second) over a trailing
// window. Old events are evicted lazily on access. One timestamp per event:
// every hot caller records single packets.
class SlidingWindowRate {
 public:
  explicit SlidingWindowRate(SimDuration window);

  void RecordEvent(SimTime now);

  // Average events/second over [now - window, now].
  double RatePerSecond(SimTime now);

  SimDuration window() const { return window_; }
  void Clear() { events_.clear(); }

 private:
  void Evict(SimTime now);

  SimDuration window_;
  RingQueue<SimTime> events_;  // Event times, oldest first.
};

// Sliding mean of a sampled scalar (CPU %, watts) over a trailing window.
class SlidingWindowMean {
 public:
  explicit SlidingWindowMean(SimDuration window);

  void AddSample(SimTime now, double value);
  double Mean(SimTime now);
  // True once samples cover at least the full window span.
  bool WindowFull(SimTime now);
  void Clear() { samples_.clear(); }

 private:
  void Evict(SimTime now);

  SimDuration window_;
  std::deque<std::pair<SimTime, double>> samples_;
};

}  // namespace incod

#endif  // INCOD_SRC_STATS_TIMESERIES_H_
