#include "src/stats/timeseries.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace incod {

double TimeSeries::MinValue() const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& s : samples_) {
    m = std::min(m, s.value);
  }
  return m;
}

double TimeSeries::MaxValue() const {
  double m = -std::numeric_limits<double>::infinity();
  for (const auto& s : samples_) {
    m = std::max(m, s.value);
  }
  return m;
}

double TimeSeries::MeanValue() const {
  if (samples_.empty()) {
    return 0;
  }
  double sum = 0;
  for (const auto& s : samples_) {
    sum += s.value;
  }
  return sum / static_cast<double>(samples_.size());
}

double TimeSeries::MeanValueBetween(SimTime from, SimTime to) const {
  double sum = 0;
  size_t n = 0;
  for (const auto& s : samples_) {
    if (s.at >= from && s.at < to) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

SlidingWindowRate::SlidingWindowRate(SimDuration window) : window_(window) {
  if (window <= 0) {
    throw std::invalid_argument("SlidingWindowRate: window must be > 0");
  }
}

void SlidingWindowRate::RecordEvent(SimTime now) {
  Evict(now);
  events_.push_back(now);
}

double SlidingWindowRate::RatePerSecond(SimTime now) {
  Evict(now);
  return static_cast<double>(events_.size()) / ToSeconds(window_);
}

void SlidingWindowRate::Evict(SimTime now) {
  const SimTime cutoff = now - window_;
  while (!events_.empty() && events_.front() < cutoff) {
    events_.pop_front();
  }
}

SlidingWindowMean::SlidingWindowMean(SimDuration window) : window_(window) {
  if (window <= 0) {
    throw std::invalid_argument("SlidingWindowMean: window must be > 0");
  }
}

void SlidingWindowMean::AddSample(SimTime now, double value) {
  Evict(now);
  samples_.emplace_back(now, value);
}

double SlidingWindowMean::Mean(SimTime now) {
  Evict(now);
  if (samples_.empty()) {
    return 0;
  }
  double sum = 0;
  for (const auto& [t, v] : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

bool SlidingWindowMean::WindowFull(SimTime now) {
  Evict(now);
  if (samples_.empty()) {
    return false;
  }
  return now - samples_.front().first >= window_ - 1;
}

void SlidingWindowMean::Evict(SimTime now) {
  const SimTime cutoff = now - window_;
  while (!samples_.empty() && samples_.front().first < cutoff) {
    samples_.pop_front();
  }
}

}  // namespace incod
