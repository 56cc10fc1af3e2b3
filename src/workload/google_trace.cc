#include "src/workload/google_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace incod {

double DiurnalDensity(const GoogleTraceConfig& config, int64_t at_seconds) {
  if (config.diurnal_amplitude <= 0) {
    return 1.0;
  }
  const double phase = 2.0 * M_PI * static_cast<double>(at_seconds) /
                       static_cast<double>(kTraceDiurnalPeriodSeconds);
  return 1.0 + config.diurnal_amplitude * std::sin(phase - M_PI / 2.0);
}

namespace {

// Start time with the diurnal density over [0, latest_start], via rejection
// against the (bounded) density peak. Deterministic given the rng stream;
// with amplitude 0 this is a single uniform draw — the historical stream.
int64_t DrawStartSeconds(const GoogleTraceConfig& config, Rng& rng,
                         int64_t latest_start) {
  if (config.diurnal_amplitude <= 0 || latest_start <= 0) {
    return rng.UniformInt(0, latest_start);
  }
  const double peak = 1.0 + config.diurnal_amplitude;
  for (;;) {
    const int64_t candidate = rng.UniformInt(0, latest_start);
    if (rng.UniformDouble(0.0, peak) <= DiurnalDensity(config, candidate)) {
      return candidate;
    }
  }
}

}  // namespace

std::vector<TraceTask> SynthesizeGoogleTrace(const GoogleTraceConfig& config, Rng& rng) {
  if (config.num_nodes == 0 || config.num_tasks == 0) {
    throw std::invalid_argument("SynthesizeGoogleTrace: empty config");
  }
  if (config.diurnal_amplitude < 0 || config.diurnal_amplitude > 1) {
    throw std::invalid_argument("SynthesizeGoogleTrace: amplitude in [0, 1]");
  }
  std::vector<TraceTask> tasks;
  tasks.reserve(config.num_tasks);
  for (uint64_t i = 0; i < config.num_tasks; ++i) {
    TraceTask t;
    t.task_id = i + 1;
    t.node = static_cast<uint32_t>(rng.UniformInt(0, config.num_nodes - 1));
    const bool long_job = rng.Bernoulli(kTraceLongJobFraction);
    if (long_job) {
      t.duration_seconds =
          rng.UniformInt(kTraceLongJobMinSeconds, kTraceLongJobMaxSeconds);
      t.cpu_cores = std::max(0.01, rng.Normal(kTraceLongJobCpuMean, 0.25));
    } else {
      t.duration_seconds =
          rng.UniformInt(kTraceShortJobMinSeconds, kTraceShortJobMaxSeconds);
      t.cpu_cores = std::max(0.01, rng.Normal(kTraceShortJobCpuMean, 0.06));
    }
    t.cpu_cores = std::min(t.cpu_cores, 4.0);
    const int64_t latest_start =
        std::max<int64_t>(0, kTraceHorizonSeconds - t.duration_seconds);
    t.start_seconds = DrawStartSeconds(config, rng, latest_start);
    tasks.push_back(t);
  }
  return tasks;
}

OffloadCandidateStats AnalyzeOffloadCandidates(const std::vector<TraceTask>& tasks,
                                               uint32_t num_nodes, double cpu_threshold,
                                               int64_t min_duration_seconds,
                                               int64_t sample_window_seconds) {
  OffloadCandidateStats stats;
  if (tasks.empty() || num_nodes == 0) {
    return stats;
  }
  double total_core_seconds = 0;
  double candidate_core_seconds = 0;
  int64_t horizon = 0;
  for (const auto& t : tasks) {
    const double cs = t.cpu_cores * static_cast<double>(t.duration_seconds);
    total_core_seconds += cs;
    horizon = std::max(horizon, t.start_seconds + t.duration_seconds);
    if (t.cpu_cores >= cpu_threshold && t.duration_seconds >= min_duration_seconds) {
      ++stats.candidate_tasks;
      candidate_core_seconds += cs;
    }
  }
  stats.candidate_fraction =
      static_cast<double>(stats.candidate_tasks) / static_cast<double>(tasks.size());
  stats.utilization_share =
      total_core_seconds > 0 ? candidate_core_seconds / total_core_seconds : 0;

  // Per-node candidate core pressure: total candidate core-seconds divided
  // by (nodes x horizon) gives the mean number of candidate cores
  // concurrently busy on a node in any sample window. The window length
  // cancels for this time-average but is kept in the signature to match the
  // trace's 5-minute sampling.
  (void)sample_window_seconds;
  if (horizon > 0) {
    stats.mean_candidate_cores_per_node =
        candidate_core_seconds /
        (static_cast<double>(num_nodes) * static_cast<double>(horizon));
  }
  return stats;
}

double LongJobUtilizationShare(const std::vector<TraceTask>& tasks, int64_t min_seconds) {
  double total = 0;
  double long_share = 0;
  for (const auto& t : tasks) {
    const double cs = t.cpu_cores * static_cast<double>(t.duration_seconds);
    total += cs;
    if (t.duration_seconds >= min_seconds) {
      long_share += cs;
    }
  }
  return total > 0 ? long_share / total : 0;
}

}  // namespace incod
