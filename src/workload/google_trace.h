// Google cluster-trace synthesis and the §9.3 offload-candidate analysis.
//
// The paper mines the 2011 Google cluster trace for transient effects: "90%
// of resource utilization is by jobs longer than two hours, though these
// jobs represent only 5% of the total number of jobs"; tasks using >= 10 %
// of a core for >= 5 minutes are offload candidates (1.39 M unique tasks),
// but on average "every node within the cluster has 7.7 (normalized) CPU
// cores running such tasks within every five minutes sample period",
// diminishing the saving — which motivates offloading as load *diminishes*.
// We synthesize traces with those published statistics and implement the
// analysis itself, which is the reproducible artifact.
#ifndef INCOD_SRC_WORKLOAD_GOOGLE_TRACE_H_
#define INCOD_SRC_WORKLOAD_GOOGLE_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/sim/random.h"

namespace incod {

struct TraceTask {
  uint64_t task_id = 0;
  uint32_t node = 0;
  int64_t start_seconds = 0;
  int64_t duration_seconds = 0;
  double cpu_cores = 0;  // Normalized CPU usage while running.
};

// The synthesized trace spans one day.
inline constexpr int64_t kTraceHorizonSeconds = 24 * 3600;
// Short/long job split: ~5 % of jobs are long (>= 2 h) but drive ~90 % of
// utilization.
inline constexpr double kTraceLongJobFraction = 0.05;
inline constexpr int64_t kTraceLongJobMinSeconds = 2 * 3600;
inline constexpr int64_t kTraceLongJobMaxSeconds = 20 * 3600;
inline constexpr int64_t kTraceShortJobMinSeconds = 10;
inline constexpr int64_t kTraceShortJobMaxSeconds = 1800;
inline constexpr double kTraceLongJobCpuMean = 0.55;
inline constexpr double kTraceShortJobCpuMean = 0.08;
// Period of the diurnal task-start density (GoogleTraceConfig).
inline constexpr int64_t kTraceDiurnalPeriodSeconds = 24 * 3600;

struct GoogleTraceConfig {
  uint64_t num_tasks = 200000;
  uint32_t num_nodes = 1000;
  // Diurnal load shape: task start times follow the density
  // 1 + A * sin(2*pi*(t/period) - pi/2), i.e. a trough at t = 0 and a peak
  // half a period in. A = 0 (default) keeps the historical uniform starts
  // (and draws nothing extra from the rng). 0 <= A <= 1.
  double diurnal_amplitude = 0;
};

// Deterministic synthetic trace with the configured statistics.
std::vector<TraceTask> SynthesizeGoogleTrace(const GoogleTraceConfig& config, Rng& rng);

// Task-start density multiplier at `at_seconds` under the config's diurnal
// shape (1.0 everywhere when the amplitude is 0). Lets tests and scenarios
// reason about where the synthesized day peaks.
double DiurnalDensity(const GoogleTraceConfig& config, int64_t at_seconds);

struct OffloadCandidateStats {
  uint64_t candidate_tasks = 0;      // >= cpu_threshold for >= min_duration.
  double candidate_fraction = 0;     // Of all tasks.
  double utilization_share = 0;      // Core-seconds share of candidates.
  // Mean number of candidate cores busy per node per sample window.
  double mean_candidate_cores_per_node = 0;
};

// §9.3's analysis: which tasks could be offloaded to the network, and how
// many of them contend per node (limiting the power benefit).
OffloadCandidateStats AnalyzeOffloadCandidates(const std::vector<TraceTask>& tasks,
                                               uint32_t num_nodes,
                                               double cpu_threshold = 0.10,
                                               int64_t min_duration_seconds = 300,
                                               int64_t sample_window_seconds = 300);

// Share of total core-seconds consumed by jobs at least `min_seconds` long
// (validates the "90 % by long jobs" property).
double LongJobUtilizationShare(const std::vector<TraceTask>& tasks, int64_t min_seconds);

}  // namespace incod

#endif  // INCOD_SRC_WORKLOAD_GOOGLE_TRACE_H_
