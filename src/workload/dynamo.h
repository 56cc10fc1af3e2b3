// Facebook Dynamo power-trace synthesis and variance analysis (§9.3).
//
// Dynamo's published numbers anchor this module: rack-level power variation
// at the 99th percentile is 12.8 % over 3 s and 26.6 % over 30 s (median
// < 5 %); per-application 60 s variation is 9.2 % median / 26.2 % p99 for
// caching and 37.2 % / 62.2 % for web. §9.3's conclusion: low power variance
// over the scheduling period makes in-network computing safe; high variance
// makes on-demand shifting "incorrect or inefficient". We synthesize power
// traces as an AR(1) process and implement the windowed variation analysis.
#ifndef INCOD_SRC_WORKLOAD_DYNAMO_H_
#define INCOD_SRC_WORKLOAD_DYNAMO_H_

#include <cstdint>
#include <vector>

#include "src/sim/random.h"

namespace incod {

// A synthesized power trace holds one sample per second.
inline constexpr double kPowerTraceSamplePeriodSeconds = 1.0;

struct PowerTraceConfig {
  double mean_watts = 1000;    // Rack-level scale.
  double sigma_watts = 25;     // Innovation magnitude.
  double ar1_coefficient = 0.97;  // Temporal correlation (0..1).
  uint64_t num_samples = 3600;
};

// Presets matched to the §9.3 discussion.
PowerTraceConfig DynamoCachingTraceConfig();  // Low variance (cache tier).
PowerTraceConfig DynamoWebTraceConfig();      // High variance (web tier).

std::vector<double> SynthesizePowerTrace(const PowerTraceConfig& config, Rng& rng);

struct PowerVariationStats {
  double median = 0;  // Median windowed variation, as a fraction of mean.
  double p99 = 0;     // 99th percentile.
};

// Sliding-window variation: (max - min) / window mean, computed over every
// window of `window_seconds`, then summarized as median / p99. This is the
// Dynamo metric the paper quotes.
PowerVariationStats AnalyzePowerVariation(const std::vector<double>& trace_watts,
                                          double sample_period_seconds,
                                          double window_seconds);

// §9.3's safety rule: a workload is safe for (static) in-network placement
// when its p99 variation over the scheduling period is under `threshold`.
bool SafeForInNetworkPlacement(const PowerVariationStats& stats, double threshold = 0.30);

}  // namespace incod

#endif  // INCOD_SRC_WORKLOAD_DYNAMO_H_
