// Shared helpers for the figure/table benchmark harnesses.
//
// Each bench binary regenerates one table or figure from the paper: it runs
// the relevant testbed at a sweep of offered loads, measures steady-state
// wall power and achieved throughput, and prints the same rows/series the
// paper reports (plus a CSV block for plotting).
#ifndef INCOD_BENCH_BENCH_UTIL_H_
#define INCOD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stats/csv.h"

namespace incod {
namespace bench {

// Build type baked in at configure time ("Release", "Debug", ...). Bench
// numbers from unoptimized builds are meaningless; PrintHeader surfaces the
// build type so a Debug measurement is visibly suspect.
const char* BuildTypeName();

// Floors for a bench's --check mode. Each call prints one "[ok]" or
// "[FAIL]" line; ExitCode() prints the verdict and returns 1 if any floor
// broke, 0 otherwise.
class Check {
 public:
  void That(const std::string& what, bool ok);
  void AtLeast(const std::string& what, double value, double floor);
  void AtMost(const std::string& what, double value, double ceiling);
  int ExitCode() const;

 private:
  void Bound(const std::string& what, double value, const char* op, double bound,
             bool ok);

  bool failed_ = false;
};

// Parses a bench command line that is empty or just --check. Returns false
// (after printing usage) on anything else.
bool ParseCheckFlag(int argc, char** argv, bool* check);

struct SweepPoint {
  double offered_pps = 0;
  double achieved_pps = 0;
  double watts = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// One measured deployment curve (e.g. "memcached", "LaKe").
struct SweepSeries {
  std::string name;
  std::vector<SweepPoint> points;
};

// Prints a figure header in the style the harness uses everywhere.
void PrintHeader(const std::string& figure, const std::string& description);

// Prints series as an aligned table followed by a CSV block.
void PrintSeries(const std::vector<SweepSeries>& series);

// First offered rate at which `hw` power drops to or below `sw` power
// (linear interpolation between sweep points). nullopt if never.
std::optional<double> CrossoverRate(const SweepSeries& sw, const SweepSeries& hw);

// Standard sweep grid (kpps -> pps) used by the Fig 3 benches.
std::vector<double> Fig3RateGrid(double max_kpps, int points = 12);

}  // namespace bench
}  // namespace incod

#endif  // INCOD_BENCH_BENCH_UTIL_H_
