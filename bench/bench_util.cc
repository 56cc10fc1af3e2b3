#include "bench/bench_util.h"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>

namespace incod {
namespace bench {

const char* BuildTypeName() {
#ifdef INCOD_BUILD_TYPE
  return INCOD_BUILD_TYPE;
#else
  return "unspecified";
#endif
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::cout << "\n=== " << figure << " ===\n"
            << "[build: " << BuildTypeName() << "]\n"
            << description << "\n\n";
}

void Check::That(const std::string& what, bool ok) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  failed_ = failed_ || !ok;
}

void Check::Bound(const std::string& what, double value, const char* op, double bound,
                  bool ok) {
  std::ostringstream line;
  line << what << " " << value << " " << op << " " << bound;
  That(line.str(), ok);
}

void Check::AtLeast(const std::string& what, double value, double floor) {
  Bound(what, value, ">=", floor, value >= floor);
}

void Check::AtMost(const std::string& what, double value, double ceiling) {
  Bound(what, value, "<=", ceiling, value <= ceiling);
}

int Check::ExitCode() const {
  std::cout << (failed_ ? "FAIL: a --check floor broke\n" : "OK\n") << std::flush;
  return failed_ ? 1 : 0;
}

bool ParseCheckFlag(int argc, char** argv, bool* check) {
  *check = argc == 2 && std::strcmp(argv[1], "--check") == 0;
  if (argc == 1 || *check) {
    return true;
  }
  std::cerr << "usage: " << argv[0] << " [--check]\n";
  return false;
}

void PrintSeries(const std::vector<SweepSeries>& series) {
  CsvTable table({"series", "offered_kpps", "achieved_kpps", "power_w", "p50_us",
                  "p99_us"});
  for (const auto& s : series) {
    for (const auto& p : s.points) {
      table.AddRow({s.name, p.offered_pps / 1000.0, p.achieved_pps / 1000.0, p.watts,
                    p.p50_us, p.p99_us});
    }
  }
  table.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  table.WriteCsv(std::cout);
  std::cout << std::flush;
}

std::optional<double> CrossoverRate(const SweepSeries& sw, const SweepSeries& hw) {
  const size_t n = std::min(sw.points.size(), hw.points.size());
  for (size_t i = 0; i < n; ++i) {
    const double diff = sw.points[i].watts - hw.points[i].watts;
    if (diff >= 0) {
      if (i == 0) {
        return sw.points[0].offered_pps;
      }
      const double prev_diff = sw.points[i - 1].watts - hw.points[i - 1].watts;
      const double t = prev_diff / (prev_diff - diff);  // prev_diff < 0 <= diff.
      const double r0 = sw.points[i - 1].offered_pps;
      const double r1 = sw.points[i].offered_pps;
      return r0 + t * (r1 - r0);
    }
  }
  return std::nullopt;
}

std::vector<double> Fig3RateGrid(double max_kpps, int points) {
  // Dense at the low end (where the SW/HW crossover lives), then linear to
  // the peak. Fractions of max rate:
  static const double kLowFractions[] = {0.0125, 0.025, 0.0375, 0.05, 0.075, 0.1, 0.15};
  std::vector<double> rates;
  for (double f : kLowFractions) {
    rates.push_back(max_kpps * 1000.0 * f);
  }
  const int linear = std::max(3, points - static_cast<int>(rates.size()));
  for (int i = 1; i <= linear; ++i) {
    rates.push_back(max_kpps * 1000.0 * (0.15 + 0.85 * i / linear));
  }
  return rates;
}

}  // namespace bench
}  // namespace incod
