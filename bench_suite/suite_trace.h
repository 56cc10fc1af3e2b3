// In-memory spans for the traced run, written once at the end as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Spans come only from the suite's own calls into each layer; nothing inside
// the simulator is instrumented. Each span has a name, start, end, parent id
// and the workload it belongs to, plus numeric args (e.g. the counter
// deltas of a RunUntil slice).
#ifndef INCOD_BENCH_SUITE_SUITE_TRACE_H_
#define INCOD_BENCH_SUITE_SUITE_TRACE_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace incod {
namespace suite {

// Shortest decimal form that reads back as the same double ("null" when
// not finite): outputs keep every digit that was measured.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

class SpanRecorder {
 public:
  using Args = std::vector<std::pair<std::string, double>>;

  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), origin_(std::chrono::steady_clock::now()) {}

  // Opens a span under `parent` (-1: root) and returns its id.
  int Begin(const std::string& name, int parent) {
    spans_.push_back(Span{name, parent, NowUs(), -1, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id, Args args = {}) {
    Span& span = spans_.at(static_cast<size_t>(id));
    span.end_us = NowUs();
    span.args = std::move(args);
  }

  double DurationSeconds(int id) const {
    const Span& span = spans_.at(static_cast<size_t>(id));
    return (span.end_us - span.start_us) / 1e6;
  }

  void WriteChromeTrace(std::ostream& out) const {
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name << "\", \"cat\": \""
          << workload_ << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << JsonNumber(s.start_us) << ", \"dur\": " << JsonNumber(s.end_us - s.start_us)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"workload\": \"" << workload_ << "\"";
      for (const auto& [key, value] : s.args) {
        out << ", \"" << key << "\": " << JsonNumber(value);
      }
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
    Args args;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     origin_)
        .count();
  }

  std::string workload_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace suite
}  // namespace incod

#endif  // INCOD_BENCH_SUITE_SUITE_TRACE_H_
