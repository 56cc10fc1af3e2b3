// Host-speed reference for the throughput metric.
//
// Shared machines change speed under other load, by up to 2x for minutes
// at a time, which swamps any change a commit makes to simulated packets per
// host second. The suite therefore runs this fixed event loop for a moment
// before and after every timed rep and scales the rep's throughput by how
// fast the loop ran: both slow down together, the ratio much less.
//
// The loop must not track the simulator, or the scaling would cancel real
// gains: it is a frozen copy of the seed's event engine (a binary heap of
// std::function events with pending/cancelled hash sets, as bench_engine's
// LegacySimulation) driven by bench_engine's churn pattern. Do not edit it:
// every recorded scaled throughput depends on it.
#ifndef INCOD_BENCH_SUITE_SUITE_REFERENCE_H_
#define INCOD_BENCH_SUITE_SUITE_REFERENCE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

namespace incod {
namespace suite {

class ReferenceLoop {
 public:
  // Rate the loop is scaled against: on a 4-vCPU Xeon VM with no other load
  // it runs about 4.8 M events/s.
  static constexpr double kNominalEventsPerSecond = 5e6;

  ReferenceLoop() {
    for (uint64_t i = 0; i < 1024; ++i) {
      Schedule(static_cast<int64_t>(i), Source{this, 0x9e3779b97f4a7c15ULL * (i + 1), {}});
    }
    EventsPerSecond(0.05);  // Grow the heap and hash sets before measuring.
  }

  ReferenceLoop(const ReferenceLoop&) = delete;
  ReferenceLoop& operator=(const ReferenceLoop&) = delete;

  // Runs the loop for about `seconds` of host time; returns events per second.
  double EventsPerSecond(double seconds) {
    const auto start = std::chrono::steady_clock::now();
    const uint64_t before = executed_;
    double elapsed = 0;
    while (elapsed < seconds) {
      for (int i = 0; i < 4096; ++i) {
        RunNext();
      }
      elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
    return static_cast<double>(executed_ - before) / elapsed;
  }

 private:
  struct Event {
    int64_t at;
    uint64_t seq;
    uint64_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Source {
    ReferenceLoop* loop;
    uint64_t state;
    std::array<unsigned char, 112> blob;

    void operator()() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t r = state >> 33;
      int64_t gap = static_cast<int64_t>(100 + r % 1500);
      if (r % 16 == 0) {
        gap = 0;
      } else if (r % 64 == 0) {
        gap = 1000000 * static_cast<int64_t>(1 + r % 5);
      }
      if (r % 32 == 0) {
        loop->Cancel(loop->Schedule(gap + 50, [] {}));
      }
      blob[r % blob.size()]++;
      loop->Schedule(gap, *this);
    }
  };

  uint64_t Schedule(int64_t delay, std::function<void()> fn) {
    const uint64_t id = next_id_++;
    queue_.push(Event{now_ + delay, next_seq_++, id, std::move(fn)});
    pending_.insert(id);
    return id;
  }

  void Cancel(uint64_t id) {
    if (pending_.count(id) > 0) {
      cancelled_.insert(id);
    }
  }

  void RunNext() {
    while (!queue_.empty()) {
      Event event = queue_.top();
      queue_.pop();
      pending_.erase(event.id);
      if (cancelled_.erase(event.id) > 0) {
        continue;
      }
      now_ = event.at;
      ++executed_;
      event.fn();
      return;
    }
  }

  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<uint64_t> pending_;
  std::unordered_set<uint64_t> cancelled_;
};

}  // namespace suite
}  // namespace incod

#endif  // INCOD_BENCH_SUITE_SUITE_REFERENCE_H_
