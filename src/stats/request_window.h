// In-flight requests of one open-loop client.
//
// Clients number their requests sequentially, so the outstanding set is a
// FIFO of send times indexed by id from the oldest unresolved request to
// the newest: answering or abandoning a request leaves a tombstone, and the
// resolved prefix is popped. Lookups are an index, and a steady-state
// client allocates nothing per request (std::unordered_map paid a heap node
// for every one).
#ifndef INCOD_SRC_STATS_REQUEST_WINDOW_H_
#define INCOD_SRC_STATS_REQUEST_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "src/sim/ring_queue.h"
#include "src/sim/time.h"

namespace incod {

class RequestWindow {
 public:
  // Opens the next request, sent at `at` (not before any earlier one);
  // returns its id. Ids start at 1.
  uint64_t Open(SimTime at);

  // Whether `id` was opened and is not yet closed.
  bool IsOpen(uint64_t id) const;

  // Closes an outstanding request (answered or abandoned) and returns its
  // send time; nullopt when `id` is not outstanding (late or duplicate).
  std::optional<SimTime> Close(uint64_t id);

  // Abandons every outstanding request sent before `cutoff`; returns how
  // many.
  uint64_t ExpireBefore(SimTime cutoff);

  size_t outstanding() const { return outstanding_; }

 private:
  static constexpr SimTime kClosed = std::numeric_limits<SimTime>::min();

  void PopClosed();

  uint64_t front_id_ = 1;      // Id of sent_[0].
  RingQueue<SimTime> sent_;    // Send time per id, kClosed once resolved.
  size_t outstanding_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_STATS_REQUEST_WINDOW_H_
