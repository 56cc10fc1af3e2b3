// Discrete-event simulation core.
//
// A Simulation owns a set of (time, sequence, callback) events. Components
// schedule callbacks; RunUntil/Run drains them in (time, sequence) order, so
// results are bit-for-bit reproducible with FIFO tie-breaking among
// same-time events.
//
// Schedule constructs the callback once, in place, in a slot pool of
// InlineEvent bodies that grows in fixed blocks and never moves. The queues
// only ever hold 24-byte (time, sequence, slot) keys; the body is executed
// where it was built and destroyed once it returns (or at once on Cancel).
// Each executed event costs one peek: peek, stop if past the bound, pop, run.
//
// Two interchangeable engines order the keys:
//
//  * kCalendar (default): a calendar queue — a ring of power-of-two-width
//    time buckets covering a sliding window ahead of Now(), with a binary
//    heap "far list" for events beyond the window (long timers). Near-term
//    events (packet hops) insert and pop in O(1) amortized; far events
//    migrate into buckets once the window reaches them. Cancellation is O(1)
//    via a generation-tagged slot table instead of hash sets.
//
//  * kHeap: the classic binary-heap engine, kept only as the reference for
//    differential testing (tests/engine_diff_test.cc).
//
// Both engines share the slot table and body pool, sequence numbering, and
// counters, so any divergence in event order is a bug the differential tests
// catch.
#ifndef INCOD_SRC_SIM_SIMULATION_H_
#define INCOD_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/inline_event.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace incod {

class Simulation {
 public:
  enum class EngineKind { kCalendar, kHeap };

  // Sentinel returned by NextEventTime() when the queue is empty.
  static constexpr SimTime kNoEventTime = INT64_MAX;

  // Seq values >= kExternalSeqBase are reserved for cross-shard deliveries
  // (sim/sharded.h): they order after every locally scheduled event at the
  // same tick, by (source shard, per-pair send sequence). The local counter
  // would need 2^48 events to collide — far beyond any run.
  static constexpr uint64_t kExternalSeqBase = uint64_t{1} << 48;

  explicit Simulation(uint64_t seed = 1, EngineKind engine = EngineKind::kCalendar);

  // Shard view: shares `queue_owner`'s event queue and clock but owns a
  // private RNG root. ShardedSimulation's single-queue reference mode hands
  // each shard's components such a view, so they fork the exact RNG streams
  // they would own in parallel mode while all events still run in one
  // deterministic queue.
  Simulation(Simulation* queue_owner, uint64_t seed);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime Now() const { return queue_->now_; }

  EngineKind engine() const { return engine_; }

  // Schedules `fn` (any void() callable) to run `delay` ns from now.
  // Negative delays are clamped to zero (run "immediately", after
  // already-queued events at Now()). Returns an id usable with Cancel().
  // Templated so the callable is constructed (as an InlineEvent) directly in
  // its pool slot — one copy, never moved afterwards, no heap allocation for
  // captures up to InlineEvent::kInlineCapacity.
  template <typename F>
  uint64_t Schedule(SimDuration delay, F&& fn) {
    if (delay < 0) {
      delay = 0;
    }
    Simulation& q = *queue_;
    return q.DoSchedule(q.now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `at` (clamped to Now()).
  template <typename F>
  uint64_t ScheduleAt(SimTime at, F&& fn) {
    Simulation& q = *queue_;
    return q.DoSchedule(at < q.now_ ? q.now_ : at, std::forward<F>(fn));
  }

  // Schedules a cross-shard delivery under an explicit external sequence key
  // (>= kExternalSeqBase, see above). Used by ShardedSimulation so both the
  // parallel and the single-queue reference mode order cross-shard events
  // identically. `at` is clamped to Now().
  uint64_t ScheduleAtExternal(SimTime at, uint64_t external_seq, InlineEvent fn);

  // Cancels a pending event in O(1) and destroys its callable (releasing its
  // captures) at once. Returns false if it already ran, is running, or was
  // cancelled.
  bool Cancel(uint64_t id);

  // Runs events until the queue is empty.
  void Run();

  // Runs events with time <= t, then sets Now() to t.
  void RunUntil(SimTime t);

  // Runs events with time strictly < bound, leaving Now() at the last
  // executed event. The conservative-lookahead window primitive: unlike
  // RunUntil it does not advance the clock past the final event, so a later
  // window (or a cross-shard delivery at >= bound) continues seamlessly.
  void RunWhileBefore(SimTime bound);

  // Advances Now() to `t` without running anything. Requires every pending
  // event to be later than `t`; used by ShardedSimulation to finish a
  // RunUntil round once the global horizon passed `t`.
  void AdvanceNowTo(SimTime t);

  // Time of the next live event, or kNoEventTime when the queue is empty.
  SimTime NextEventTime();

  // Runs a single event. Returns false if the queue is empty.
  bool RunNext();

  // Number of events executed since construction.
  uint64_t events_executed() const { return queue_->events_executed_; }

  // Number of events currently pending (scheduled, not yet run or cancelled).
  size_t pending_events() const { return queue_->live_events_; }

  // Root RNG. Components should call rng().Fork() once at setup.
  Rng& rng() { return rng_; }

  // Callable bodies per pool block. The pool adds one block whenever the
  // number of simultaneously pending events outgrows it; blocks never move.
  static constexpr size_t kPoolBlockEvents = 256;

 private:
  // A queue entry: the callable itself stays in its pool slot.
  struct Event {
    SimTime at = 0;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;  // FIFO among same-time events.
    }
  };
  // Consumable sorted run of same-window events. `head` advances as events
  // pop; the vector is reset (keeping capacity) once drained.
  struct Bucket {
    std::vector<Event> items;
    size_t head = 0;
  };
  // Where CalendarPeek found the minimum event.
  enum class MinKind : uint8_t {
    kNone,      // No live events.
    kRun,       // run_[run_head_].
    kItems,     // Active bucket's items (same-segment insert overtook the run).
    kFar,       // Far-heap top (window empty).
    kSameTick,  // Same-tick FIFO ring front (at == Now()).
  };
  struct MinRef {
    const Event* ev = nullptr;
    MinKind kind = MinKind::kNone;
  };
  // Cancellation slots. An event id encodes (slot index, generation); the
  // generation bumps on every free, so stale ids from already-run events
  // fail the O(1) comparison instead of needing a pending-id hash set. Kept
  // dense, apart from the bodies, so the cancelled check in every peek stays
  // in cache. A running event's slot is kRunning: not pending (so Cancel of
  // its own id fails) and not free (so nothing it schedules reuses its body).
  enum SlotState : uint8_t { kFree, kPending, kCancelled, kRunning };
  struct Slot {
    uint32_t gen = 1;
    SlotState state = kFree;
  };

  // Calendar geometry: 1024 buckets of power-of-two width cover a sliding
  // window ahead of Now(); events past the window go to the far heap. The
  // width adapts to the observed event density (kept near ~2 events per
  // bucket) so both multi-Mpps packet storms and sparse timer-only phases
  // stay O(1): every kAdaptInterval executed events the average inter-event
  // gap picks a new width, and the near set is re-bucketed if it moved by
  // two or more power-of-two steps (hysteresis against regime ping-pong).
  static constexpr int kNumBucketsLog2 = 10;
  static constexpr size_t kNumBuckets = size_t{1} << kNumBucketsLog2;
  static constexpr size_t kBucketMask = kNumBuckets - 1;
  static constexpr int kDefaultWidthLog2 = 10;
  static constexpr int kMinWidthLog2 = 0;
  static constexpr int kMaxWidthLog2 = 16;
  static constexpr uint64_t kAdaptInterval = 32768;

  static bool EventBefore(const Event& a, const Event& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  uint64_t Segment(SimTime at) const { return static_cast<uint64_t>(at) >> width_log2_; }
  static uint64_t EncodeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) << 32) | gen;
  }
  InlineEvent& Body(uint32_t slot) {
    return bodies_[slot / kPoolBlockEvents][slot % kPoolBlockEvents];
  }

  template <typename F>
  uint64_t DoSchedule(SimTime at, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>,
                  "events must be void() callables");
    const uint32_t slot = AllocSlot();
    if constexpr (std::is_same_v<std::decay_t<F>, InlineEvent>) {
      Body(slot) = std::forward<F>(fn);  // Already type-erased: relocate it.
    } else {
      Body(slot).Emplace(std::forward<F>(fn));
    }
    const uint64_t id = EncodeId(slot, slots_[slot].gen);
    ++live_events_;
    const Event key{at, next_seq_++, slot};
    if (engine_ == EngineKind::kHeap) {
      heap_.push(key);
    } else if (at == now_) {
      // Same-tick FIFO ring: fresh delay-0 schedules carry the largest seq
      // at Now(), so a plain append keeps the ring sorted — no same-segment
      // sorted middle-insert on heavy fan-in. Only fresh schedules may take
      // this path: re-inserts (far migration, Rebuild) carry old seqs.
      if (same_tick_head_ == same_tick_.size() && !same_tick_.empty()) {
        same_tick_.clear();
        same_tick_head_ = 0;
      }
      same_tick_.push_back(key);
    } else {
      InsertCalendar(key);
    }
    return id;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  bool SlotCancelled(uint32_t slot) const { return slots_[slot].state == kCancelled; }

  void InsertCalendar(const Event& ev) {
    const uint64_t seg = Segment(ev.at);
    if (seg >= Segment(now_) + kNumBuckets) {
      ++far_inserts_;
      far_.push(ev);
      return;
    }
    ++near_inserts_;
    // Out-of-band inserts (a cross-shard mailbox drain between rounds, a far
    // migration) may land in a segment behind the active run; the fast path
    // would never look back at it. Fold the run into its bucket so the next
    // peek rescans from Now()'s segment. Inserts made while an event runs
    // never take this path: now_ sits inside the active segment, so their
    // segment is >= the active one.
    if (active_index_ != kNoActive && seg < active_seg_) {
      DemoteActiveRun();
    }
    const size_t index = static_cast<size_t>(seg) & kBucketMask;
    Bucket& b = buckets_[index];
    if (b.head == b.items.size()) {
      if (!b.items.empty()) {
        b.items.clear();  // Fully consumed run; reuse the capacity.
        b.head = 0;
      }
      MarkOccupied(index);
      b.items.push_back(ev);
      return;
    }
    // Common case: sorts last (same-tick events carry the largest seq).
    if (EventBefore(b.items.back(), ev)) {
      b.items.push_back(ev);
      return;
    }
    InsertSorted(b, ev);
  }
  void InsertSorted(Bucket& b, const Event& ev);
  // Folds the active run (and the bucket's overtaking inserts) back into its
  // bucket and clears the active state, re-arming the occupancy-bitmap scan.
  void DemoteActiveRun();
  // Counts one executed event toward the next width re-evaluation; re-buckets
  // the near set (returning true) when the event rate moved the regime.
  bool MaybeAdaptWidth();
  void Rebuild(int new_width_log2);
  // Drops cancelled events it passes (freeing their slots), migrates due far
  // events into buckets, and returns the location of the minimum live event
  // (including the same-tick ring). Returns kNone when nothing is live.
  MinRef CalendarPeek();
  // CalendarPeek minus the same-tick ring (buckets / run / far only).
  MinRef CalendarPeekQueues();
  void PurgeHeapTop();
  // Time of the next live event. Precondition: live_events_ > 0.
  SimTime PeekNextTime();
  // The one step behind Run, RunUntil, RunWhileBefore and RunNext: peeks
  // once, and if the minimum event is due at or before `last`, pops it and
  // runs it. Returns false (running nothing) otherwise.
  bool RunNextAtOrBefore(SimTime last);
  // Runs the popped event's body in place, then destroys it and frees the
  // slot.
  void Execute(const Event& ev);

  void MarkOccupied(size_t bucket) {
    occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
  }
  void ClearOccupied(size_t bucket) {
    occupied_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  size_t live_events_ = 0;
  EngineKind engine_;
  int width_log2_ = kDefaultWidthLog2;
  // Density shouldn't narrow buckets below this: raised when the window gets
  // too short to hold the live gap distribution (far-heap spill), lowered
  // again once the far list goes quiet.
  int width_floor_log2_ = kMinWidthLog2;
  uint64_t adapt_countdown_ = kAdaptInterval;
  SimTime adapt_window_start_ = 0;
  uint64_t near_inserts_ = 0;
  uint64_t far_inserts_ = 0;

  std::vector<Bucket> buckets_;
  std::vector<uint64_t> occupied_;  // Bitmap: one bit per bucket.
  // The active segment's events, swapped out of their bucket so the hot pop
  // path reads them in order (inserts that land in the active segment go to
  // the bucket vector and merge by comparison).
  std::vector<Event> run_;
  size_t run_head_ = 0;
  size_t active_index_ = kNoActive;
  // Absolute segment number of the active run (valid iff active_index_ is
  // set); DemoteActiveRun() triggers on inserts into earlier segments.
  uint64_t active_seg_ = 0;
  static constexpr size_t kNoActive = static_cast<size_t>(-1);
  // Same-tick FIFO ring: fresh events scheduled at exactly Now(). Always
  // sorted by seq (fresh schedules are seq-monotone) and always <= every
  // queued event's time, so the ring drains before Now() can advance.
  std::vector<Event> same_tick_;
  size_t same_tick_head_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> far_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  // Body pool: slot i's callable is bodies_[i / kPoolBlockEvents]
  // [i % kPoolBlockEvents]. Added one block at a time, never reallocated, so
  // a running body stays put while its callback schedules.
  std::vector<std::unique_ptr<InlineEvent[]>> bodies_;

  // The Simulation whose queue this instance schedules into: `this` for a
  // normal Simulation, the owner for a shard view.
  Simulation* queue_ = this;
  Rng rng_;
};

// Convenience: schedules `fn` every `period` until it returns false.
// The first invocation happens after `initial_delay`. Throws
// std::invalid_argument for period <= 0.
void SchedulePeriodic(Simulation& sim, SimDuration initial_delay, SimDuration period,
                      std::function<bool()> fn);

}  // namespace incod

#endif  // INCOD_SRC_SIM_SIMULATION_H_
