#include "src/sim/simulation.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>

namespace incod {

Simulation::Simulation(uint64_t seed, EngineKind engine) : engine_(engine), rng_(seed) {
  if (engine_ == EngineKind::kCalendar) {
    buckets_.resize(kNumBuckets);
    occupied_.assign(kNumBuckets / 64, 0);
  }
}

Simulation::Simulation(Simulation* queue_owner, uint64_t seed)
    : engine_(queue_owner->engine_), queue_(queue_owner), rng_(seed) {}

bool Simulation::Cancel(uint64_t id) {
  if (queue_ != this) {
    return queue_->Cancel(id);
  }
  const uint32_t slot = static_cast<uint32_t>(id >> 32);
  const uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) {
    return false;  // Never scheduled.
  }
  Slot& s = slots_[slot];
  if (s.gen != gen || s.state != kPending) {
    return false;  // Already ran, already cancelled, or a stale id.
  }
  // The key stays in its bucket/heap and is discarded (freeing the slot)
  // when it surfaces; the body and its captures go now.
  s.state = kCancelled;
  Body(slot).Reset();
  --live_events_;
  return true;
}

uint32_t Simulation::AllocSlot() {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{});
    if (slot % kPoolBlockEvents == 0) {
      bodies_.push_back(std::make_unique<InlineEvent[]>(kPoolBlockEvents));
    }
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].state = kPending;
  return slot;
}

void Simulation::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = kFree;
  if (++s.gen == 0) {
    s.gen = 1;  // Keep ids nonzero so Cancel(0) stays a guaranteed no-op.
  }
  free_slots_.push_back(slot);
}

uint64_t Simulation::ScheduleAtExternal(SimTime at, uint64_t external_seq, InlineEvent fn) {
  Simulation& q = *queue_;
  if (at < q.now_) {
    at = q.now_;
  }
  const uint32_t slot = q.AllocSlot();
  q.Body(slot) = std::move(fn);
  const uint64_t id = EncodeId(slot, q.slots_[slot].gen);
  ++q.live_events_;
  // External seqs must stay above every local seq and must not enter the
  // same-tick ring (they would break its seq-monotone order).
  const Event key{at, external_seq, slot};
  if (q.engine_ == EngineKind::kHeap) {
    q.heap_.push(key);
  } else {
    q.InsertCalendar(key);
  }
  return id;
}

void Simulation::DemoteActiveRun() {
  // Both ranges are sorted by (at, seq); merge them back into the bucket.
  // Safe even mid-peek: callers re-read active_index_ afterwards.
  Bucket& b = buckets_[active_index_];
  std::vector<Event> merged;
  merged.reserve((run_.size() - run_head_) + (b.items.size() - b.head));
  std::merge(run_.begin() + static_cast<ptrdiff_t>(run_head_), run_.end(),
             b.items.begin() + static_cast<ptrdiff_t>(b.head), b.items.end(),
             std::back_inserter(merged),
             [](const Event& x, const Event& y) { return EventBefore(x, y); });
  b.items = std::move(merged);
  b.head = 0;
  if (b.items.empty()) {
    ClearOccupied(active_index_);
  } else {
    MarkOccupied(active_index_);
  }
  run_.clear();
  run_head_ = 0;
  active_index_ = kNoActive;
}

void Simulation::InsertSorted(Bucket& b, const Event& ev) {
  const auto pos = std::upper_bound(
      b.items.begin() + static_cast<ptrdiff_t>(b.head), b.items.end(), ev,
      [](const Event& value, const Event& elem) { return EventBefore(value, elem); });
  b.items.insert(pos, ev);
}

Simulation::MinRef Simulation::CalendarPeek() {
  // Purge cancelled ring entries up front so the front compare below sees a
  // live event (ring entries sit at Now(), the earliest possible time).
  while (same_tick_head_ < same_tick_.size() &&
         SlotCancelled(same_tick_[same_tick_head_].slot)) {
    FreeSlot(same_tick_[same_tick_head_].slot);
    ++same_tick_head_;
  }
  if (same_tick_head_ == same_tick_.size() && !same_tick_.empty()) {
    same_tick_.clear();
    same_tick_head_ = 0;
  }
  MinRef m = CalendarPeekQueues();
  if (same_tick_head_ < same_tick_.size()) {
    const Event& front = same_tick_[same_tick_head_];
    // Queued events at Now() with a smaller seq (scheduled earlier for this
    // tick) still win; the ring only holds fresh (largest-seq) schedules.
    if (m.kind == MinKind::kNone || EventBefore(front, *m.ev)) {
      return MinRef{&front, MinKind::kSameTick};
    }
  }
  return m;
}

Simulation::MinRef Simulation::CalendarPeekQueues() {
  // Migrate far events whose segment entered the near window, dropping any
  // that were cancelled while waiting.
  const uint64_t base_seg = Segment(now_);
  while (!far_.empty() && Segment(far_.top().at) < base_seg + kNumBuckets) {
    const Event ev = far_.top();
    far_.pop();
    if (SlotCancelled(ev.slot)) {
      FreeSlot(ev.slot);
      continue;
    }
    InsertCalendar(ev);
  }
  for (;;) {
    if (active_index_ != kNoActive) {
      // Fast path: the active segment holds the minimum until both of its
      // streams drain. Inserts into an earlier segment (possible only out of
      // band, e.g. a mailbox drain) demote the run first, so reaching here
      // means no live event precedes the active segment.
      Bucket& b = buckets_[active_index_];
      while (run_head_ < run_.size() && SlotCancelled(run_[run_head_].slot)) {
        FreeSlot(run_[run_head_].slot);
        ++run_head_;
      }
      while (b.head < b.items.size() && SlotCancelled(b.items[b.head].slot)) {
        FreeSlot(b.items[b.head].slot);
        ++b.head;
      }
      const bool run_ok = run_head_ < run_.size();
      const bool items_ok = b.head < b.items.size();
      if (run_ok && (!items_ok || EventBefore(run_[run_head_], b.items[b.head]))) {
        return MinRef{&run_[run_head_], MinKind::kRun};
      }
      if (items_ok) {
        if (!run_ok) {
          // Roll the remaining same-segment inserts into the run.
          run_.clear();
          run_head_ = b.head;
          std::swap(run_, b.items);
          b.head = 0;
          return MinRef{&run_[run_head_], MinKind::kRun};
        }
        return MinRef{&b.items[b.head], MinKind::kItems};
      }
      run_.clear();
      run_head_ = 0;
      b.items.clear();
      b.head = 0;
      ClearOccupied(active_index_);
      active_index_ = kNoActive;
    }
    // Scan the occupancy bitmap from the bucket holding Now() forward. All
    // live bucketed events sit within the next kNumBuckets segments, so the
    // first occupied bucket in circular order holds the earliest one.
    // Buckets behind Now() can only hold already-cancelled leftovers; they
    // purge to empty when the scan reaches them.
    constexpr size_t kWords = kNumBuckets / 64;
    const size_t base = static_cast<size_t>(base_seg) & kBucketMask;
    size_t word = base >> 6;
    uint64_t mask = ~uint64_t{0} << (base & 63);
    for (size_t w = 0; w <= kWords; ++w) {
      uint64_t bits = occupied_[word] & mask;
      while (bits != 0) {
        const size_t bucket = (word << 6) + static_cast<size_t>(std::countr_zero(bits));
        Bucket& b = buckets_[bucket];
        while (b.head < b.items.size() && SlotCancelled(b.items[b.head].slot)) {
          FreeSlot(b.items[b.head].slot);
          ++b.head;
        }
        if (b.head == b.items.size()) {
          b.items.clear();
          b.head = 0;
          ClearOccupied(bucket);
          bits &= bits - 1;
          continue;
        }
        // Found the minimum segment: make it the active run.
        active_index_ = bucket;
        run_.clear();
        run_head_ = b.head;
        std::swap(run_, b.items);
        b.head = 0;
        active_seg_ = Segment(run_[run_head_].at);
        return MinRef{&run_[run_head_], MinKind::kRun};
      }
      ++word;
      if (word == kWords) {
        word = 0;
      }
      mask = ~uint64_t{0};
    }
    // No live near event: the minimum is the far top (purged of cancelled
    // entries below). Far events all sit beyond the near window, so any near
    // candidate would have won the comparison anyway.
    while (!far_.empty() && SlotCancelled(far_.top().slot)) {
      FreeSlot(far_.top().slot);
      far_.pop();
    }
    if (far_.empty()) {
      return MinRef{nullptr, MinKind::kNone};
    }
    return MinRef{&far_.top(), MinKind::kFar};
  }
}

void Simulation::PurgeHeapTop() {
  while (!heap_.empty() && SlotCancelled(heap_.top().slot)) {
    FreeSlot(heap_.top().slot);
    heap_.pop();
  }
}

SimTime Simulation::PeekNextTime() {
  if (engine_ == EngineKind::kHeap) {
    PurgeHeapTop();
    return heap_.top().at;
  }
  return CalendarPeek().ev->at;
}

bool Simulation::MaybeAdaptWidth() {
  if (--adapt_countdown_ != 0) {
    return false;
  }
  adapt_countdown_ = kAdaptInterval;
  const uint64_t span = static_cast<uint64_t>(now_ - adapt_window_start_);
  adapt_window_start_ = now_;
  const uint64_t inserts = near_inserts_ + far_inserts_;
  // A busy far heap means the near window is too short for the live gap
  // distribution (it should only hold long timers): raise the width floor.
  // A quiet one lets the floor decay so a density burst can narrow again.
  if (far_inserts_ * 4 > inserts) {
    width_floor_log2_ = std::min(width_log2_ + 1, kMaxWidthLog2);
  } else if (far_inserts_ * 64 < inserts && width_floor_log2_ > kMinWidthLog2) {
    --width_floor_log2_;
  }
  near_inserts_ = 0;
  far_inserts_ = 0;
  // Average inter-event gap over the last interval; aim for ~2 events per
  // bucket (bit_width(gap) == floor(log2) + 1).
  const uint64_t gap = span / kAdaptInterval;
  int target = gap == 0 ? kMinWidthLog2 : std::bit_width(gap);
  target = std::clamp(target, width_floor_log2_, kMaxWidthLog2);
  if (target > width_log2_ + 1 || target < width_log2_ - 1 ||
      (target > width_log2_ && target == width_floor_log2_)) {
    Rebuild(target);
    return true;
  }
  return false;
}

void Simulation::Rebuild(int new_width_log2) {
  std::vector<Event> pending;
  pending.reserve(live_events_);
  for (size_t j = run_head_; j < run_.size(); ++j) {
    if (SlotCancelled(run_[j].slot)) {
      FreeSlot(run_[j].slot);
    } else {
      pending.push_back(run_[j]);
    }
  }
  run_.clear();
  run_head_ = 0;
  active_index_ = kNoActive;
  // Ring entries re-enter through the bucket path (their at == Now()); the
  // ring must stay fresh-schedules-only so its seq order holds.
  for (size_t j = same_tick_head_; j < same_tick_.size(); ++j) {
    if (SlotCancelled(same_tick_[j].slot)) {
      FreeSlot(same_tick_[j].slot);
    } else {
      pending.push_back(same_tick_[j]);
    }
  }
  same_tick_.clear();
  same_tick_head_ = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    Bucket& b = buckets_[i];
    for (size_t j = b.head; j < b.items.size(); ++j) {
      if (SlotCancelled(b.items[j].slot)) {
        FreeSlot(b.items[j].slot);
      } else {
        pending.push_back(b.items[j]);
      }
    }
    b.items.clear();
    b.head = 0;
  }
  std::fill(occupied_.begin(), occupied_.end(), 0);
  width_log2_ = new_width_log2;
  // Reinsert under the new geometry; events past the (new) window spill to
  // the far heap, and far events now inside it migrate back on the next
  // peek.
  for (const Event& ev : pending) {
    InsertCalendar(ev);
  }
}

void Simulation::Execute(const Event& ev) {
  --live_events_;
  slots_[ev.slot].state = kRunning;
  now_ = ev.at;
  ++events_executed_;
  // Frees the slot only once the body returned (or threw): until then the
  // body is in use, and a schedule made by it must not reuse the slot.
  struct Release {
    Simulation* sim;
    uint32_t slot;
    ~Release() {
      sim->Body(slot).Reset();
      sim->FreeSlot(slot);
    }
  } release{this, ev.slot};
  Body(ev.slot)();
}

bool Simulation::RunNextAtOrBefore(SimTime last) {
  if (live_events_ == 0) {
    return false;
  }
  if (engine_ == EngineKind::kHeap) {
    PurgeHeapTop();
    const Event ev = heap_.top();
    if (ev.at > last) {
      return false;
    }
    heap_.pop();
    Execute(ev);
    return true;
  }
  MinRef m = CalendarPeek();
  if (m.ev->at > last) {
    return false;
  }
  // Width adaptation counts executed events only. A Rebuild relocates every
  // queued key, so peek again; the minimum itself cannot change.
  if (MaybeAdaptWidth()) {
    m = CalendarPeek();
  }
  const Event ev = *m.ev;
  switch (m.kind) {
    case MinKind::kRun:
      ++run_head_;
      break;
    case MinKind::kItems:
      ++buckets_[active_index_].head;
      break;
    case MinKind::kFar:
      far_.pop();
      break;
    case MinKind::kSameTick:
      ++same_tick_head_;
      if (same_tick_head_ == same_tick_.size()) {
        same_tick_.clear();
        same_tick_head_ = 0;
      }
      break;
    case MinKind::kNone:
      return false;
  }
  Execute(ev);
  return true;
}

bool Simulation::RunNext() {
  return queue_->RunNextAtOrBefore(kNoEventTime);
}

void Simulation::Run() {
  while (RunNext()) {
  }
}

void Simulation::RunUntil(SimTime t) {
  Simulation& q = *queue_;
  while (q.RunNextAtOrBefore(t)) {
  }
  if (q.now_ < t) {
    q.now_ = t;
  }
}

void Simulation::RunWhileBefore(SimTime bound) {
  Simulation& q = *queue_;
  // Event times are never negative, so bound <= 0 runs nothing (and bound - 1
  // cannot underflow).
  if (bound <= 0) {
    return;
  }
  while (q.RunNextAtOrBefore(bound - 1)) {
  }
}

void Simulation::AdvanceNowTo(SimTime t) {
  Simulation& q = *queue_;
  if (q.now_ < t) {
    q.now_ = t;
  }
}

SimTime Simulation::NextEventTime() {
  Simulation& q = *queue_;
  if (q.live_events_ == 0) {
    return kNoEventTime;
  }
  return q.PeekNextTime();
}

void SchedulePeriodic(Simulation& sim, SimDuration initial_delay, SimDuration period,
                      std::function<bool()> fn) {
  if (period <= 0) {
    // Every tick would land at the same instant: the run could never advance.
    throw std::invalid_argument("SchedulePeriodic: period must be > 0");
  }
  auto shared = std::make_shared<std::function<bool()>>(std::move(fn));
  // Self-rescheduling callable; stops when the callback returns false.
  struct Rescheduler {
    Simulation& sim;
    SimDuration period;
    std::shared_ptr<std::function<bool()>> fn;
    void operator()() const {
      if ((*fn)()) {
        sim.Schedule(period, Rescheduler{sim, period, fn});
      }
    }
  };
  sim.Schedule(initial_delay, Rescheduler{sim, period, shared});
}

}  // namespace incod
