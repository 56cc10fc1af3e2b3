// Sharded parallel simulation engine (conservative PDES).
//
// A ShardedSimulation partitions the event space into per-shard calendar
// queues — one shard per rack / topology partition — run by a worker-thread
// pool and synchronized by conservative lookahead: the minimum cross-shard
// Link propagation delay L. Execution proceeds in rounds:
//
//   1. Each worker drains its shards' mailboxes (cross-shard deliveries and
//      cancels posted by the previous round) and reports its earliest
//      pending event time.
//   2. A barrier completion computes the global safe horizon
//      H = min(next event across shards) + L; since any event executing at
//      t < H can only post cross-shard work at t + L >= H, every shard may
//      run all events strictly before H without missing a delivery.
//   3. Workers run their shards up to H and post new cross-shard records
//      into mutex-striped single-writer mailboxes; a second barrier closes
//      the round.
//
// Determinism: the parallel engine must be event-identical to the
// single-queue reference (Mode::kSingleQueue), which runs every shard in one
// ordinary Simulation. Two mechanisms make the orders coincide exactly:
//
//  * Cross-shard tie-breaking. A delivery from shard `src` carries the
//    synthesized sequence key kExternalSeqBase + (src << 32) + send_seq
//    (send_seq counts posts per (src, dst) pair). At equal delivery time,
//    cross-shard events therefore order after all receiver-local events and
//    among themselves by (source shard, send order) — independent of thread
//    interleaving. The single-queue mode posts through the same path, so the
//    tie-break is identical by construction.
//
//  * Per-shard RNG streams. shard(i) owns an RNG root derived from
//    (seed, i); in single-queue mode shard(i) is a view onto the master
//    queue with the same derived root. Components fork from their shard's
//    root, so both modes draw identical sequences.
//
// Cross-shard cancel follows the same conservative rule as data: a cancel
// issued at time t_c "travels" at latency L and takes effect only if
// t_c + L <= delivery time. The bound makes a successful cancel provably
// race-free (the target cannot have fired yet) and gives both modes the
// same accept/reject decision.
#ifndef INCOD_SRC_SIM_SHARDED_H_
#define INCOD_SRC_SIM_SHARDED_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/inline_event.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace incod {

class ShardedSimulation {
 public:
  enum class Mode {
    kSingleQueue,  // Reference: all shards share one deterministic queue.
    kParallel,     // One queue per shard, worker threads, lookahead rounds.
  };

  struct Options {
    int num_shards = 1;
    int num_threads = 1;  // Worker pool size in kParallel mode.
    Mode mode = Mode::kParallel;
    uint64_t seed = 1;
  };

  // Handle for a cancellable cross-shard event (PostCrossShardCancellable).
  struct CrossShardEventId {
    int src_shard = -1;
    int dst_shard = -1;
    SimTime at = 0;
    uint64_t send_seq = 0;
  };

  explicit ShardedSimulation(Options options);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int num_shards() const { return num_shards_; }
  Mode mode() const { return options_.mode; }

  // The Simulation components in shard `i` schedule into. In kParallel mode
  // a private queue; in kSingleQueue mode a view onto the shared master
  // queue. Either way it owns shard i's RNG root. Throws std::out_of_range
  // outside [0, num_shards()).
  Simulation& shard(int i) {
    if (i < 0 || i >= num_shards_) {
      throw std::out_of_range("ShardedSimulation: shard " + std::to_string(i) +
                              " outside [0, " + std::to_string(num_shards_) + ")");
    }
    return *shards_[static_cast<size_t>(i)]->sim;
  }

  // Declares a cross-shard latency (e.g. a Link's propagation delay whose
  // endpoints live in different shards). The lookahead is the minimum of all
  // registered latencies; it must be > 0 for conservative synchronization to
  // make progress.
  void RegisterCrossShardLatency(SimDuration latency);

  // Current lookahead, or Simulation::kNoEventTime when no cross-shard
  // latency has been registered.
  SimDuration lookahead() const { return lookahead_; }

  // Posts `fn` to run in shard `dst` at `deliver_at`. Must be called from
  // shard `src` (i.e. from an event executing there, or during setup), and
  // deliver_at must respect the lookahead bound: deliver_at >= src now + L.
  // Throws std::logic_error on a lookahead violation.
  void PostCrossShard(int src, int dst, SimTime deliver_at, InlineEvent fn);

  // As PostCrossShard, but the delivery can be cancelled with
  // CancelCrossShard until L before its delivery time.
  CrossShardEventId PostCrossShardCancellable(int src, int dst, SimTime deliver_at,
                                              InlineEvent fn);

  // Cancels a cancellable cross-shard delivery. Must be called from the
  // source shard. Returns true iff the cancel is timely (now + L <= delivery
  // time) and the delivery had not already been cancelled; a timely cancel
  // is guaranteed to take effect.
  bool CancelCrossShard(const CrossShardEventId& id);

  // Runs until every shard's queue is empty.
  void Run();

  // Runs all events with time <= t, then advances every shard clock to t.
  void RunUntil(SimTime t);

  // Minimum shard clock (informational; shard clocks advance independently
  // between synchronization points).
  SimTime Now() const;

  uint64_t events_executed() const;
  size_t pending_events() const;

 private:
  struct MailRecord {
    SimTime at = 0;
    uint64_t send_seq = 0;
    InlineEvent fn;
    bool cancellable = false;
    bool is_cancel = false;
  };
  // One mailbox per (dst, src) shard pair: single writer (src's worker),
  // single reader (dst's worker), so one mutex per lane never contends on
  // the hot path beyond the uncontended lock cost.
  struct Mailbox {
    std::mutex mu;
    std::vector<MailRecord> records;
  };
  struct ShardState {
    std::unique_ptr<Simulation> sim;
    std::vector<std::unique_ptr<Mailbox>> inbox;  // Indexed by src shard.
    // Live cancellable deliveries addressed to this shard:
    // (src, send_seq) -> local event id. Touched only by the owning worker.
    std::map<std::pair<int, uint64_t>, uint64_t> cancellable;
    std::vector<MailRecord> scratch;  // Drain buffer, ping-pongs with lanes.
  };
  struct RoundCompletion {
    ShardedSimulation* owner;
    void operator()() noexcept { owner->CompleteRound(); }
  };
  friend struct RoundCompletion;

  static uint64_t SynthSeq(int src, uint64_t send_seq);

  Simulation& SimOf(int shard) { return *shards_[static_cast<size_t>(shard)]->sim; }
  void CheckLookahead(int src, SimTime deliver_at) const;
  // Applies one mailbox record to shard `dst` (schedules a post / resolves a
  // cancel). Shared by the parallel drain and the single-queue direct path.
  void ApplyRecord(int dst, int src, MailRecord&& record);
  void DrainInbox(int dst);
  void RunRounds(SimTime target);
  void CompleteRound() noexcept;

  Options options_;
  int num_shards_;
  SimDuration lookahead_ = Simulation::kNoEventTime;
  std::unique_ptr<Simulation> master_;  // kSingleQueue only.
  std::vector<std::unique_ptr<ShardState>> shards_;
  // send_seq_[src][dst]: posts per shard pair; written only from src.
  std::vector<std::vector<uint64_t>> send_seq_;
  // Cancellable posts not yet cancelled, src-side: [src][dst] -> send_seqs.
  // Only the source shard touches its row, so the double-cancel answer is
  // thread-free and identical across modes. Entries for deliveries that
  // fired linger (the source cannot observe the firing), which is fine:
  // cancels against them fail the lookahead timeliness check.
  std::vector<std::vector<std::set<uint64_t>>> live_cancellable_;

  // Round state (kParallel): written by workers before the first barrier /
  // by its completion, read after — the barrier orders every access.
  SimTime target_ = 0;
  std::vector<SimTime> worker_min_;
  SimTime bound_ = 0;
  bool done_ = false;
  std::atomic<bool> abort_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace incod

#endif  // INCOD_SRC_SIM_SHARDED_H_
