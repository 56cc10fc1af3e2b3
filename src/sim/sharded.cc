#include "src/sim/sharded.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace incod {
namespace {

// Sense-reversing spin barrier. Conservative rounds are microseconds of
// simulated time and often only dozens of events of real work, so the futex
// sleep/wake in std::barrier costs more than the round it fences; spin
// briefly and fall back to yield so oversubscribed hosts still progress.
class SpinBarrier {
 public:
  // Spinning only pays when every party can burn its own core; on an
  // oversubscribed host a waiter's spin quantum is exactly the time the
  // straggler needed, so yield immediately instead.
  explicit SpinBarrier(int parties)
      : parties_(parties),
        spin_limit_(std::thread::hardware_concurrency() >= static_cast<unsigned>(parties)
                        ? kSpinLimit
                        : 0) {}

  // The last arriver runs `completion` before releasing the others; arriving
  // release-publishes the caller's prior writes to the completion, and the
  // phase release-store publishes the completion's writes to every waiter.
  template <typename Completion>
  void ArriveAndWait(Completion&& completion) {
    const uint64_t phase = phase_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (++spins > spin_limit_) {
        std::this_thread::yield();
      }
    }
  }

  void ArriveAndWait() {
    ArriveAndWait([] {});
  }

 private:
  static constexpr int kSpinLimit = 4096;
  const int parties_;
  const int spin_limit_;
  std::atomic<int> arrived_{0};
  std::atomic<uint64_t> phase_{0};
};

// Derives shard i's RNG root from the run seed; both modes use the same
// derivation so components fork identical streams.
uint64_t ShardSeed(uint64_t seed, int shard) {
  uint64_t state = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shard + 1);
  return SplitMix64(&state);
}

SimTime SatAdd(SimTime a, SimTime b) {
  if (a >= Simulation::kNoEventTime - b) {
    return Simulation::kNoEventTime;
  }
  return a + b;
}

// Wrapper for cancellable deliveries: un-registers the (src, send_seq) entry
// when the event fires so the dst-side map only holds live deliveries.
struct CancellableRunner {
  std::map<std::pair<int, uint64_t>, uint64_t>* live;
  int src;
  uint64_t send_seq;
  InlineEvent fn;

  void operator()() {
    live->erase({src, send_seq});
    fn();
  }
};

}  // namespace

ShardedSimulation::ShardedSimulation(Options options)
    : options_(options), num_shards_(options.num_shards) {
  if (num_shards_ < 1) {
    throw std::invalid_argument("ShardedSimulation needs at least one shard");
  }
  if (options_.num_threads < 1) {
    options_.num_threads = 1;
  }
  if (options_.mode == Mode::kSingleQueue) {
    master_ = std::make_unique<Simulation>(options_.seed);
  }
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    auto state = std::make_unique<ShardState>();
    if (options_.mode == Mode::kSingleQueue) {
      state->sim = std::make_unique<Simulation>(master_.get(), ShardSeed(options_.seed, i));
    } else {
      state->sim = std::make_unique<Simulation>(ShardSeed(options_.seed, i));
      state->inbox.reserve(static_cast<size_t>(num_shards_));
      for (int src = 0; src < num_shards_; ++src) {
        state->inbox.push_back(std::make_unique<Mailbox>());
      }
    }
    shards_.push_back(std::move(state));
  }
  send_seq_.assign(static_cast<size_t>(num_shards_),
                   std::vector<uint64_t>(static_cast<size_t>(num_shards_), 0));
  live_cancellable_.assign(static_cast<size_t>(num_shards_),
                           std::vector<std::set<uint64_t>>(static_cast<size_t>(num_shards_)));
}

ShardedSimulation::~ShardedSimulation() = default;

uint64_t ShardedSimulation::SynthSeq(int src, uint64_t send_seq) {
  // (src, send_seq) must order lexicographically under one 64-bit key; posts
  // per pair are bounded far below 2^32 in any run.
  return Simulation::kExternalSeqBase + (static_cast<uint64_t>(src) << 32) + send_seq;
}

void ShardedSimulation::RegisterCrossShardLatency(SimDuration latency) {
  if (latency <= 0) {
    throw std::invalid_argument(
        "cross-shard latency must be > 0: zero lookahead cannot make progress");
  }
  lookahead_ = std::min(lookahead_, latency);
}

void ShardedSimulation::CheckLookahead(int src, SimTime deliver_at) const {
  if (lookahead_ == Simulation::kNoEventTime) {
    throw std::logic_error(
        "cross-shard post without a registered cross-shard latency");
  }
  const SimTime src_now = shards_[static_cast<size_t>(src)]->sim->Now();
  if (deliver_at < SatAdd(src_now, lookahead_)) {
    throw std::logic_error("cross-shard post violates the conservative lookahead bound");
  }
}

void ShardedSimulation::ApplyRecord(int dst, int src, MailRecord&& record) {
  ShardState& st = *shards_[static_cast<size_t>(dst)];
  Simulation& sim = *st.sim;
  if (record.is_cancel) {
    const auto it = st.cancellable.find({src, record.send_seq});
    if (it != st.cancellable.end()) {
      sim.Cancel(it->second);
      st.cancellable.erase(it);
    }
    return;
  }
  const uint64_t key = SynthSeq(src, record.send_seq);
  if (!record.cancellable) {
    sim.ScheduleAtExternal(record.at, key, std::move(record.fn));
    return;
  }
  const uint64_t id = sim.ScheduleAtExternal(
      record.at, key,
      InlineEvent(CancellableRunner{&st.cancellable, src, record.send_seq,
                                    std::move(record.fn)}));
  st.cancellable[{src, record.send_seq}] = id;
}

void ShardedSimulation::PostCrossShard(int src, int dst, SimTime deliver_at,
                                       InlineEvent fn) {
  CheckLookahead(src, deliver_at);
  const uint64_t seq = send_seq_[static_cast<size_t>(src)][static_cast<size_t>(dst)]++;
  MailRecord record;
  record.at = deliver_at;
  record.send_seq = seq;
  record.fn = std::move(fn);
  if (options_.mode == Mode::kSingleQueue) {
    ApplyRecord(dst, src, std::move(record));
    return;
  }
  Mailbox& mb = *shards_[static_cast<size_t>(dst)]->inbox[static_cast<size_t>(src)];
  std::lock_guard<std::mutex> lock(mb.mu);
  mb.records.push_back(std::move(record));
}

ShardedSimulation::CrossShardEventId ShardedSimulation::PostCrossShardCancellable(
    int src, int dst, SimTime deliver_at, InlineEvent fn) {
  CheckLookahead(src, deliver_at);
  const uint64_t seq = send_seq_[static_cast<size_t>(src)][static_cast<size_t>(dst)]++;
  MailRecord record;
  record.at = deliver_at;
  record.send_seq = seq;
  record.fn = std::move(fn);
  record.cancellable = true;
  live_cancellable_[static_cast<size_t>(src)][static_cast<size_t>(dst)].insert(seq);
  if (options_.mode == Mode::kSingleQueue) {
    ApplyRecord(dst, src, std::move(record));
  } else {
    Mailbox& mb = *shards_[static_cast<size_t>(dst)]->inbox[static_cast<size_t>(src)];
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.records.push_back(std::move(record));
  }
  return CrossShardEventId{src, dst, deliver_at, seq};
}

bool ShardedSimulation::CancelCrossShard(const CrossShardEventId& id) {
  if (id.src_shard < 0 || id.dst_shard < 0) {
    return false;
  }
  std::set<uint64_t>& live = live_cancellable_[static_cast<size_t>(id.src_shard)]
                                              [static_cast<size_t>(id.dst_shard)];
  if (live.find(id.send_seq) == live.end()) {
    return false;  // Already cancelled (or never posted as cancellable).
  }
  // Conservative rule: the cancel travels at lookahead latency; if it cannot
  // arrive before the delivery time, the event is (or will be) beyond reach.
  // In particular, a delivery that already fired always fails this check, so
  // a `true` return guarantees the cancel takes effect.
  const SimTime src_now = shards_[static_cast<size_t>(id.src_shard)]->sim->Now();
  if (SatAdd(src_now, lookahead_) > id.at) {
    return false;
  }
  live.erase(id.send_seq);
  MailRecord record;
  record.at = id.at;
  record.send_seq = id.send_seq;
  record.is_cancel = true;
  if (options_.mode == Mode::kSingleQueue) {
    ApplyRecord(id.dst_shard, id.src_shard, std::move(record));
    return true;
  }
  Mailbox& mb = *shards_[static_cast<size_t>(id.dst_shard)]
                     ->inbox[static_cast<size_t>(id.src_shard)];
  std::lock_guard<std::mutex> lock(mb.mu);
  mb.records.push_back(std::move(record));
  return true;
}

void ShardedSimulation::DrainInbox(int dst) {
  ShardState& st = *shards_[static_cast<size_t>(dst)];
  for (int src = 0; src < num_shards_; ++src) {
    Mailbox& mb = *st.inbox[static_cast<size_t>(src)];
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      if (mb.records.empty()) {
        continue;
      }
      st.scratch.clear();
      std::swap(st.scratch, mb.records);
    }
    // Lane order is push order, so a post always precedes its own cancel;
    // relative order across lanes is irrelevant (the synthesized sequence
    // keys decide execution order).
    for (MailRecord& record : st.scratch) {
      ApplyRecord(dst, src, std::move(record));
    }
  }
}

void ShardedSimulation::CompleteRound() noexcept {
  SimTime global_min = Simulation::kNoEventTime;
  for (const SimTime m : worker_min_) {
    global_min = std::min(global_min, m);
  }
  if (abort_.load(std::memory_order_relaxed) ||
      global_min == Simulation::kNoEventTime || global_min > target_) {
    done_ = true;
    return;
  }
  done_ = false;
  bound_ = std::min(SatAdd(global_min, lookahead_), SatAdd(target_, 1));
}

void ShardedSimulation::RunRounds(SimTime target) {
  const int threads = std::min(options_.num_threads, num_shards_);
  target_ = target;
  worker_min_.assign(static_cast<size_t>(threads), Simulation::kNoEventTime);
  done_ = false;
  abort_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;

  SpinBarrier horizon(threads);
  SpinBarrier round_end(threads);

  const auto worker = [&](int w) {
    for (;;) {
      SimTime local_min = Simulation::kNoEventTime;
      if (!abort_.load(std::memory_order_relaxed)) {
        try {
          for (int s = w; s < num_shards_; s += threads) {
            DrainInbox(s);
          }
          for (int s = w; s < num_shards_; s += threads) {
            local_min = std::min(local_min, SimOf(s).NextEventTime());
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu_);
            if (!first_error_) {
              first_error_ = std::current_exception();
            }
          }
          abort_.store(true, std::memory_order_relaxed);
          local_min = Simulation::kNoEventTime;
        }
      }
      worker_min_[static_cast<size_t>(w)] = local_min;
      horizon.ArriveAndWait(RoundCompletion{this});  // Computes bound_ / done_.
      if (done_) {
        return;
      }
      if (!abort_.load(std::memory_order_relaxed)) {
        try {
          for (int s = w; s < num_shards_; s += threads) {
            SimOf(s).RunWhileBefore(bound_);
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu_);
            if (!first_error_) {
              first_error_ = std::current_exception();
            }
          }
          abort_.store(true, std::memory_order_relaxed);
        }
      }
      round_end.ArriveAndWait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : pool) {
    t.join();
  }
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

void ShardedSimulation::Run() {
  if (options_.mode == Mode::kSingleQueue) {
    master_->Run();
    return;
  }
  RunRounds(Simulation::kNoEventTime);
}

void ShardedSimulation::RunUntil(SimTime t) {
  if (options_.mode == Mode::kSingleQueue) {
    master_->RunUntil(t);
    return;
  }
  RunRounds(t);
  for (auto& shard : shards_) {
    shard->sim->AdvanceNowTo(t);
  }
}

SimTime ShardedSimulation::Now() const {
  if (options_.mode == Mode::kSingleQueue) {
    return master_->Now();
  }
  SimTime now = Simulation::kNoEventTime;
  for (const auto& shard : shards_) {
    now = std::min(now, shard->sim->Now());
  }
  return now;
}

uint64_t ShardedSimulation::events_executed() const {
  if (options_.mode == Mode::kSingleQueue) {
    return master_->events_executed();
  }
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sim->events_executed();
  }
  return total;
}

size_t ShardedSimulation::pending_events() const {
  if (options_.mode == Mode::kSingleQueue) {
    return master_->pending_events();
  }
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sim->pending_events();
  }
  return total;
}

}  // namespace incod
