// Paxos role state machines (pure logic, transport-agnostic).
//
// The same LeaderState / AcceptorState / LearnerState back every deployment
// in the study — libpaxos-style kernel software, the DPDK variant, P4xos on
// the FPGA NIC, and P4xos on the switch ASIC — so a migrated role behaves
// identically wherever it runs. Each handler returns an outbox of messages;
// the deployment wrapper owns actual transmission and timers.
//
// Bounded state. Like P4xos's fixed-size register arrays, an acceptor keeps
// a ring of AcceptorState::kWindow cells indexed by `instance mod kWindow`,
// each tagged with the instance it holds, so its memory is flat in run
// length. A learner drops every instance once it is delivered and
// contiguous, so its live slots span only the out-of-order window.
//
// The trim rule. An instance is *below the window* when its ring cell holds
// a newer instance. For such an instance the acceptor neither promises nor
// votes and leaves the cell alone; it answers a Phase1a or Phase2a with
// exactly one Phase1b to the leader service carrying `round = msg.round`,
// `vround = 0` and its last-voted instance (the §9.2 sequence hint), and
// counts the event in trimmed_requests(). This is safe because the window
// (0.65 s at 100 kpps) far outlasts the learner's 50 ms gap timeout and no
// acceptor ever votes on a trimmed instance again: a no-op the leader
// proposes for one can never be learned.
#ifndef INCOD_SRC_PAXOS_ROLES_H_
#define INCOD_SRC_PAXOS_ROLES_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/app/app_state.h"
#include "src/paxos/paxos_msg.h"
#include "src/sim/time.h"

namespace incod {

// ---------------------------------------------------------------- Leader --
// Coordinator: assigns instance numbers to client values and runs phase 2.
// A newly elected leader "starts with an initial sequence number of 1 and
// must learn the next sequence number that it can use" (§9.2) from the
// acceptors' piggybacked last-voted instance.
class LeaderState {
 public:
  LeaderState(PaxosGroupConfig config, uint16_t ballot);

  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg);

  // Fresh start after a migration: instance counter back to 1; in-flight
  // recovery state dropped. The ballot must exceed any prior leader's.
  void Reset(uint16_t new_ballot);

  // Begins sequence learning after a Reset: *gates client proposals* —
  // "the new leader fails to propose until it learns the latest Paxos
  // instance from the acceptors" (§9.2). With `send_probe` (an extension
  // over the paper), a phase-1 probe actively solicits a quorum of replies
  // whose piggybacked last-voted hints teach the next usable instance
  // within one round trip; any decided instance has voters in every quorum,
  // so the learned sequence cannot collide with a decided instance.
  // Without the probe (the paper's behaviour), the leader waits passively;
  // the deployment un-gates it after a timeout via AbandonSequenceLearning
  // and the first proposals teach the sequence through acceptor hints and
  // client retries — producing Fig 7's ~100 ms gap.
  std::vector<PaxosOut> StartSequenceLearning(bool send_probe = true);
  // Gives up waiting: releases (proposes) any buffered client requests at
  // the current — possibly stale — sequence position.
  std::vector<PaxosOut> AbandonSequenceLearning();
  bool awaiting_sequence() const { return awaiting_sequence_; }

  // App state contract: capture / install ballot and sequence position.
  // Restoring drops in-flight recovery state (like Reset) but continues at
  // the snapshot's sequence instead of re-learning from 1.
  void SaveTo(PaxosAppState& state) const;
  void RestoreFrom(const PaxosAppState& state);

  uint32_t next_instance() const { return next_instance_; }
  uint16_t ballot() const { return ballot_; }
  uint64_t proposals_sent() const { return proposals_; }
  uint64_t sequence_jumps() const { return sequence_jumps_; }

 private:
  struct Recovery {
    std::set<uint32_t> promised;  // Acceptor ids that answered phase 1.
    uint16_t highest_vround = 0;
    PaxosValue value = kPaxosNoop;
    NodeId client = 0;
    bool phase2_started = false;
  };

  std::vector<PaxosOut> Propose(uint32_t instance, PaxosValue value, NodeId client);
  void LearnFrom(const PaxosMessage& msg);

  PaxosGroupConfig config_;
  uint16_t ballot_;
  uint32_t next_instance_ = 1;
  std::map<uint32_t, Recovery> recoveries_;
  bool awaiting_sequence_ = false;
  std::set<uint32_t> probe_promises_;
  std::vector<PaxosMessage> pending_requests_;  // Buffered while learning.
  uint64_t proposals_ = 0;
  uint64_t sequence_jumps_ = 0;
};

// -------------------------------------------------------------- Acceptor --
class AcceptorState {
 public:
  // Ring cells; the window of instances an acceptor remembers.
  static constexpr uint32_t kWindow = 1u << 16;

  AcceptorState(PaxosGroupConfig config, uint32_t acceptor_id);

  // Instance 0 means "none" and is ignored.
  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg);

  uint32_t last_voted_instance() const { return last_voted_instance_; }
  uint32_t acceptor_id() const { return acceptor_id_; }
  size_t stored_instances() const { return stored_; }
  // Phase1a/Phase2a requests answered under the trim rule.
  uint64_t trimmed_requests() const { return trimmed_requests_; }

  // App state contract: the live cells' vote log, sorted by instance.
  void SaveTo(PaxosAppState& state) const;
  void RestoreFrom(const PaxosAppState& state);

 private:
  struct Slot {
    uint32_t instance = 0;  // Tag; 0: empty cell.
    uint16_t rnd = 0;       // Highest promised round.
    uint16_t vrnd = 0;      // Round of the accepted value (0: none).
    PaxosValue value = kPaxosNoop;
    NodeId client = 0;
  };

  // The cell for `instance`, reset if it held an older one; nullptr when
  // the instance is below the window. Allocates the ring on first use.
  Slot* Cell(uint32_t instance);
  PaxosMessage MakePhase1b(uint32_t instance, const Slot& slot) const;

  PaxosGroupConfig config_;
  uint32_t acceptor_id_;
  uint32_t last_voted_instance_ = 0;
  std::vector<Slot> ring_;  // kWindow cells once allocated.
  size_t stored_ = 0;       // Non-empty cells.
  uint64_t trimmed_requests_ = 0;
};

// --------------------------------------------------------------- Learner --
class LearnerState {
 public:
  explicit LearnerState(PaxosGroupConfig config);

  std::vector<PaxosOut> HandleMessage(const PaxosMessage& msg, SimTime now);

  // Periodic gap scan (§9.2): asks the leader to re-initiate undecided
  // instances older than `gap_timeout`. Rate-limited per instance.
  std::vector<PaxosOut> CheckGaps(SimTime now, SimDuration gap_timeout);

  uint64_t delivered_count() const { return delivered_count_; }
  uint64_t noop_count() const { return noop_count_; }
  uint32_t highest_contiguous() const { return highest_contiguous_; }
  uint32_t highest_seen() const { return highest_seen_; }
  uint64_t fill_requests_sent() const { return fill_requests_; }
  // Undelivered or out-of-order instances still held (above the cut).
  size_t pending_instances() const { return slots_.size(); }

 private:
  struct Vote {
    uint32_t acceptor = 0;
    uint16_t round = 0;
    PaxosValue value = kPaxosNoop;
  };
  struct Slot {
    std::vector<Vote> votes;  // Latest vote per acceptor.
    bool delivered = false;
    PaxosValue value = kPaxosNoop;
    NodeId client = 0;
    SimTime last_fill_request = 0;
  };

  std::vector<PaxosOut> Deliver(uint32_t instance, Slot& slot);

  PaxosGroupConfig config_;
  std::map<uint32_t, Slot> slots_;  // Instances above highest_contiguous_.
  uint32_t highest_contiguous_ = 0;
  uint32_t highest_seen_ = 0;
  uint64_t delivered_count_ = 0;
  uint64_t noop_count_ = 0;
  uint64_t fill_requests_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_ROLES_H_
