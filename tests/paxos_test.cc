// Tests for the Paxos role state machines: protocol correctness, the §9.2
// migration extensions, and a randomized safety property.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "src/paxos/paxos_msg.h"
#include "src/paxos/roles.h"
#include "src/sim/random.h"

namespace incod {
namespace {

PaxosGroupConfig ThreeAcceptorGroup() {
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  return group;
}

PaxosMessage ClientRequest(PaxosValue value, NodeId client = 100) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kClientRequest;
  msg.value = value;
  msg.client = client;
  return msg;
}

TEST(PaxosConfigTest, QuorumSizes) {
  PaxosGroupConfig group = ThreeAcceptorGroup();
  EXPECT_EQ(group.QuorumSize(), 2u);
  group.acceptors = {1, 2, 3, 4, 5};
  EXPECT_EQ(group.QuorumSize(), 3u);
  group.acceptors = {1};
  EXPECT_EQ(group.QuorumSize(), 1u);
}

TEST(LeaderTest, AssignsMonotonicInstances) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  const auto out1 = leader.HandleMessage(ClientRequest(1001));
  const auto out2 = leader.HandleMessage(ClientRequest(1002));
  ASSERT_EQ(out1.size(), 3u);  // 2a to each acceptor.
  ASSERT_EQ(out2.size(), 3u);
  EXPECT_EQ(out1[0].msg.type, PaxosMsgType::kPhase2a);
  EXPECT_EQ(out1[0].msg.instance, 1u);
  EXPECT_EQ(out2[0].msg.instance, 2u);
  EXPECT_EQ(out1[0].msg.value, 1001u);
  EXPECT_EQ(leader.next_instance(), 3u);
}

TEST(LeaderTest, LearnsSequenceFromPhase1bHint) {
  LeaderState leader(ThreeAcceptorGroup(), 2);
  PaxosMessage hint;
  hint.type = PaxosMsgType::kPhase1b;
  hint.instance = 1;
  hint.last_voted_instance = 500;  // §9.2: acceptor piggyback.
  leader.HandleMessage(hint);
  EXPECT_EQ(leader.next_instance(), 501u);
  EXPECT_EQ(leader.sequence_jumps(), 1u);
  // Next proposal uses the learned sequence.
  const auto out = leader.HandleMessage(ClientRequest(1));
  EXPECT_EQ(out[0].msg.instance, 501u);
}

TEST(LeaderTest, StaleHintDoesNotRegress) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  for (int i = 0; i < 10; ++i) {
    leader.HandleMessage(ClientRequest(static_cast<PaxosValue>(i + 1)));
  }
  PaxosMessage hint;
  hint.type = PaxosMsgType::kPhase1b;
  hint.last_voted_instance = 3;  // Older than what we've assigned.
  leader.HandleMessage(hint);
  EXPECT_EQ(leader.next_instance(), 11u);
}

TEST(LeaderTest, ResetStartsFromOne) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  leader.HandleMessage(ClientRequest(1));
  leader.Reset(2);
  EXPECT_EQ(leader.next_instance(), 1u);  // §9.2.
  EXPECT_EQ(leader.ballot(), 2u);
  EXPECT_THROW(leader.Reset(2), std::invalid_argument);  // Must increase.
}

TEST(LeaderTest, FillRequestRunsPhase1) {
  LeaderState leader(ThreeAcceptorGroup(), 3);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 7;
  const auto out = leader.HandleMessage(fill);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1a);
  EXPECT_EQ(out[0].msg.instance, 7u);
  EXPECT_EQ(out[0].msg.round, 3u);
  // The fill also teaches the sequence past the gap.
  EXPECT_EQ(leader.next_instance(), 8u);
}

TEST(LeaderTest, Phase1QuorumReproposesHighestVotedValue) {
  LeaderState leader(ThreeAcceptorGroup(), 5);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 2;
  leader.HandleMessage(fill);
  // Two promises: acceptor 0 never voted; acceptor 1 voted value 77 at
  // round 4.
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 2;
  p0.round = 5;
  p0.sender_id = 0;
  const auto out0 = leader.HandleMessage(p0);
  EXPECT_TRUE(out0.empty());  // No quorum yet.
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  p1.vround = 4;
  p1.value = 77;
  p1.client = 100;
  const auto out1 = leader.HandleMessage(p1);
  ASSERT_EQ(out1.size(), 3u);
  EXPECT_EQ(out1[0].msg.type, PaxosMsgType::kPhase2a);
  EXPECT_EQ(out1[0].msg.value, 77u);
  // Third promise after phase 2 started: no duplicate proposal.
  PaxosMessage p2 = p0;
  p2.sender_id = 2;
  EXPECT_TRUE(leader.HandleMessage(p2).empty());
}

TEST(LeaderTest, Phase1QuorumProposesNoopWhenNothingVoted) {
  LeaderState leader(ThreeAcceptorGroup(), 5);
  PaxosMessage fill;
  fill.type = PaxosMsgType::kFillRequest;
  fill.instance = 3;
  leader.HandleMessage(fill);
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 3;
  p0.round = 5;
  p0.sender_id = 0;
  leader.HandleMessage(p0);
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  const auto out = leader.HandleMessage(p1);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].msg.value, kPaxosNoop);  // §9.2: learn a no-op.
}

TEST(LeaderTest, RejectsBadConstruction) {
  PaxosGroupConfig empty;
  empty.learners = {30};
  empty.leader_service = 200;
  EXPECT_THROW(LeaderState(empty, 1), std::invalid_argument);
  EXPECT_THROW(LeaderState(ThreeAcceptorGroup(), 0), std::invalid_argument);
}

TEST(AcceptorTest, VotesAndNotifiesLearners) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage p2a;
  p2a.type = PaxosMsgType::kPhase2a;
  p2a.instance = 1;
  p2a.round = 1;
  p2a.value = 42;
  p2a.client = 100;
  const auto out = acceptor.HandleMessage(p2a);
  ASSERT_EQ(out.size(), 1u);  // One learner.
  EXPECT_EQ(out[0].dst, 30u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase2b);
  EXPECT_EQ(out[0].msg.value, 42u);
  EXPECT_EQ(out[0].msg.last_voted_instance, 1u);
  EXPECT_EQ(acceptor.last_voted_instance(), 1u);
}

TEST(AcceptorTest, NacksLowerRound) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage high;
  high.type = PaxosMsgType::kPhase2a;
  high.instance = 1;
  high.round = 5;
  high.value = 1;
  acceptor.HandleMessage(high);
  PaxosMessage low = high;
  low.round = 2;
  low.value = 9;
  const auto out = acceptor.HandleMessage(low);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 200u);  // NACK to the leader service.
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
  EXPECT_EQ(out[0].msg.round, 5u);  // Reports the promised round.
}

TEST(AcceptorTest, PromiseRecordsRoundAndReportsState) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 1);
  PaxosMessage p2a;
  p2a.type = PaxosMsgType::kPhase2a;
  p2a.instance = 4;
  p2a.round = 2;
  p2a.value = 55;
  p2a.client = 100;
  acceptor.HandleMessage(p2a);
  PaxosMessage p1a;
  p1a.type = PaxosMsgType::kPhase1a;
  p1a.instance = 4;
  p1a.round = 6;
  const auto out = acceptor.HandleMessage(p1a);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
  EXPECT_EQ(out[0].msg.vround, 2u);
  EXPECT_EQ(out[0].msg.value, 55u);
  EXPECT_EQ(out[0].msg.sender_id, 1u);
}

TEST(AcceptorTest, StaleInstanceReuseHintsLeader) {
  // A fresh leader re-using instance 1 at a higher round triggers the §9.2
  // sequence hint toward the leader service.
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  PaxosMessage old_2a;
  old_2a.type = PaxosMsgType::kPhase2a;
  old_2a.instance = 1;
  old_2a.round = 1;
  old_2a.value = 11;
  acceptor.HandleMessage(old_2a);
  PaxosMessage new_2a = old_2a;
  new_2a.round = 2;  // New leader's ballot.
  new_2a.value = 22;
  const auto out = acceptor.HandleMessage(new_2a);
  ASSERT_EQ(out.size(), 2u);  // Vote to learner + hint to leader.
  EXPECT_EQ(out[0].dst, 30u);
  EXPECT_EQ(out[1].dst, 200u);
  EXPECT_EQ(out[1].msg.last_voted_instance, 1u);
}

TEST(AcceptorTest, RejectsGroupWithoutLearners) {
  PaxosGroupConfig group = ThreeAcceptorGroup();
  group.learners.clear();
  EXPECT_THROW(AcceptorState(group, 0), std::invalid_argument);
}

PaxosMessage Phase2a(uint32_t instance, uint16_t round, PaxosValue value) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase2a;
  msg.instance = instance;
  msg.round = round;
  msg.value = value;
  msg.client = 100;
  return msg;
}

TEST(AcceptorTest, StateIsBoundedByTheWindow) {
  AcceptorState acceptor(ThreeAcceptorGroup(), 0);
  EXPECT_EQ(acceptor.stored_instances(), 0u);
  constexpr uint32_t kWindow = AcceptorState::kWindow;
  for (uint32_t instance = 1; instance <= 3 * kWindow; ++instance) {
    acceptor.HandleMessage(Phase2a(instance, 1, instance));
  }
  EXPECT_LE(acceptor.stored_instances(), kWindow);
  EXPECT_EQ(acceptor.last_voted_instance(), 3 * kWindow);
  EXPECT_EQ(acceptor.trimmed_requests(), 0u);
}

TEST(AcceptorTest, BelowTheWindowAnswersOnlyTheSequenceHint) {
  constexpr uint32_t kWindow = AcceptorState::kWindow;
  AcceptorState acceptor(ThreeAcceptorGroup(), 2);
  // Instance kWindow + 5 shares instance 5's cell and is newer.
  const uint32_t live = kWindow + 5;
  acceptor.HandleMessage(Phase2a(live, 1, 77));
  PaxosAppState before;
  acceptor.SaveTo(before);

  for (PaxosMsgType type : {PaxosMsgType::kPhase1a, PaxosMsgType::kPhase2a}) {
    const uint64_t trimmed = acceptor.trimmed_requests();
    PaxosMessage stale = Phase2a(5, 9, 55);
    stale.type = type;
    const auto out = acceptor.HandleMessage(stale);
    ASSERT_EQ(out.size(), 1u) << PaxosMsgTypeName(type);
    EXPECT_EQ(out[0].dst, 200u);
    EXPECT_EQ(out[0].msg.type, PaxosMsgType::kPhase1b);
    EXPECT_EQ(out[0].msg.instance, 5u);
    EXPECT_EQ(out[0].msg.round, 9u);
    EXPECT_EQ(out[0].msg.vround, 0u);
    EXPECT_EQ(out[0].msg.sender_id, 2u);
    EXPECT_EQ(out[0].msg.last_voted_instance, live);
    EXPECT_EQ(acceptor.trimmed_requests(), trimmed + 1);
  }

  // Neither request promised or voted: the live cell is untouched.
  PaxosAppState after;
  acceptor.SaveTo(after);
  ASSERT_EQ(after.slots.size(), 1u);
  EXPECT_EQ(after.slots[0].instance, before.slots[0].instance);
  EXPECT_EQ(after.slots[0].rnd, before.slots[0].rnd);
  EXPECT_EQ(after.slots[0].vrnd, before.slots[0].vrnd);
  EXPECT_EQ(after.slots[0].value, before.slots[0].value);
  EXPECT_EQ(acceptor.last_voted_instance(), live);
  EXPECT_EQ(acceptor.stored_instances(), 1u);
}

TEST(LearnerTest, DeliversOnQuorum) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = 42;
  vote.client = 100;
  vote.sender_id = 0;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  vote.sender_id = 1;
  const auto out = learner.HandleMessage(vote, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 100u);
  EXPECT_EQ(out[0].msg.type, PaxosMsgType::kClientResponse);
  EXPECT_EQ(out[0].msg.value, 42u);
  EXPECT_EQ(learner.delivered_count(), 1u);
  EXPECT_EQ(learner.highest_contiguous(), 1u);
  // Third vote: already delivered, no duplicate response.
  vote.sender_id = 2;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  EXPECT_EQ(learner.delivered_count(), 1u);
}

TEST(LearnerTest, MixedRoundsDoNotCountTogether) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = 42;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.round = 2;  // Different round: not a matching quorum with the first.
  vote.sender_id = 1;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  // Same round 2 from another acceptor completes the quorum.
  vote.sender_id = 2;
  EXPECT_EQ(learner.HandleMessage(vote, 0).size(), 0u);  // Noop? value 42,
  // but client is 0 in these votes -> no client response, still delivered.
  EXPECT_EQ(learner.delivered_count(), 1u);
}

TEST(LearnerTest, NoopDeliveryProducesNoClientResponse) {
  LearnerState learner(ThreeAcceptorGroup());
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 1;
  vote.round = 1;
  vote.value = kPaxosNoop;
  vote.client = 100;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.sender_id = 1;
  EXPECT_TRUE(learner.HandleMessage(vote, 0).empty());
  EXPECT_EQ(learner.noop_count(), 1u);
}

TEST(LearnerTest, GapDetectionRequestsFill) {
  LearnerState learner(ThreeAcceptorGroup());
  // Deliver instance 3 only: instances 1-2 are gaps.
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = 3;
  vote.round = 1;
  vote.value = 9;
  vote.sender_id = 0;
  learner.HandleMessage(vote, 0);
  vote.sender_id = 1;
  learner.HandleMessage(vote, 0);
  EXPECT_EQ(learner.highest_contiguous(), 0u);

  auto fills = learner.CheckGaps(Milliseconds(100), Milliseconds(50));
  ASSERT_EQ(fills.size(), 2u);
  EXPECT_EQ(fills[0].msg.type, PaxosMsgType::kFillRequest);
  EXPECT_EQ(fills[0].msg.instance, 1u);
  EXPECT_EQ(fills[1].msg.instance, 2u);
  EXPECT_EQ(fills[0].dst, 200u);
  // Within the timeout, no duplicate fill requests.
  EXPECT_TRUE(learner.CheckGaps(Milliseconds(120), Milliseconds(50)).empty());
  // After the timeout they fire again.
  EXPECT_EQ(learner.CheckGaps(Milliseconds(200), Milliseconds(50)).size(), 2u);
  EXPECT_EQ(learner.fill_requests_sent(), 4u);
}

TEST(LearnerTest, ContiguityAdvancesThroughBackfill) {
  LearnerState learner(ThreeAcceptorGroup());
  auto vote_for = [&](uint32_t instance) {
    PaxosMessage vote;
    vote.type = PaxosMsgType::kPhase2b;
    vote.instance = instance;
    vote.round = 1;
    vote.value = instance * 10;
    vote.sender_id = 0;
    learner.HandleMessage(vote, 0);
    vote.sender_id = 1;
    learner.HandleMessage(vote, 0);
  };
  vote_for(2);
  vote_for(3);
  EXPECT_EQ(learner.highest_contiguous(), 0u);
  vote_for(1);
  EXPECT_EQ(learner.highest_contiguous(), 3u);
}

PaxosMessage Vote(uint32_t instance, uint32_t acceptor, PaxosValue value) {
  PaxosMessage vote;
  vote.type = PaxosMsgType::kPhase2b;
  vote.instance = instance;
  vote.round = 1;
  vote.value = value;
  vote.client = 100;
  vote.sender_id = acceptor;
  return vote;
}

TEST(LearnerTest, DeliveredPrefixIsTrimmed) {
  LearnerState learner(ThreeAcceptorGroup());
  constexpr uint32_t kInstances = 10000;
  for (uint32_t instance = 1; instance <= kInstances; ++instance) {
    learner.HandleMessage(Vote(instance, 0, instance), 0);
    learner.HandleMessage(Vote(instance, 1, instance), 0);
    EXPECT_LE(learner.pending_instances(), 1u);
  }
  EXPECT_EQ(learner.delivered_count(), kInstances);
  EXPECT_EQ(learner.highest_contiguous(), kInstances);
  EXPECT_EQ(learner.pending_instances(), 0u);

  // A late third vote for a delivered instance is ignored, as before.
  EXPECT_TRUE(learner.HandleMessage(Vote(42, 2, 42), 0).empty());
  EXPECT_TRUE(learner.HandleMessage(Vote(kInstances, 2, kInstances), 0).empty());
  EXPECT_EQ(learner.delivered_count(), kInstances);
  EXPECT_EQ(learner.pending_instances(), 0u);
  EXPECT_TRUE(learner.CheckGaps(Seconds(1), Milliseconds(50)).empty());
}

TEST(LearnerTest, OutOfOrderSpanBoundsPendingSlots) {
  LearnerState learner(ThreeAcceptorGroup());
  auto decide = [&](uint32_t instance, PaxosValue value) {
    learner.HandleMessage(Vote(instance, 0, value), 0);
    return learner.HandleMessage(Vote(instance, 1, value), 0);
  };
  for (uint32_t instance = 1; instance <= 100; ++instance) {
    decide(instance, instance);
  }
  // 103 and 104 arrive before 101 and 102.
  decide(103, 103);
  decide(104, 104);
  EXPECT_EQ(learner.highest_contiguous(), 100u);
  EXPECT_EQ(learner.pending_instances(), 2u);

  // The gap scan asks for exactly the two holes, then their no-op fills
  // close the cut and drop every slot.
  const auto fills = learner.CheckGaps(Milliseconds(100), Milliseconds(50));
  ASSERT_EQ(fills.size(), 2u);
  EXPECT_EQ(fills[0].msg.instance, 101u);
  EXPECT_EQ(fills[1].msg.instance, 102u);
  EXPECT_EQ(learner.pending_instances(), 4u);
  EXPECT_TRUE(decide(102, kPaxosNoop).empty());
  EXPECT_EQ(learner.highest_contiguous(), 100u);
  EXPECT_TRUE(decide(101, kPaxosNoop).empty());
  EXPECT_EQ(learner.highest_contiguous(), 104u);
  EXPECT_EQ(learner.pending_instances(), 0u);
  EXPECT_EQ(learner.noop_count(), 2u);
  EXPECT_EQ(learner.delivered_count(), 104u);
  EXPECT_TRUE(learner.CheckGaps(Milliseconds(300), Milliseconds(50)).empty());
}

// Randomized safety property across a leader migration: under message
// loss, duplication and reordering, no instance ever delivers two
// different non-noop values across two learners. The migration follows the
// deployed protocol: the old leader is quiesced, the service re-pointed,
// and the new leader runs the sequence-learning probe before proposing.
class PaxosSafetyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaxosSafetyTest, NoConflictingDeliveries) {
  Rng rng(GetParam());
  PaxosGroupConfig group = ThreeAcceptorGroup();
  group.learners = {30, 31};
  LeaderState leader_a(group, 1);
  LeaderState leader_b(group, 2);  // The migrated-to leader.
  AcceptorState acceptors[3] = {{group, 0}, {group, 1}, {group, 2}};
  LearnerState learners[2] = {LearnerState(group), LearnerState(group)};
  std::map<uint32_t, PaxosValue> decided[2];

  std::vector<PaxosOut> wire;
  auto push = [&](std::vector<PaxosOut> msgs) {
    for (auto& m : msgs) {
      wire.push_back(std::move(m));
    }
  };
  bool migrated = false;  // Routes leader_service traffic (switch rule).
  auto deliver_step = [&]() {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(wire.size()) - 1));
    PaxosOut msg = wire[pick];
    wire.erase(wire.begin() + static_cast<long>(pick));
    if (rng.Bernoulli(0.2)) {
      return;  // Lost.
    }
    if (rng.Bernoulli(0.1)) {
      wire.push_back(msg);  // Duplicated.
    }
    if (msg.dst == group.leader_service) {
      push((migrated ? leader_b : leader_a).HandleMessage(msg.msg));
    } else if (msg.dst >= 10 && msg.dst <= 12) {
      push(acceptors[msg.dst - 10].HandleMessage(msg.msg));
    } else if (msg.dst == 30 || msg.dst == 31) {
      const int li = msg.dst == 30 ? 0 : 1;
      if (msg.msg.type == PaxosMsgType::kPhase2b) {
        const uint64_t before = learners[li].delivered_count();
        push(learners[li].HandleMessage(msg.msg, 0));
        if (learners[li].delivered_count() > before) {
          auto [it, inserted] =
              decided[li].try_emplace(msg.msg.instance, msg.msg.value);
          if (!inserted) {
            EXPECT_EQ(it->second, msg.msg.value)
                << "learner " << li << " instance " << msg.msg.instance;
          }
        }
      }
    }
  };

  // Epoch 1: the software leader serves.
  for (int i = 0; i < 30; ++i) {
    push(leader_a.HandleMessage(ClientRequest(1000 + i)));
  }
  int steps = 0;
  while (!wire.empty() && steps++ < 2000 && rng.Bernoulli(0.97)) {
    deliver_step();  // Chaos delivery, possibly leaving messages in flight.
  }
  // Migration: quiesce the old leader (it is deactivated and its in-flight
  // 2a messages have reached the acceptors or been lost — the acceptors'
  // ingress drains before the new leader probes), repoint, then probe.
  std::vector<PaxosOut> residue;
  // Drain a snapshot: HandleMessage outputs are pushed back onto `wire`,
  // which must not be the vector being iterated (iterator invalidation).
  std::vector<PaxosOut> in_flight;
  in_flight.swap(wire);
  for (auto& msg : in_flight) {
    if (msg.dst >= 10 && msg.dst <= 12 && !rng.Bernoulli(0.2)) {
      push(acceptors[msg.dst - 10].HandleMessage(msg.msg));
    } else {
      residue.push_back(msg);
    }
  }
  // Keep non-acceptor traffic (votes to learners etc.) in flight.
  wire.insert(wire.end(), residue.begin(), residue.end());
  migrated = true;
  push(leader_b.StartSequenceLearning());

  // Epoch 2: the hardware leader serves new values (and retried ones).
  for (int i = 0; i < 30; ++i) {
    push(leader_b.HandleMessage(ClientRequest(2000 + i)));
  }
  steps = 0;
  while (!wire.empty() && steps++ < 20000) {
    deliver_step();
  }

  // Someone made progress in both epochs (loss rates permitting).
  EXPECT_GT(decided[0].size() + decided[1].size(), 0u);
  // Cross-learner agreement on instances both decided.
  for (const auto& [inst, value] : decided[0]) {
    auto it = decided[1].find(inst);
    if (it != decided[1].end() && value != kPaxosNoop && it->second != kPaxosNoop) {
      EXPECT_EQ(value, it->second) << "instance " << inst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosSafetyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(LeaderTest, SequenceProbeGatesProposals) {
  LeaderState leader(ThreeAcceptorGroup(), 1);
  leader.HandleMessage(ClientRequest(1));  // Old life: instance 1 used.
  leader.Reset(2);
  const auto probe = leader.StartSequenceLearning();
  ASSERT_EQ(probe.size(), 3u);
  EXPECT_EQ(probe[0].msg.type, PaxosMsgType::kPhase1a);
  EXPECT_TRUE(leader.awaiting_sequence());
  // Client requests are buffered, not proposed.
  EXPECT_TRUE(leader.HandleMessage(ClientRequest(55)).empty());
  // First promise: not yet a quorum.
  PaxosMessage p0;
  p0.type = PaxosMsgType::kPhase1b;
  p0.instance = 1;
  p0.round = 2;
  p0.sender_id = 0;
  p0.last_voted_instance = 40;
  EXPECT_TRUE(leader.awaiting_sequence());
  leader.HandleMessage(p0);
  EXPECT_TRUE(leader.awaiting_sequence());
  // Second promise completes the quorum: buffered request proposed at the
  // learned sequence (41), not at a stale instance.
  PaxosMessage p1 = p0;
  p1.sender_id = 1;
  p1.last_voted_instance = 38;
  const auto out = leader.HandleMessage(p1);
  EXPECT_FALSE(leader.awaiting_sequence());
  bool proposed_55 = false;
  for (const auto& m : out) {
    if (m.msg.type == PaxosMsgType::kPhase2a && m.msg.value == 55) {
      proposed_55 = true;
      EXPECT_EQ(m.msg.instance, 41u);
    }
  }
  EXPECT_TRUE(proposed_55);
}

TEST(PaxosMsgTest, PacketBuilderAndNames) {
  PaxosMessage msg;
  msg.type = PaxosMsgType::kPhase2a;
  msg.value = 77;
  const Packet pkt = MakePaxosPacket(1, 2, msg, 555);
  EXPECT_EQ(pkt.proto, AppProto::kPaxos);
  EXPECT_EQ(pkt.size_bytes, kPaxosWireBytes);
  EXPECT_EQ(pkt.created_at, 555);
  EXPECT_EQ(PayloadAs<PaxosMessage>(pkt).value, 77u);
  EXPECT_STREQ(PaxosMsgTypeName(PaxosMsgType::kFillRequest), "fill_request");
}

}  // namespace
}  // namespace incod
