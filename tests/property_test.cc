// Cross-cutting property and robustness (fuzz) tests: conservation laws,
// monotonicity invariants, and never-crash guarantees under random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/incod.h"

namespace incod {
namespace {

// ---- Link conservation: sent == delivered + dropped + in flight ----
//
// Parameter: (seed, cross_shard, pfc). The cross-shard leg puts the two ends
// in different shards of a parallel engine, so each packet's delivery event
// crosses through the engine mailbox and the law reads sender-side and
// receiver-side counters between rounds. The pfc leg runs the paced serve
// loop, with each end pausing its upstream for a while mid-run. The law must
// hold mid-run, not only once the link has drained.

class LinkConservationTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, bool>> {};

TEST_P(LinkConservationTest, PacketsAreConserved) {
  const auto [seed, cross_shard, pfc] = GetParam();
  ShardedSimulation::Options options;
  options.num_shards = 2;
  options.num_threads = cross_shard ? 2 : 1;
  options.mode = cross_shard ? ShardedSimulation::Mode::kParallel
                             : ShardedSimulation::Mode::kSingleQueue;
  options.seed = seed;
  ShardedSimulation ssim(options);
  Rng rng = ssim.shard(0).rng().Fork();
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "sink"; }
    uint64_t count = 0;
  } a, b;
  const int b_shard = cross_shard ? 1 : 0;
  Topology topo(ssim.shard(0));
  topo.SetSharded(&ssim, 0);
  topo.AssignShard(&b, b_shard);
  Link::Config config;
  config.gigabits_per_second = 0.1;  // Slow: guarantees queueing and drops.
  config.queue_capacity_packets = 16;
  config.flow.pfc = pfc;
  config.flow.pause_high_watermark = 8;
  config.flow.pause_low_watermark = 2;
  Link* link = topo.Connect(&a, &b, config);
  if (pfc) {
    // Each end pauses the direction toward itself, from its own shard.
    ssim.shard(0).ScheduleAt(Milliseconds(1), [&] { link->PauseUpstream(&a, true); });
    ssim.shard(0).ScheduleAt(Milliseconds(3), [&] { link->PauseUpstream(&a, false); });
    ssim.shard(b_shard).ScheduleAt(Milliseconds(2), [&] { link->PauseUpstream(&b, true); });
    ssim.shard(b_shard).ScheduleAt(Milliseconds(4), [&] { link->PauseUpstream(&b, false); });
  }
  uint64_t sent_to_b = 0;
  uint64_t sent_to_a = 0;
  for (int i = 0; i < 2000; ++i) {
    Packet pkt;
    pkt.size_bytes = static_cast<uint32_t>(rng.UniformInt(64, 1500));
    const SimTime at = rng.UniformInt(0, Milliseconds(5));
    // Each end sends from the shard that owns it.
    if (rng.Bernoulli(0.5)) {
      ssim.shard(0).Schedule(at, [&, pkt] {
        link->Send(&a, pkt);
        ++sent_to_b;
      });
    } else {
      ssim.shard(b_shard).Schedule(at, [&, pkt] {
        link->Send(&b, pkt);
        ++sent_to_a;
      });
    }
  }
  for (const SimTime until : {Milliseconds(1), Milliseconds(3), Milliseconds(5),
                              Milliseconds(100)}) {
    ssim.RunUntil(until);
    EXPECT_EQ(sent_to_b, link->delivered(&b) + link->dropped_overflow(&b) +
                             link->in_flight(&b))
        << "at " << until;
    EXPECT_EQ(sent_to_a, link->delivered(&a) + link->dropped_overflow(&a) +
                             link->in_flight(&a))
        << "at " << until;
  }
  EXPECT_EQ(link->in_flight(&b), 0u);
  EXPECT_EQ(link->in_flight(&a), 0u);
  EXPECT_EQ(b.count, link->delivered(&b));
  EXPECT_EQ(a.count, link->delivered(&a));
  if (pfc) {
    EXPECT_EQ(link->pause_frames(&a), 1u);
    EXPECT_EQ(link->pause_frames(&b), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsShardsAndPacing, LinkConservationTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Bool(), ::testing::Bool()));

// ---- Switch conservation under random rules and traffic ----

TEST(SwitchFuzzTest, RandomRulesAndTrafficConserve) {
  Simulation sim(9);
  Rng rng = sim.rng().Fork();
  Topology topo(sim);
  L2Switch sw(sim, "fuzz");
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "sink"; }
    uint64_t count = 0;
  } sinks[4];
  Link* links[4];
  for (int i = 0; i < 4; ++i) {
    links[i] = topo.ConnectToSwitch(&sw, &sinks[i], static_cast<NodeId>(i + 1));
  }
  for (int i = 0; i < 50; ++i) {
    L2Switch::ForwardingRule rule;
    rule.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    if (rng.Bernoulli(0.5)) {
      rule.match_dst = static_cast<NodeId>(rng.UniformInt(1, 8));
    }
    rule.out_port = static_cast<int>(rng.UniformInt(0, 3));
    rule.priority = static_cast<int>(rng.UniformInt(0, 5));
    if (rng.Bernoulli(0.3)) {
      rule.rewrite_dst = static_cast<NodeId>(rng.UniformInt(1, 4));
    }
    sw.InstallRule(rule);
  }
  const uint64_t offered = 5000;
  for (uint64_t i = 0; i < offered; ++i) {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = static_cast<NodeId>(rng.UniformInt(1, 8));  // Some unroutable.
    pkt.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    sw.Receive(pkt);
  }
  sim.Run();
  uint64_t delivered = 0;
  uint64_t link_drops = 0;
  for (int i = 0; i < 4; ++i) {
    delivered += sinks[i].count;
    link_drops += links[i]->dropped_overflow(&sinks[i]);
  }
  EXPECT_EQ(sw.forwarded() + sw.dropped_no_route(), offered);
  EXPECT_EQ(delivered + link_drops, sw.forwarded());
}

// ---- Switch conservation mid-run, one port across a shard boundary ----
//
// Parameter: (seed, parallel). The switch and three sinks live in shard 0;
// the fourth sink lives in shard 1, so that port's deliveries cross the
// engine mailbox. The switch hands each packet to its egress link at once,
// dated 800 ns ahead, so the law reads the link's in_flight for packets
// still inside the forwarding window. Checked at every RunUntil bound, on
// a single-queue engine and on a 2-thread parallel one.

class SwitchConservationTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(SwitchConservationTest, ConservesMidRun) {
  const auto [seed, parallel] = GetParam();
  ShardedSimulation::Options options;
  options.num_shards = 2;
  options.num_threads = parallel ? 2 : 1;
  options.mode = parallel ? ShardedSimulation::Mode::kParallel
                          : ShardedSimulation::Mode::kSingleQueue;
  options.seed = seed;
  ShardedSimulation ssim(options);
  Simulation& home = ssim.shard(0);
  Rng rng = home.rng().Fork();
  Topology topo(home);
  topo.SetSharded(&ssim, 0);
  L2Switch sw(home, "fuzz");
  struct Collector : PacketSink {
    void Receive(Packet) override { ++count; }
    std::string SinkName() const override { return "sink"; }
    uint64_t count = 0;
  } sinks[4];
  topo.AssignShard(&sinks[3], 1);
  Link::Config config;
  config.gigabits_per_second = 0.5;  // Slow: queueing and overflow drops.
  config.queue_capacity_packets = 8;
  Link* links[4];
  for (int i = 0; i < 4; ++i) {
    links[i] = topo.ConnectToSwitch(&sw, &sinks[i], static_cast<NodeId>(i + 1), config);
  }
  for (int i = 0; i < 20; ++i) {
    L2Switch::ForwardingRule rule;
    rule.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    if (rng.Bernoulli(0.5)) {
      rule.match_dst = static_cast<NodeId>(rng.UniformInt(1, 8));
    }
    rule.out_port = static_cast<int>(rng.UniformInt(0, 3));
    rule.priority = static_cast<int>(rng.UniformInt(0, 5));
    sw.InstallRule(rule);
  }
  uint64_t offered = 0;
  for (int i = 0; i < 5000; ++i) {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = static_cast<NodeId>(rng.UniformInt(1, 8));  // Some unroutable.
    pkt.proto = static_cast<AppProto>(rng.UniformInt(0, 4));
    pkt.size_bytes = static_cast<uint32_t>(rng.UniformInt(64, 1500));
    home.ScheduleAt(rng.UniformInt(0, Milliseconds(2)), [&sw, &offered, pkt] {
      ++offered;
      sw.Receive(pkt);
    });
  }
  // Bounds off any round number, so packets sit inside the 800 ns window.
  for (const SimTime until :
       {Microseconds(250) + Nanoseconds(400), Microseconds(777) + Nanoseconds(123),
        Milliseconds(1) + Nanoseconds(650), Milliseconds(2) + Nanoseconds(300),
        Milliseconds(50)}) {
    ssim.RunUntil(until);
    uint64_t delivered = 0;
    uint64_t overflow = 0;
    uint64_t in_flight = 0;
    for (int i = 0; i < 4; ++i) {
      delivered += sinks[i].count;
      overflow += links[i]->dropped_overflow(&sinks[i]);
      in_flight += links[i]->in_flight(&sinks[i]);
    }
    EXPECT_EQ(offered, sw.forwarded() + sw.dropped_no_route()) << "at " << until;
    EXPECT_EQ(sw.forwarded(), delivered + overflow + in_flight) << "at " << until;
  }
  EXPECT_EQ(offered, 5000u);
  EXPECT_GT(sinks[3].count, 0u);  // The cross-shard port carried traffic.
  uint64_t overflow = 0;
  for (int i = 0; i < 4; ++i) {
    overflow += links[i]->dropped_overflow(&sinks[i]);
    EXPECT_EQ(links[i]->in_flight(&sinks[i]), 0u);
  }
  EXPECT_GT(overflow, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndEngines, SwitchConservationTest,
                         ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool()));

// ---- DNS decoder never crashes on arbitrary bytes ----

class DnsFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnsFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes(static_cast<size_t>(rng.UniformInt(0, 120)));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    // Must not crash/hang; decode may or may not succeed.
    const auto decoded = DecodeDnsMessage(bytes);
    if (decoded.has_value()) {
      // Whatever decoded must re-encode without throwing, unless it holds
      // invalid names (the decoder is by design more permissive about
      // label characters than the encoder is about structure).
      bool valid = true;
      for (const auto& q : decoded->questions) {
        valid = valid && IsValidDnsName(q.name);
      }
      for (const auto& a : decoded->answers) {
        valid = valid && IsValidDnsName(a.name);
      }
      if (valid) {
        EXPECT_NO_THROW(EncodeDnsMessage(*decoded));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzzTest, ::testing::Values(11u, 22u, 33u));

// ---- DnsWireBytes (closed form) agrees with the encoder ----

// A valid name of 1-8 labels, 1-63 bytes each, at most 253 bytes in all.
std::string RandomDnsName(Rng& rng) {
  const int labels = static_cast<int>(rng.UniformInt(1, 8));
  std::string name;
  for (int i = 0; i < labels; ++i) {
    const size_t used = name.empty() ? 0 : name.size() + 1;  // With the dot.
    if (used >= 253) {
      break;
    }
    const size_t room = 253 - used;
    const size_t len = std::min<size_t>(static_cast<size_t>(rng.UniformInt(1, 63)), room);
    if (!name.empty()) {
      name.push_back('.');
    }
    for (size_t c = 0; c < len; ++c) {
      name.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
    }
  }
  return name;
}

class DnsWireBytesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DnsWireBytesTest, MatchesEncodedSizePlusHeaders) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    DnsMessage m;
    m.id = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    m.is_response = rng.Bernoulli(0.5);
    const int questions = static_cast<int>(rng.UniformInt(1, 3));
    for (int q = 0; q < questions; ++q) {
      m.questions.push_back(DnsQuestion{RandomDnsName(rng), kDnsTypeA, kDnsClassIn});
    }
    const int answers = static_cast<int>(rng.UniformInt(0, 3));
    for (int a = 0; a < answers; ++a) {
      DnsResourceRecord rr;
      rr.name = RandomDnsName(rng);
      const bool aaaa = rng.Bernoulli(0.5);
      rr.rtype = aaaa ? kDnsTypeAaaa : kDnsTypeA;
      for (int b = 0; b < (aaaa ? 16 : 4); ++b) {
        rr.rdata.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
      }
      m.answers.push_back(std::move(rr));
    }
    ASSERT_TRUE(IsValidDnsName(m.questions[0].name));
    ASSERT_EQ(DnsWireBytes(m), EncodeDnsMessage(m).size() + 42) << "iteration " << iter;
  }
}

TEST_P(DnsWireBytesTest, InvalidNamesThrowLikeTheEncoder) {
  Rng rng(GetParam());
  const std::string valid = RandomDnsName(rng);
  const std::string invalid[] = {
      valid + "..x",                          // Empty label.
      valid + "." + std::string(64, 'x'),     // 64-byte label.
      std::string(63, 'a') + "." + std::string(63, 'b') + "." + std::string(63, 'c') +
          "." + std::string(63, 'd'),         // 255 bytes in all.
  };
  for (const std::string& bad : invalid) {
    ASSERT_FALSE(IsValidDnsName(bad));
    DnsMessage in_question;
    in_question.questions.push_back(DnsQuestion{bad, kDnsTypeA, kDnsClassIn});
    EXPECT_THROW(DnsWireBytes(in_question), std::invalid_argument) << bad;
    EXPECT_THROW(EncodeDnsMessage(in_question), std::invalid_argument) << bad;
    DnsMessage in_answer;
    in_answer.questions.push_back(DnsQuestion{valid, kDnsTypeA, kDnsClassIn});
    DnsResourceRecord rr;
    rr.name = bad;
    rr.rdata = Ipv4ToRdata(0x0a000001);
    in_answer.answers.push_back(std::move(rr));
    EXPECT_THROW(DnsWireBytes(in_answer), std::invalid_argument) << bad;
    EXPECT_THROW(EncodeDnsMessage(in_answer), std::invalid_argument) << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsWireBytesTest, ::testing::Values(11u, 22u, 33u));

// ---- Mutated valid messages never crash the decoder ----

TEST(DnsFuzzTest, BitFlippedMessagesNeverCrash) {
  Rng rng(44);
  DnsMessage query;
  query.id = 7;
  query.questions.push_back(DnsQuestion{"www.fuzz.example", kDnsTypeA, kDnsClassIn});
  const auto wire = EncodeDnsMessage(query);
  for (int iter = 0; iter < 5000; ++iter) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    }
    (void)DecodeDnsMessage(mutated);  // Must not crash.
  }
}

// ---- Mutated zone files never throw from the loader ----
//
// Token and byte mutations of a valid zone file: LoadZoneText either
// rejects the text (-1) or loads at most one record per line.

class ZoneFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZoneFuzzTest, MutatedZoneTextNeverThrows) {
  Rng rng(GetParam());
  const std::vector<std::string> valid = {
      "www.example 3600 A 10.0.0.1", "mail.example A 10.0.0.2",
      "; a comment line", "", "db.example 60 a 192.168.1.9 # trailing",
  };
  const std::vector<std::string> tokens = {
      "99999999999999999999999", "4294967296", "4294967295", "0", "-1", "+5",
      "A", "a", "MX", "#", ";", "256.1.1.1", "10.0.0", "1.2.3.4.5",
      std::string(64, 'x') + ".example", std::string(300, 'y'), "a..b", ".", "\t",
  };
  auto index = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  auto pick = [&](const std::vector<std::string>& pool) -> const std::string& {
    return pool[index(pool.size())];
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    const int lines = static_cast<int>(rng.UniformInt(1, 6));
    for (int l = 0; l < lines; ++l) {
      std::vector<std::string> fields;
      std::istringstream in(pick(valid));
      for (std::string field; in >> field;) {
        fields.push_back(field);
      }
      const int edits = static_cast<int>(rng.UniformInt(0, 3));
      for (int e = 0; e < edits; ++e) {
        const size_t at = fields.empty() ? 0 : index(fields.size());
        switch (rng.UniformInt(0, 2)) {
          case 0:  // Replace.
            if (!fields.empty()) {
              fields[at] = pick(tokens);
            }
            break;
          case 1:  // Insert.
            fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(at), pick(tokens));
            break;
          default:  // Delete.
            if (!fields.empty()) {
              fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(at));
            }
            break;
        }
      }
      for (const std::string& field : fields) {
        text += field + " ";
      }
      text += "\n";
    }
    const int byte_edits = static_cast<int>(rng.UniformInt(0, 4));
    for (int e = 0; e < byte_edits && !text.empty(); ++e) {
      const size_t at = index(text.size());
      const char byte = static_cast<char>(rng.UniformInt(0, 255));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          text[at] = byte;
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        default:
          text.erase(at, 1);
          break;
      }
    }
    const int max_records = static_cast<int>(std::count(text.begin(), text.end(), '\n')) + 1;
    Zone zone;
    int loaded = 0;
    ASSERT_NO_THROW(loaded = zone.LoadZoneText(text)) << text;
    EXPECT_TRUE(loaded == -1 || (loaded >= 0 && loaded <= max_records)) << loaded << "\n"
                                                                         << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneFuzzTest, ::testing::Values(11u, 22u, 33u));

// ---- Histogram percentiles vs an exact reference ----

class HistogramReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramReferenceTest, QuantilesTrackExactValues) {
  Rng rng(GetParam());
  Histogram histogram;
  std::vector<uint64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform values spanning 1ns .. ~1s, like latencies.
    const double log_value = rng.UniformDouble(0, 9);
    const uint64_t value = static_cast<uint64_t>(std::pow(10.0, log_value)) + 1;
    histogram.Record(value);
    exact.push_back(value);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const uint64_t ref = exact[static_cast<size_t>(q * (exact.size() - 1))];
    const uint64_t est = histogram.ValueAtQuantile(q);
    const double rel = std::abs(static_cast<double>(est) - static_cast<double>(ref)) /
                       static_cast<double>(ref);
    EXPECT_LT(rel, 0.05) << "q=" << q << " ref=" << ref << " est=" << est;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramReferenceTest, ::testing::Values(5u, 6u, 7u));

// ---- Paxos acceptor invariants under random message streams ----

TEST(AcceptorInvariantTest, RoundsAndSequenceAreMonotone) {
  Rng rng(77);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  AcceptorState acceptor(group, 0);
  uint32_t last_voted_before = 0;
  for (int i = 0; i < 5000; ++i) {
    PaxosMessage msg;
    msg.type = rng.Bernoulli(0.5) ? PaxosMsgType::kPhase1a : PaxosMsgType::kPhase2a;
    msg.instance = static_cast<uint32_t>(rng.UniformInt(1, 50));
    msg.round = static_cast<uint16_t>(rng.UniformInt(1, 10));
    msg.value = static_cast<PaxosValue>(rng.UniformInt(1, 1000));
    const auto out = acceptor.HandleMessage(msg);
    // last_voted_instance is monotone non-decreasing.
    EXPECT_GE(acceptor.last_voted_instance(), last_voted_before);
    last_voted_before = acceptor.last_voted_instance();
    // Any phase-2b output must carry the message's round and value.
    for (const auto& o : out) {
      if (o.msg.type == PaxosMsgType::kPhase2b) {
        EXPECT_EQ(o.msg.round, msg.round);
        EXPECT_EQ(o.msg.value, msg.value);
      }
    }
  }
}

TEST(LearnerInvariantTest, DeliveredCountNeverExceedsInstances) {
  Rng rng(88);
  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  LearnerState learner(group);
  for (int i = 0; i < 10000; ++i) {
    PaxosMessage vote;
    vote.type = PaxosMsgType::kPhase2b;
    vote.instance = static_cast<uint32_t>(rng.UniformInt(1, 30));
    vote.round = static_cast<uint16_t>(rng.UniformInt(1, 4));
    vote.value = static_cast<PaxosValue>(rng.UniformInt(1, 5));
    vote.sender_id = static_cast<uint32_t>(rng.UniformInt(0, 2));
    vote.client = 100;
    learner.HandleMessage(vote, 0);
  }
  // At most one delivery per instance.
  EXPECT_LE(learner.delivered_count(), 30u);
  EXPECT_LE(learner.highest_contiguous(), learner.highest_seen());
}

// ---- Energy model: tipping point is monotone in hardware base power ----

TEST(TippingMonotonicityTest, CheaperHardwareTipsEarlier) {
  auto software = MakeServerRatePower(I7MemcachedCurve(), Microseconds(4), 4);
  auto with_nic = [&](double r) { return software(r) + 4.0; };
  double previous = 0;
  for (double board_watts : {10.0, 16.0, 22.0, 28.0}) {
    const auto advice = AdvisePlacement(
        with_nic, MakeFpgaRatePower(35.0, board_watts, 1.0, 13e6), 2e6);
    ASSERT_TRUE(advice.tipping_rate_pps.has_value()) << board_watts;
    EXPECT_GE(*advice.tipping_rate_pps, previous);
    previous = *advice.tipping_rate_pps;
  }
}

// ---- Simulation determinism across identical runs ----

TEST(DeterminismTest, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    Simulation sim(123);
    KvsTestbedOptions options;
    options.mode = KvsMode::kLake;
    KvsTestbed testbed(sim, options);
    testbed.Prefill(500, 64);
    auto& client = testbed.AddClient(
        LoadClientConfig{}, std::make_unique<PoissonArrival>(150000.0),
        [](NodeId src, uint64_t id, SimTime now, Rng& rng) {
          const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 499));
          return MakeKvRequestPacket(src, kTestbedServerNode,
                                     KvRequest{KvOp::kGet, key, 0}, id, now);
        });
    client.Start();
    sim.RunUntil(Milliseconds(100));
    return std::make_tuple(client.received(), client.latency().P99(),
                           testbed.meter().EnergyJoules(), sim.events_executed());
  };
  EXPECT_EQ(run(), run());
}

// ---- 4-substrate rack under randomized shift schedules ----
//
// Property: whatever shift schedule the orchestrator ends up executing on a
// host/FPGA/SmartNIC/switch rack, (a) the shared power ledger never exceeds
// the PDU budget at any sample point, and (b) the aggregate counters
// (total_shifts, warm_shifts, reprogram_deferrals, per-target shifts)
// reconcile exactly with the decision log — the audit trail cannot drift
// from the numbers the tests and benches gate on.

class RackShiftScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RackShiftScheduleTest, LedgerStaysWithinBudgetAndCountersReconcile) {
  Simulation sim(GetParam());
  Rng rng = sim.rng().Fork();
  constexpr double kBudgetWatts = 40.0;

  // The three offload substrates, alive but untrafficked: decisions are
  // driven by randomized measured rates, not packets.
  FpgaNicConfig fpga_config;
  fpga_config.name = "prop-netfpga";
  FpgaNic fpga(sim, fpga_config);
  LakeCache fpga_lake;
  fpga.InstallApp(&fpga_lake);

  SmartNicDeviceConfig smartnic_config;
  smartnic_config.name = "prop-smartnic";
  SmartNic smartnic(sim, SmartNicPresetByName("accelnet-fpga"), smartnic_config);
  AppFactoryEnv env;
  auto smartnic_app =
      AppRegistry::Global().Create("kvs", PlacementKind::kSmartNic, env);
  smartnic.InstallApp(smartnic_app.get());

  SwitchAsic asic(sim, SwitchAsicConfig{});
  KvSwitchCacheConfig cache_config;
  cache_config.kvs_service = 1;
  KvSwitchCache switch_program(cache_config);
  SwitchOffloadTarget switch_target(asic, switch_program, AppProto::kKv);

  // One migrator per (app, target); the FPGA options park by reprogramming
  // so mid-reconfiguration decision windows produce deferrals.
  RackOrchestratorConfig config;
  config.power_budget_watts = kBudgetWatts;
  config.check_period = Milliseconds(20);
  config.min_dwell = Milliseconds(10);
  RackOrchestrator orchestrator(sim, config);

  constexpr size_t kApps = 3;
  std::vector<double> rates(kApps, 0.0);
  std::vector<std::unique_ptr<StateTransferMigrator>> migrators;
  for (size_t i = 0; i < kApps; ++i) {
    RackAppSpec spec;
    spec.name = "app" + std::to_string(i);
    spec.warm_migration = rng.Bernoulli(0.5);
    spec.software_watts = [](double r) { return 35.0 + r / 5000.0; };
    spec.measured_rate_pps = [&rates, i] { return rates[i]; };
    auto add_option = [&](OffloadTarget& target, RatePowerFn watts,
                          ParkPolicy policy) {
      migrators.push_back(std::make_unique<StateTransferMigrator>(
          sim, target, StateTransferMigrator::Options{policy}));
      spec.options.push_back(RackPlacementOption{migrators.back().get(), std::move(watts)});
    };
    // App 0's firmware fits a leaner FPGA build, making the reprogram-parked
    // board its cheapest option — the reconfiguration halts that produce
    // deferral records are part of every schedule.
    add_option(fpga, MakeFpgaRatePower(35.0, i == 0 ? 12.0 : 24.0, 1.0, 13e6),
               ParkPolicy::kReprogram);
    add_option(smartnic,
               MakeSmartNicRatePower(35.0, smartnic.preset(),
                                     smartnic_app->OffloadProfile()
                                         .smartnic.MppsFractionFor(
                                             smartnic.preset().arch)),
               ParkPolicy::kGatedPark);
    auto switch_marginal = MakeSwitchMarginalPower(0.02, 350.0, 2.5e9);
    add_option(switch_target,
               [switch_marginal](double r) { return 35.0 + 18.0 + switch_marginal(r); },
               ParkPolicy::kKeepWarm);
    orchestrator.AddApp(std::move(spec));
  }

  // Randomized shift schedule: every app's rate jumps at random times.
  for (size_t i = 0; i < kApps; ++i) {
    SimTime at = 0;
    while (at < Seconds(3)) {
      at += rng.UniformInt(Milliseconds(30), Milliseconds(150));
      const double rate = rng.Bernoulli(0.3)
                              ? 0.0
                              : static_cast<double>(rng.UniformInt(0, 600000));
      sim.Schedule(at, [&rates, i, rate] { rates[i] = rate; });
    }
  }

  // Budget invariant, checked densely along the run.
  size_t samples = 0;
  SchedulePeriodic(sim, Milliseconds(5), Milliseconds(5), [&] {
    EXPECT_LE(orchestrator.ledger().committed_watts(), kBudgetWatts + 1e-9);
    ++samples;
    return sim.Now() < Seconds(3);
  });

  orchestrator.Start();
  sim.RunUntil(Seconds(3) + Milliseconds(200));
  EXPECT_GT(samples, 500u);

  // Counter <-> decision-log reconciliation.
  uint64_t shifts = 0;
  uint64_t warm = 0;
  uint64_t deferrals = 0;
  std::map<std::string, uint64_t> shifts_by_target;
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    switch (record.kind) {
      case RackDecisionRecord::Kind::kShift:
        ++shifts;
        ++shifts_by_target[record.target];
        if (record.warm) ++warm;
        break;
      case RackDecisionRecord::Kind::kShiftHome:
        ++shifts;
        if (record.warm) ++warm;
        break;
      case RackDecisionRecord::Kind::kDeferral:
        ++deferrals;
        break;
      default:
        break;  // No detector in this schedule: no failure/flap records.
    }
  }
  EXPECT_GT(orchestrator.total_shifts(), 0u);  // The schedule actually shifted.
  EXPECT_GT(orchestrator.reprogram_deferrals(), 0u);  // ... and deferred.
  EXPECT_EQ(orchestrator.total_shifts(), shifts);
  EXPECT_EQ(orchestrator.warm_shifts(), warm);
  EXPECT_EQ(orchestrator.reprogram_deferrals(), deferrals);
  for (const OffloadTarget* target :
       {static_cast<const OffloadTarget*>(&fpga),
        static_cast<const OffloadTarget*>(&smartnic),
        static_cast<const OffloadTarget*>(&switch_target)}) {
    EXPECT_EQ(orchestrator.ShiftsToTarget(*target),
              shifts_by_target[target->TargetName()])
        << target->TargetName();
  }
  // Ledger commitments only ever belong to currently offloaded apps.
  size_t offloaded = 0;
  for (size_t i = 0; i < orchestrator.app_count(); ++i) {
    if (orchestrator.current_option(i) != nullptr) {
      ++offloaded;
      EXPECT_EQ(orchestrator.ledger().commitments().count(orchestrator.app_name(i)),
                1u);
    }
  }
  EXPECT_EQ(orchestrator.ledger().commitments().size(), offloaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RackShiftScheduleTest,
                         ::testing::Values(17u, 29u, 43u));

// ---- Mixed rack under randomized fault schedules ----
//
// Property: whatever deterministic fault plan MakeRandomFaultPlan draws —
// device deaths, link flaps, PSU brownout cap steps — (a) the shared power
// ledger never exceeds the *currently active* cap at any sample point
// (brownouts shrink it mid-run), and (b) the fault injector's counters
// reconcile exactly with its fault log, and the orchestrator's
// failure/recovery/shift counters reconcile exactly with the decision log.

class RackFaultScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RackFaultScheduleTest, LedgerRespectsCapsAndFaultCountersReconcile) {
  Simulation sim(GetParam());
  Rng rng = sim.rng().Fork();
  constexpr double kBudgetWatts = 40.0;

  MixedRackOptions options;
  options.power_budget_watts = kBudgetWatts;
  options.kvs_switch_placement = true;  // A surviving landing spot.
  options.orchestrator.heartbeat_period = Milliseconds(2);
  options.orchestrator.check_period = Milliseconds(20);
  options.orchestrator.min_dwell = Milliseconds(10);
  options.kvs_checkpoint_period = Milliseconds(25);
  options.paxos_checkpoint_period = Milliseconds(25);
  MixedRackScenario rack(sim, options);
  rack.PrefillKvs(1000, 64);

  LoadClient& kvs = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(150000.0),
      [](NodeId src, uint64_t id, SimTime now, Rng& req_rng) {
        const uint64_t key = static_cast<uint64_t>(req_rng.UniformInt(0, 999));
        return MakeKvRequestPacket(src, kRackKvsServerNode,
                                   KvRequest{KvOp::kGet, key, 0}, id, now);
      });

  // The plan is drawn against whatever the testbed registered; brownout caps
  // may dip below what the apps would like to commit.
  RandomFaultPlanConfig plan_config;
  plan_config.horizon = Seconds(1);
  plan_config.death_probability = 0.4;
  plan_config.max_flaps_per_link = 2;
  plan_config.max_brownouts = 2;
  plan_config.min_cap_watts = 5.0;
  plan_config.max_cap_watts = kBudgetWatts;
  const FaultPlanSpec plan = MakeRandomFaultPlan(
      rng, rack.faults().TargetNames(), rack.faults().LinkNames(), plan_config);
  rack.faults().Arm(plan);

  // Budget invariant under the active cap, checked densely along the run.
  size_t samples = 0;
  SchedulePeriodic(sim, Milliseconds(5), Milliseconds(5), [&] {
    const auto& ledger = rack.orchestrator().ledger();
    if (!ledger.unlimited()) {
      EXPECT_LE(ledger.committed_watts(), ledger.budget_watts() + 1e-9)
          << "at " << sim.Now();
    }
    ++samples;
    return sim.Now() < Seconds(1);
  });

  rack.orchestrator().Start();
  rack.paxos_client()->Start();
  kvs.Start();
  sim.RunUntil(Seconds(1) + Milliseconds(100));
  EXPECT_GT(samples, 150u);

  // Fault counters <-> fault log.
  const FaultInjector& faults = rack.faults();
  std::map<FaultKind, uint64_t> by_kind;
  for (const FaultRecord& record : faults.fault_log()) {
    ++by_kind[record.kind];
  }
  EXPECT_EQ(faults.fault_log().size(), plan.events.size());
  EXPECT_EQ(faults.device_deaths(), by_kind[FaultKind::kDeviceDeath]);
  EXPECT_EQ(faults.link_down_events(), by_kind[FaultKind::kLinkDown]);
  EXPECT_EQ(faults.link_up_events(), by_kind[FaultKind::kLinkUp]);
  EXPECT_EQ(faults.brownouts(), by_kind[FaultKind::kPsuBrownout]);

  // Orchestrator counters <-> decision log.
  uint64_t shifts = 0;
  uint64_t failures = 0;
  uint64_t recoveries = 0;
  uint64_t flaps_suppressed = 0;
  for (const RackDecisionRecord& record : rack.orchestrator().decision_log()) {
    switch (record.kind) {
      case RackDecisionRecord::Kind::kShift:
      case RackDecisionRecord::Kind::kShiftHome:
        ++shifts;
        break;
      case RackDecisionRecord::Kind::kFailure:
        ++failures;
        break;
      case RackDecisionRecord::Kind::kRecovery:
        ++recoveries;
        break;
      case RackDecisionRecord::Kind::kFlapSuppressed:
        ++flaps_suppressed;
        break;
      case RackDecisionRecord::Kind::kDeferral:
        break;
    }
  }
  EXPECT_EQ(rack.orchestrator().total_shifts(), shifts);
  EXPECT_EQ(rack.orchestrator().failures_detected(), failures);
  EXPECT_EQ(rack.orchestrator().recoveries(), recoveries);
  EXPECT_EQ(rack.orchestrator().flap_suppressions(), flaps_suppressed);
  // A recovery implies a detected failure; recovery can't outrun detection.
  EXPECT_LE(recoveries, failures * rack.orchestrator().app_count());

  // Ledger commitments only ever belong to currently offloaded apps.
  size_t offloaded = 0;
  for (size_t i = 0; i < rack.orchestrator().app_count(); ++i) {
    if (rack.orchestrator().current_option(i) != nullptr) {
      ++offloaded;
    }
  }
  EXPECT_EQ(rack.orchestrator().ledger().commitments().size(), offloaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RackFaultScheduleTest,
                         ::testing::Values(17u, 29u, 43u));

// ---- Offload-NIC conservation: every network packet ends exactly once ----
//
// Parameter: (seed, board). Whatever mix of network ingress (bursts of
// claimed and unclaimed traffic), activation flips, reprogram windows and
// one engine kill the seed draws, each packet the board receives from the
// network is processed by the engine, delivered to the host, dropped
// (reprogram halt or engine-queue overflow) or dead-dropped — once:
//   sent == processed_in_hardware + delivered_to_host + dropped + dead_dropped.

// Offload app that consumes every packet it is handed (no replies, no punts).
class ConsumingApp : public App {
 public:
  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "consume"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic || placement == PlacementKind::kSmartNic;
  }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.pipeline.workers = 2;
    profile.pipeline.worker_service = Nanoseconds(200);
    profile.pipeline.input_queue_capacity = 16;
    // ~72 kpps on the AccelNet engine: big bursts overflow its queue.
    profile.smartnic.fpga_mpps_fraction = 0.001;
    return profile;
  }
  void HandlePacket(AppContext&, Packet&&) override {}
};

class OffloadNicConservationTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(OffloadNicConservationTest, EveryIngressPacketEndsOnce) {
  const auto [seed, smartnic] = GetParam();
  Simulation sim(seed);
  Rng rng = sim.rng().Fork();
  Topology topo(sim);
  struct Sink : PacketSink {
    void Receive(Packet) override {}
    std::string SinkName() const override { return "sink"; }
  } net, host;
  std::unique_ptr<OffloadNic> board;
  if (smartnic) {
    board = std::make_unique<SmartNic>(sim, SmartNicPresetByName("accelnet-fpga"),
                                       SmartNicDeviceConfig{});
  } else {
    board = std::make_unique<FpgaNic>(sim, FpgaNicConfig{});
  }
  ConsumingApp app;
  board->InstallApp(&app);
  board->SetNetworkLink(topo.Connect(&net, board.get()));
  board->SetHostLink(topo.Connect(board.get(), &host));

  constexpr SimTime kHorizon = Milliseconds(20);
  uint64_t sent = 0;
  auto send_burst = [&](int count, bool claimed) {
    for (int i = 0; i < count; ++i) {
      Packet pkt;
      pkt.src = 100;
      pkt.dst = 1;
      pkt.proto = claimed ? AppProto::kKv : AppProto::kRaw;
      board->Receive(pkt);
      ++sent;
    }
  };
  for (int i = 0; i < 400; ++i) {
    const SimTime at = rng.UniformInt(0, kHorizon);
    const bool claimed = rng.Bernoulli(0.8);
    const int count = rng.Bernoulli(0.02) ? static_cast<int>(rng.UniformInt(1100, 1500))
                                          : static_cast<int>(rng.UniformInt(1, 40));
    sim.Schedule(at, [&send_burst, count, claimed] { send_burst(count, claimed); });
  }
  for (int i = 0; i < 20; ++i) {
    const bool active = rng.Bernoulli(0.6);
    sim.Schedule(rng.UniformInt(0, kHorizon), [&board, active] {
      board->SetAppActive(active);
    });
  }
  for (int i = 0; i < 3; ++i) {
    const SimTime at = rng.UniformInt(0, kHorizon);
    const SimDuration length = rng.UniformInt(Microseconds(50), Microseconds(500));
    sim.Schedule(at, [&board] { board->SetReprogramming(true); });
    sim.Schedule(at + length, [&board] { board->SetReprogramming(false); });
  }
  // Claimed work is in flight when the engine dies: completions pending
  // (sent 1 us before) and, on the FPGA, packets still in the classifier
  // stage (100 ns before).
  const SimTime kill_at = rng.UniformInt(kHorizon / 4, kHorizon / 2);
  for (SimDuration lead : {Microseconds(1), Nanoseconds(100)}) {
    sim.Schedule(kill_at - lead, [&] {
      board->SetAppActive(true);
      send_burst(8, /*claimed=*/true);
    });
  }
  sim.Schedule(kill_at, [&board] { board->KillEngine(); });
  // Claimed traffic reaches the dead engine's classifier at least once.
  sim.Schedule(kHorizon + 1, [&] {
    board->SetAppActive(true);
    send_burst(8, /*claimed=*/true);
  });
  sim.Run();

  EXPECT_EQ(sent, board->processed_in_hardware() + board->delivered_to_host() +
                      board->dropped() + board->dead_dropped());
  EXPECT_GT(board->processed_in_hardware(), 0u);
  EXPECT_GT(board->delivered_to_host(), 0u);
  EXPECT_GT(board->dropped(), 0u);
  EXPECT_GE(board->dead_dropped(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBoards, OffloadNicConservationTest,
    ::testing::Combine(::testing::Values(11u, 22u, 33u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, bool>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_SmartNic" : "_FpgaNic");
    });

// ---- Umbrella header exposes the full API (compile-time property) ----

TEST(UmbrellaHeaderTest, CoreTypesAreVisible) {
  Simulation sim(1);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_STREQ(AppProtoName(AppProto::kKv), "kv");
  EXPECT_STREQ(PlacementName(Placement::kHost), "host");
  EXPECT_STREQ(SmartNicArchName(SmartNicArch::kFpga), "fpga");
}

}  // namespace
}  // namespace incod
