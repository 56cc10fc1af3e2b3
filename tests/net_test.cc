// Tests for packets, links, the L2 switch, and topology assembly.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/net/switch.h"
#include "src/net/topology.h"
#include "src/sim/random.h"
#include "src/sim/sharded.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(Simulation* sim = nullptr, std::string name = "collector")
      : sim_(sim), name_(std::move(name)) {}

  void Receive(Packet packet) override {
    packets.push_back(packet);
    if (sim_ != nullptr) {
      arrival_times.push_back(sim_->Now());
    }
  }
  std::string SinkName() const override { return name_; }

  std::vector<Packet> packets;
  std::vector<SimTime> arrival_times;

 private:
  Simulation* sim_;
  std::string name_;
};

Packet MakeRawPacket(NodeId src, NodeId dst, uint32_t bytes = 64) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = AppProto::kRaw;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(PacketTest, ProtoNames) {
  EXPECT_STREQ(AppProtoName(AppProto::kKv), "kv");
  EXPECT_STREQ(AppProtoName(AppProto::kPaxos), "paxos");
  EXPECT_STREQ(AppProtoName(AppProto::kDns), "dns");
  EXPECT_STREQ(AppProtoName(AppProto::kRaw), "raw");
}

TEST(PacketTest, PayloadAccessors) {
  Packet pkt;
  EXPECT_FALSE(pkt.has_payload());
  pkt.payload = KvRequest{KvOp::kSet, 7, 100};
  EXPECT_TRUE(pkt.has_payload());
  EXPECT_TRUE(PayloadIs<KvRequest>(pkt));
  EXPECT_FALSE(PayloadIs<KvResponse>(pkt));
  EXPECT_EQ(PayloadAs<KvRequest>(pkt).key, 7u);
  ASSERT_NE(PayloadIf<KvRequest>(pkt), nullptr);
  EXPECT_EQ(PayloadIf<KvRequest>(pkt)->value_bytes, 100u);
  EXPECT_EQ(PayloadIf<DnsMessage>(pkt), nullptr);
  EXPECT_THROW(PayloadAs<PaxosMessage>(pkt), std::bad_variant_access);
}

TEST(PacketTest, ControlPayloadRoundTrip) {
  ControlMessage msg;
  msg.kind = ControlMessage::Kind::kActivateOffload;
  msg.target_proto = AppProto::kKv;
  msg.value = 42;
  const Packet pkt = MakeControlPacket(1, 2, msg, 9, Microseconds(3));
  EXPECT_EQ(pkt.proto, AppProto::kControl);
  EXPECT_EQ(pkt.size_bytes, kControlWireBytes);
  ASSERT_TRUE(PayloadIs<ControlMessage>(pkt));
  EXPECT_EQ(PayloadAs<ControlMessage>(pkt).kind, ControlMessage::Kind::kActivateOffload);
  EXPECT_EQ(PayloadAs<ControlMessage>(pkt).target_proto, AppProto::kKv);
  EXPECT_EQ(PayloadAs<ControlMessage>(pkt).value, 42u);
  EXPECT_STREQ(ControlKindName(msg.kind), "activate");
}

TEST(LinkTest, DeliversWithSerializationAndPropagation) {
  Simulation sim;
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  Link::Config config;
  config.gigabits_per_second = 10.0;
  config.propagation_delay = Nanoseconds(500);
  Link link(sim, config, "test");
  link.Connect(&a, &b);
  link.Send(&a, MakeRawPacket(1, 2, 1250));  // 1250 B at 10 Gbps = 1 us.
  sim.Run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], Microseconds(1) + Nanoseconds(500));
}

TEST(LinkTest, BackToBackPacketsQueueBehindSerialization) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link::Config config;
  config.gigabits_per_second = 10.0;
  config.propagation_delay = 0;
  Link link(sim, config);
  link.Connect(&a, &b);
  link.Send(&a, MakeRawPacket(1, 2, 1250));
  link.Send(&a, MakeRawPacket(1, 2, 1250));
  sim.Run();
  ASSERT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(b.arrival_times[0], Microseconds(1));
  EXPECT_EQ(b.arrival_times[1], Microseconds(2));
}

TEST(LinkTest, FullDuplexDirectionsIndependent) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link link(sim, {});
  link.Connect(&a, &b);
  link.Send(&a, MakeRawPacket(1, 2));
  link.Send(&b, MakeRawPacket(2, 1));
  sim.Run();
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(link.delivered(&a), 1u);
  EXPECT_EQ(link.delivered(&b), 1u);
}

TEST(LinkTest, DropsWhenQueueFull) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link::Config config;
  config.gigabits_per_second = 0.001;  // 1 Mbps: slow.
  config.queue_capacity_packets = 4;
  Link link(sim, config);
  link.Connect(&a, &b);
  for (int i = 0; i < 100; ++i) {
    link.Send(&a, MakeRawPacket(1, 2, 1500));
  }
  // One packet serializes while 4 queue behind it; the rest drop.
  EXPECT_EQ(link.in_flight(&b), 5u);
  sim.Run();
  EXPECT_EQ(b.packets.size(), 5u);
  EXPECT_EQ(link.dropped_overflow(&b), 95u);
  EXPECT_EQ(link.total_dropped(), 95u);
  EXPECT_EQ(link.in_flight(&b), 0u);
}

TEST(LinkTest, InServicePacketDoesNotOccupyQueue) {
  // Regression: the drop check used to conflate the packet being serialized
  // with queued backlog, firing one packet early (at queue_capacity instead
  // of queue_capacity + 1 concurrently held).
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link::Config config;
  config.gigabits_per_second = 0.001;
  config.queue_capacity_packets = 4;
  Link link(sim, config);
  link.Connect(&a, &b);
  for (int i = 0; i < 5; ++i) {  // 1 in service + 4 waiting: all accepted.
    link.Send(&a, MakeRawPacket(1, 2, 1500));
  }
  EXPECT_EQ(link.dropped_overflow(&b), 0u);
  link.Send(&a, MakeRawPacket(1, 2, 1500));  // Queue genuinely full now.
  EXPECT_EQ(link.dropped_overflow(&b), 1u);
  sim.Run();
  EXPECT_EQ(b.packets.size(), 5u);
  // Once the first packet finishes serializing, a queue slot frees up and
  // the next send is accepted again.
  link.Send(&a, MakeRawPacket(1, 2, 1500));
  sim.Run();
  EXPECT_EQ(b.packets.size(), 6u);
  EXPECT_EQ(link.dropped_overflow(&b), 1u);
}

// Bursts of tiny (zero-serialization) and larger packets on a fast link:
// several packets share a deliver tick inside each burst, and they arrive
// in send order, each on its own delivery event.
TEST(LinkTest, SameTickDeliveriesMatchGoldenSequence) {
  Simulation sim(7);
  Link::Config config;
  config.gigabits_per_second = 1000.0;  // 64B ~ 0.5ns: rounds to same-tick.
  config.propagation_delay = Nanoseconds(20);
  Link link(sim, config, "batchy");
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  link.Connect(&a, &b);
  uint64_t id = 0;
  for (int burst = 0; burst < 5; ++burst) {
    sim.ScheduleAt(burst * Nanoseconds(100), [&link, &a, &id] {
      for (int i = 0; i < 6; ++i) {
        Packet pkt = MakeRawPacket(1, 2, i == 3 ? 512 : 0);
        pkt.id = ++id;
        link.Send(&a, std::move(pkt));
      }
    });
  }
  sim.Run();
  // Golden (id, ns) sequence, recorded from the one-event-per-packet
  // delivery path: per burst, the first three packets arrive after
  // propagation alone and the last three queue behind the 512B packet's
  // ~4ns serialization. FIFO order is the send order.
  const std::pair<uint64_t, SimTime> kGolden[] = {
      {1, 20}, {2, 20}, {3, 20},
      {4, 24}, {5, 24}, {6, 24},
      {7, 120}, {8, 120}, {9, 120},
      {10, 124}, {11, 124}, {12, 124},
      {13, 220}, {14, 220}, {15, 220},
      {16, 224}, {17, 224}, {18, 224},
      {19, 320}, {20, 320}, {21, 320},
      {22, 324}, {23, 324}, {24, 324},
      {25, 420}, {26, 420}, {27, 420},
      {28, 424}, {29, 424}, {30, 424},
  };
  ASSERT_EQ(b.packets.size(), std::size(kGolden));
  for (size_t i = 0; i < b.packets.size(); ++i) {
    EXPECT_EQ(b.packets[i].id, kGolden[i].first) << "order diverged at " << i;
    EXPECT_EQ(b.arrival_times[i], Nanoseconds(kGolden[i].second))
        << "time diverged at " << i;
  }
  // 5 burst events plus one delivery event per packet: packets that share a
  // delivery tick still ride their own events.
  EXPECT_EQ(sim.events_executed(), 35u);
}

TEST(LinkTest, RejectsUnknownSender) {
  Simulation sim;
  CollectorSink a;
  CollectorSink b;
  CollectorSink stranger;
  Link link(sim, {});
  link.Connect(&a, &b);
  EXPECT_THROW(link.Send(&stranger, MakeRawPacket(1, 2)), std::invalid_argument);
}

TEST(LinkTest, SendBeforeConnectThrows) {
  Simulation sim;
  CollectorSink a;
  Link link(sim, {});
  EXPECT_THROW(link.Send(&a, MakeRawPacket(1, 2)), std::logic_error);
}

// ---- SendAt against a relay reference ----
//
// Parameter: (seed, pfc). Random bursts of random-size packets on a slow
// link, so the direction queues and drops, with down/up flips that fall
// inside the senders' forwarding windows and, on the PFC leg, a pause of
// each direction. The a->b sender adds a fixed 20 us delay, the b->a sender
// none (ready == now). Sending with SendAt must deliver the same (tick, id)
// stream and count the same drops as the reference that schedules an event
// at the ready tick and calls Send there.

struct SendAtRun {
  std::vector<std::pair<SimTime, uint64_t>> to_b;
  std::vector<std::pair<SimTime, uint64_t>> to_a;
  uint64_t overflow_b = 0;
  uint64_t overflow_a = 0;
  uint64_t down_b = 0;
  uint64_t down_a = 0;
  uint64_t events = 0;
};

SendAtRun RunSendAtTraffic(uint64_t seed, bool pfc, bool relay_reference) {
  struct Recorder : PacketSink {
    Recorder(Simulation& sim, std::vector<std::pair<SimTime, uint64_t>>& out)
        : sim(sim), out(out) {}
    void Receive(Packet packet) override { out.emplace_back(sim.Now(), packet.id); }
    std::string SinkName() const override { return "recorder"; }
    Simulation& sim;
    std::vector<std::pair<SimTime, uint64_t>>& out;
  };
  SendAtRun run;
  Simulation sim(seed);
  Rng rng = sim.rng().Fork();
  Recorder a(sim, run.to_a);
  Recorder b(sim, run.to_b);
  Link::Config config;
  config.gigabits_per_second = 0.5;
  config.propagation_delay = Microseconds(2);
  config.queue_capacity_packets = 4;
  config.flow.pfc = pfc;
  config.flow.pause_high_watermark = 3;
  config.flow.pause_low_watermark = 1;
  Link link(sim, config, "sendat");
  link.Connect(&a, &b);
  const SimDuration delay_to_b = Microseconds(20);
  link.ScheduleDown(Microseconds(1000));
  link.ScheduleUp(Microseconds(1500));
  link.ScheduleDown(Microseconds(3000));
  link.ScheduleUp(Microseconds(3010));
  if (pfc) {
    sim.ScheduleAt(Microseconds(2000), [&] { link.PauseUpstream(&b, true); });
    sim.ScheduleAt(Microseconds(2300), [&] { link.PauseUpstream(&b, false); });
    sim.ScheduleAt(Microseconds(4000), [&] { link.PauseUpstream(&a, true); });
    sim.ScheduleAt(Microseconds(4100), [&] { link.PauseUpstream(&a, false); });
  }
  uint64_t id = 0;
  for (int burst = 0; burst < 300; ++burst) {
    const SimTime at = rng.UniformInt(0, Microseconds(5000));
    const bool toward_b = rng.Bernoulli(0.6);
    std::vector<Packet> packets(static_cast<size_t>(rng.UniformInt(1, 3)));
    for (Packet& pkt : packets) {
      pkt = MakeRawPacket(toward_b ? 1 : 2, toward_b ? 2 : 1,
                          static_cast<uint32_t>(rng.UniformInt(64, 1500)));
      pkt.id = ++id;
    }
    sim.ScheduleAt(at, [&, toward_b, packets]() mutable {
      PacketSink* from = toward_b ? static_cast<PacketSink*>(&a) : &b;
      const SimTime ready = sim.Now() + (toward_b ? delay_to_b : 0);
      for (Packet& pkt : packets) {
        if (relay_reference) {
          sim.ScheduleAt(ready, [&link, from, pkt]() mutable { link.Send(from, std::move(pkt)); });
        } else {
          link.SendAt(from, ready, std::move(pkt));
        }
      }
    });
  }
  sim.Run();
  run.overflow_b = link.dropped_overflow(&b);
  run.overflow_a = link.dropped_overflow(&a);
  run.down_b = link.dropped_link_down(&b);
  run.down_a = link.dropped_link_down(&a);
  run.events = sim.events_executed();
  EXPECT_EQ(link.in_flight(&a), 0u);
  EXPECT_EQ(link.in_flight(&b), 0u);
  return run;
}

class SendAtReferenceTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(SendAtReferenceTest, MatchesScheduleThenSend) {
  const auto [seed, pfc] = GetParam();
  const SendAtRun want = RunSendAtTraffic(seed, pfc, /*relay_reference=*/true);
  const SendAtRun got = RunSendAtTraffic(seed, pfc, /*relay_reference=*/false);
  // The traffic must exercise what it is meant to: drops of both kinds.
  EXPECT_GT(want.overflow_b, 0u);
  EXPECT_GT(want.down_b, 0u);
  EXPECT_EQ(got.to_b, want.to_b);
  EXPECT_EQ(got.to_a, want.to_a);
  EXPECT_EQ(got.overflow_b, want.overflow_b);
  EXPECT_EQ(got.overflow_a, want.overflow_a);
  EXPECT_EQ(got.down_b, want.down_b);
  EXPECT_EQ(got.down_a, want.down_a);
  // Unpaced, only sends near a flip keep their relay event.
  if (!pfc) {
    EXPECT_LT(got.events, want.events);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndPacing, SendAtReferenceTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Bool()));

TEST(LinkTest, SendAtRejectsDecreasingReady) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link link(sim, {});
  link.Connect(&a, &b);
  link.SendAt(&a, Microseconds(10), MakeRawPacket(1, 2));
  EXPECT_THROW(link.SendAt(&a, Microseconds(5), MakeRawPacket(1, 2)), std::logic_error);
  // Send is SendAt(now), which is before the accepted ready tick.
  EXPECT_THROW(link.Send(&a, MakeRawPacket(1, 2)), std::logic_error);
  // Ties are fine, and the other direction keeps its own ready ticks.
  link.SendAt(&a, Microseconds(10), MakeRawPacket(1, 2));
  link.Send(&b, MakeRawPacket(2, 1));
  sim.RunUntil(Microseconds(20));
  EXPECT_THROW(link.SendAt(&b, Microseconds(15), MakeRawPacket(2, 1)), std::logic_error);
  sim.Run();
  EXPECT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(a.packets.size(), 1u);
}

TEST(LinkTest, FlipBeforeAcceptedReadyThrows) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link link(sim, {});
  link.Connect(&a, &b);
  link.SendAt(&a, Microseconds(10), MakeRawPacket(1, 2));
  // The packet was settled as sent at 10 us with the link up; a flip before
  // that would have refused it.
  EXPECT_THROW(link.ScheduleDown(Microseconds(5)), std::logic_error);
  EXPECT_NO_THROW(link.ScheduleDown(Microseconds(10)));
  EXPECT_NO_THROW(link.ScheduleUp(Microseconds(30)));
  sim.RunUntil(Microseconds(40));
  // A flip in the past would be clamped to now: refused as well.
  EXPECT_THROW(link.ScheduleDown(Microseconds(35)), std::logic_error);
  sim.Run();
  EXPECT_EQ(link.delivered(&b), 0u);  // Delivered inside the down window.
  EXPECT_EQ(link.dropped_link_down(&b), 1u);
}

TEST(SwitchTest, RoutesByDestination) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim, "h1");
  CollectorSink h2(&sim, "h2");
  topo.ConnectToSwitch(&sw, &h1, 1);
  topo.ConnectToSwitch(&sw, &h2, 2);
  sw.Receive(MakeRawPacket(1, 2));
  sim.Run();
  EXPECT_EQ(h2.packets.size(), 1u);
  EXPECT_TRUE(h1.packets.empty());
  EXPECT_EQ(sw.forwarded(), 1u);
}

TEST(SwitchTest, DropsUnroutable) {
  Simulation sim;
  L2Switch sw(sim, "sw");
  sw.Receive(MakeRawPacket(1, 99));
  sim.Run();
  EXPECT_EQ(sw.dropped_no_route(), 1u);
}

TEST(SwitchTest, RuleOverridesRoute) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim, "h1");
  CollectorSink h2(&sim, "h2");
  topo.ConnectToSwitch(&sw, &h1, 1);
  const int port2 = sw.AttachLink(topo.Connect(&sw, &h2, {}, "p2"));
  sw.AddRoute(2, port2);

  // Paxos traffic for node 1 is redirected to port2 (the migration rewrite).
  L2Switch::ForwardingRule rule;
  rule.proto = AppProto::kPaxos;
  rule.match_dst = 1;
  rule.out_port = port2;
  sw.InstallRule(rule);

  Packet paxos = MakeRawPacket(9, 1);
  paxos.proto = AppProto::kPaxos;
  sw.Receive(paxos);
  sw.Receive(MakeRawPacket(9, 1));  // Raw still follows the route.
  sim.Run();
  EXPECT_EQ(h2.packets.size(), 1u);
  EXPECT_EQ(h1.packets.size(), 1u);
}

TEST(SwitchTest, RuleRewriteChangesDestination) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim);
  topo.ConnectToSwitch(&sw, &h1, 1);
  L2Switch::ForwardingRule rule;
  rule.proto = AppProto::kDns;
  rule.match_dst = 200;
  rule.out_port = 0;
  rule.rewrite_dst = 1;
  sw.InstallRule(rule);
  Packet pkt = MakeRawPacket(9, 200);
  pkt.proto = AppProto::kDns;
  sw.Receive(pkt);
  sim.Run();
  ASSERT_EQ(h1.packets.size(), 1u);
  EXPECT_EQ(h1.packets[0].dst, 1u);
}

TEST(SwitchTest, HigherPriorityRuleWins) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim, "h1");
  CollectorSink h2(&sim, "h2");
  topo.ConnectToSwitch(&sw, &h1, 1);
  topo.ConnectToSwitch(&sw, &h2, 2);
  L2Switch::ForwardingRule low;
  low.proto = AppProto::kKv;
  low.out_port = 0;
  low.priority = 1;
  L2Switch::ForwardingRule high;
  high.proto = AppProto::kKv;
  high.out_port = 1;
  high.priority = 5;
  sw.InstallRule(low);
  sw.InstallRule(high);
  Packet pkt = MakeRawPacket(9, 42);
  pkt.proto = AppProto::kKv;
  sw.Receive(pkt);
  sim.Run();
  EXPECT_EQ(h2.packets.size(), 1u);
  EXPECT_TRUE(h1.packets.empty());
}

TEST(SwitchTest, InstallRuleReplacesSameKey) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim);
  CollectorSink h2(&sim);
  topo.ConnectToSwitch(&sw, &h1, 1);
  topo.ConnectToSwitch(&sw, &h2, 2);
  L2Switch::ForwardingRule rule;
  rule.proto = AppProto::kPaxos;
  rule.match_dst = 7;
  rule.out_port = 0;
  sw.InstallRule(rule);
  rule.out_port = 1;  // Re-point (leader migration).
  sw.InstallRule(rule);
  EXPECT_EQ(sw.num_rules(), 1u);
  Packet pkt = MakeRawPacket(9, 7);
  pkt.proto = AppProto::kPaxos;
  sw.Receive(pkt);
  sim.Run();
  EXPECT_EQ(h2.packets.size(), 1u);
}

TEST(SwitchTest, RemoveRules) {
  Simulation sim;
  Topology topo(sim);
  L2Switch sw(sim, "sw");
  CollectorSink h1(&sim);
  topo.ConnectToSwitch(&sw, &h1, 1);
  L2Switch::ForwardingRule rule;
  rule.proto = AppProto::kKv;
  rule.match_dst = 5;
  rule.out_port = 0;
  sw.InstallRule(rule);
  EXPECT_EQ(sw.RemoveRules(AppProto::kKv, 6), 0u);
  EXPECT_EQ(sw.RemoveRules(AppProto::kKv, 5), 1u);
  EXPECT_EQ(sw.num_rules(), 0u);
}

TEST(SwitchTest, BadPortsRejected) {
  Simulation sim;
  L2Switch sw(sim, "sw");
  EXPECT_THROW(sw.AddRoute(1, 0), std::out_of_range);
  L2Switch::ForwardingRule rule;
  rule.out_port = 3;
  EXPECT_THROW(sw.InstallRule(rule), std::out_of_range);
}

TEST(TopologyTest, ConnectsAndCounts) {
  Simulation sim;
  Topology topo(sim);
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link* link = topo.Connect(&a, &b);
  EXPECT_EQ(topo.num_links(), 1u);
  link->Send(&a, MakeRawPacket(1, 2));
  sim.Run();
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(SwitchTest, DefaultRouteForwardsUnroutedTraffic) {
  Simulation sim;
  L2Switch sw(sim, "tor");
  CollectorSink local(&sim);
  CollectorSink uplink_sink(&sim);
  Link local_link(sim, Link::Config{});
  local_link.Connect(&sw, &local);
  Link uplink(sim, Link::Config{});
  uplink.Connect(&sw, &uplink_sink);
  const int local_port = sw.AttachLink(&local_link);
  const int uplink_port = sw.AttachLink(&uplink);
  sw.AddRoute(1, local_port);
  EXPECT_THROW(sw.SetDefaultRoute(5), std::out_of_range);
  sw.SetDefaultRoute(uplink_port);

  sw.Receive(MakeRawPacket(9, 1));   // Routed: stays local.
  sw.Receive(MakeRawPacket(9, 42));  // Unrouted: takes the default route.
  sim.Run();
  ASSERT_EQ(local.packets.size(), 1u);
  EXPECT_EQ(local.packets[0].dst, 1);
  ASSERT_EQ(uplink_sink.packets.size(), 1u);
  EXPECT_EQ(uplink_sink.packets[0].dst, 42);
  EXPECT_EQ(sw.dropped_no_route(), 0u);
}

TEST(LinkTest, DeliveryToDeadSinkDroppedAndCounted) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link link(sim, {});
  link.Connect(&a, &b);
  link.Send(&a, MakeRawPacket(1, 2));  // In flight when the sink dies.
  b.SetAlive(false);
  sim.Run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(link.dropped_to_dead(&b), 1u);
  EXPECT_EQ(link.delivered(&b), 0u);
  // Death is receiver-side only: the reverse direction still works, and a
  // revived sink receives again.
  link.Send(&b, MakeRawPacket(2, 1));
  b.SetAlive(true);
  link.Send(&a, MakeRawPacket(1, 2));
  sim.Run();
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(link.dropped_to_dead(&b), 1u);
}

TEST(LinkTest, LinkFlapDropsInFlightAndRefusesSends) {
  Simulation sim;
  CollectorSink a(&sim);
  CollectorSink b(&sim);
  Link::Config config;
  config.gigabits_per_second = 10.0;
  config.propagation_delay = Microseconds(10);
  Link link(sim, config);
  link.Connect(&a, &b);
  link.ScheduleDown(Microseconds(5));
  link.ScheduleUp(Microseconds(50));
  // Sent before the flap but delivered (1 us serialization + 10 us
  // propagation = t=11) inside the down window: dropped at delivery.
  link.Send(&a, MakeRawPacket(1, 2, 1250));
  // Sent while down: refused at the sender.
  sim.Schedule(Microseconds(20), [&link, &a, &b] {
    EXPECT_TRUE(link.link_down(&b));
    link.Send(&a, MakeRawPacket(1, 2, 1250));
  });
  // Sent after the link came back: delivered normally.
  sim.Schedule(Microseconds(60), [&link, &a, &b] {
    EXPECT_FALSE(link.link_down(&b));
    link.Send(&a, MakeRawPacket(1, 2, 1250));
  });
  sim.Run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], Microseconds(71));
  EXPECT_EQ(link.delivered(&b), 1u);
  EXPECT_EQ(link.dropped_link_down(&b), 2u);
  EXPECT_EQ(link.in_flight(&b), 0u);
}

// The same flap schedule across a shard boundary must deliver the same
// packets at the same times and count the same drops as the intra-shard
// topology, in both engine modes: the down/up flips are per-side events
// running in the shard that owns that side's state.
TEST(LinkTest, CrossShardLinkFlapMatchesIntraShard) {
  const auto drive = [](Simulation& send_shard, Link* link, CollectorSink* a) {
    link->ScheduleDown(Microseconds(10));
    link->ScheduleUp(Microseconds(30));
    // Bursts: all-delivered / in-flight-at-down / refused-while-down /
    // delivered-after-up.
    for (const SimTime at :
         {SimTime{0}, Microseconds(8), Microseconds(15), Microseconds(40)}) {
      send_shard.ScheduleAt(at, [link, a] {
        for (int i = 0; i < 4; ++i) {
          link->Send(a, MakeRawPacket(1, 2, 1500));
        }
      });
    }
  };

  std::vector<SimTime> want;
  uint64_t want_down_drops = 0;
  {
    Simulation sim;
    CollectorSink a(&sim);
    CollectorSink b(&sim);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    Link link(sim, config);
    link.Connect(&a, &b);
    drive(sim, &link, &a);
    sim.Run();
    want = b.arrival_times;
    want_down_drops = link.dropped_link_down(&b);
    ASSERT_EQ(want.size(), 8u);        // First and last bursts.
    ASSERT_EQ(want_down_drops, 8u);    // Middle two bursts.
  }
  for (const auto mode : {ShardedSimulation::Mode::kSingleQueue,
                          ShardedSimulation::Mode::kParallel}) {
    ShardedSimulation::Options opt;
    opt.num_shards = 2;
    opt.num_threads = 2;
    opt.mode = mode;
    ShardedSimulation ssim(opt);
    Topology topo(ssim.shard(0));
    topo.SetSharded(&ssim, 0);
    CollectorSink a(&ssim.shard(0));
    CollectorSink b(&ssim.shard(1));
    topo.AssignShard(&b, 1);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    Link* link = topo.Connect(&a, &b, config);
    drive(ssim.shard(0), link, &a);
    ssim.Run();
    EXPECT_EQ(b.arrival_times, want) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(link->dropped_link_down(&b), want_down_drops)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(link->delivered(&b), want.size());
  }
}

// A cross-shard link must deliver the same packets at the same times as the
// identical intra-shard topology: delivery timing (serialization + queueing +
// propagation) is computed sender-side and carried in the mailbox stamp.
TEST(LinkTest, CrossShardDeliveryMatchesIntraShardTiming) {
  // Reference: plain single-sim link.
  std::vector<SimTime> want;
  {
    Simulation sim;
    CollectorSink a(&sim);
    CollectorSink b(&sim);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    Link link(sim, config);
    link.Connect(&a, &b);
    for (int burst = 0; burst < 3; ++burst) {
      sim.Schedule(Microseconds(5) * burst, [&link, &a] {
        for (int i = 0; i < 4; ++i) {
          link.Send(&a, MakeRawPacket(1, 2, 1500));  // Queue behind serialization.
        }
      });
    }
    sim.Run();
    want = b.arrival_times;
    ASSERT_EQ(want.size(), 12u);
  }
  // Same traffic across a shard boundary, both engine modes.
  for (const auto mode : {ShardedSimulation::Mode::kSingleQueue,
                          ShardedSimulation::Mode::kParallel}) {
    ShardedSimulation::Options opt;
    opt.num_shards = 2;
    opt.num_threads = 2;
    opt.mode = mode;
    ShardedSimulation ssim(opt);
    Topology topo(ssim.shard(0));
    topo.SetSharded(&ssim, 0);
    CollectorSink a(&ssim.shard(0));
    CollectorSink b(&ssim.shard(1));
    topo.AssignShard(&b, 1);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    Link* link = topo.Connect(&a, &b, config);
    for (int burst = 0; burst < 3; ++burst) {
      ssim.shard(0).Schedule(Microseconds(5) * burst, [link, &a] {
        for (int i = 0; i < 4; ++i) {
          link->Send(&a, MakeRawPacket(1, 2, 1500));
        }
      });
    }
    ssim.Run();
    EXPECT_EQ(b.arrival_times, want) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(link->delivered(&b), 12u);
  }
}

// --- PFC flow control ---

class FlowRecorder : public FlowListener {
 public:
  void OnLinkCongestion(Link* link, bool congested) override {
    (void)link;
    events.push_back(congested);
  }
  std::vector<bool> events;
};

Link::Config PacedConfig() {
  Link::Config config;
  config.gigabits_per_second = 0.1;  // 1000B packet = 80us serialization.
  config.propagation_delay = Nanoseconds(500);
  config.flow.pfc = true;
  config.flow.pause_high_watermark = 8;
  config.flow.pause_low_watermark = 2;
  return config;
}

TEST(LinkFlowTest, WatermarkPauseResumeSignals) {
  Simulation sim;
  Link::Config config = PacedConfig();
  config.flow.ecn = true;
  config.flow.ecn_threshold_packets = 4;
  Link link(sim, config, "paced");
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  link.Connect(&a, &b);
  FlowRecorder rec;
  link.SetFlowListener(&a, &rec);
  // Inject 32 packets in 32us against an 80us-per-packet serializer: the
  // backlog crosses the high watermark on the way up and drains through the
  // low watermark at the end.
  for (int i = 0; i < 32; ++i) {
    sim.ScheduleAt(Microseconds(i), [&link, &a] {
      link.Send(&a, MakeRawPacket(1, 2, 1000));
    });
  }
  sim.Run();
  ASSERT_GE(rec.events.size(), 2u);
  EXPECT_TRUE(rec.events.front());   // Congestion asserted...
  EXPECT_FALSE(rec.events.back());   // ...and released once drained.
  EXPECT_EQ(b.packets.size(), 32u);
  EXPECT_EQ(link.dropped_overflow(&b), 0u);
  // ECN: packets entering the serializer over the threshold left marked, and
  // the receiver saw exactly the marked ones.
  size_t marked = 0;
  for (const Packet& pkt : b.packets) {
    marked += pkt.ecn ? 1u : 0u;
  }
  EXPECT_GT(marked, 0u);
  EXPECT_EQ(marked, link.ecn_marked(&b));
}

TEST(LinkFlowTest, PauseDefersInsteadOfDropping) {
  Simulation sim;
  Link::Config config;
  config.propagation_delay = Nanoseconds(500);
  config.flow.pfc = true;
  Link link(sim, config, "paced");
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  link.Connect(&a, &b);
  // The receiver pauses the sender before the burst and resumes long after:
  // every packet accepted during the pause must be deferred and delivered,
  // never counted against the drop counters.
  sim.ScheduleAt(Microseconds(1), [&link, &b] { link.PauseUpstream(&b, true); });
  for (int i = 0; i < 20; ++i) {
    sim.ScheduleAt(Microseconds(5 + i), [&link, &a] {
      link.Send(&a, MakeRawPacket(1, 2, 64));
    });
  }
  sim.ScheduleAt(Microseconds(60), [&link, &b] {
    EXPECT_TRUE(link.paused(&b));
    EXPECT_EQ(link.delivered(&b), 0u);
    link.PauseUpstream(&b, false);
  });
  sim.Run();
  EXPECT_EQ(b.packets.size(), 20u);
  EXPECT_EQ(link.delivered(&b), 20u);
  EXPECT_EQ(link.dropped_overflow(&b), 0u);
  EXPECT_EQ(link.paused_deferred(&b), 20u);
  EXPECT_EQ(link.pause_frames(&b), 1u);
  EXPECT_FALSE(link.paused(&b));
  // Nothing moved before the resume frame took effect.
  EXPECT_GE(b.arrival_times.front(), Microseconds(60));
}

// A low watermark at or above the high one would clear the congestion latch
// right after setting it (a pause/resume pair per packet): rejected up front.
TEST(LinkFlowTest, RejectsInvertedWatermarks) {
  Simulation sim;
  Link::Config config = PacedConfig();
  config.flow.pause_low_watermark = config.flow.pause_high_watermark;
  EXPECT_THROW(Link(sim, config, "inverted"), std::invalid_argument);
  config.flow.pfc = false;  // Unpaced links never read the watermarks.
  EXPECT_NO_THROW(Link(sim, config, "unpaced"));
}

TEST(LinkFlowTest, OverflowStillDropsWithoutDoubleCounting) {
  Simulation sim;
  Link::Config config;
  config.propagation_delay = Nanoseconds(500);
  config.queue_capacity_packets = 4;
  config.flow.pfc = true;
  config.flow.pause_high_watermark = 3;
  config.flow.pause_low_watermark = 1;  // Must sit below high (the ctor checks).
  Link link(sim, config, "paced");
  CollectorSink a(&sim, "a");
  CollectorSink b(&sim, "b");
  link.Connect(&a, &b);
  sim.ScheduleAt(Microseconds(1), [&link, &b] { link.PauseUpstream(&b, true); });
  for (int i = 0; i < 20; ++i) {
    sim.ScheduleAt(Microseconds(5 + i), [&link, &a] {
      link.Send(&a, MakeRawPacket(1, 2, 64));
    });
  }
  sim.ScheduleAt(Microseconds(60), [&link, &b] { link.PauseUpstream(&b, false); });
  sim.Run();
  // 4 packets fit the waiting queue, the rest overflowed — and the deferred
  // ones are disjoint from the drops: delivered + dropped == sent, exactly.
  EXPECT_EQ(link.dropped_overflow(&b), 16u);
  EXPECT_EQ(link.delivered(&b), 4u);
  EXPECT_EQ(link.paused_deferred(&b), 4u);
  EXPECT_EQ(link.delivered(&b) + link.dropped_overflow(&b), 20u);
}

// Two-switch chain with a slow last hop: congestion at the far switch must
// walk upstream hop by hop — sw2 pauses sw1's port, sw1's own egress backs
// up, sw1 pauses the client — and everything still arrives (zero drops).
TEST(SwitchFlowTest, PausePropagatesTwoHopsUpstream) {
  Simulation sim;
  CollectorSink client(&sim, "client");
  CollectorSink sink(&sim, "sink");
  L2Switch sw1(sim, "sw1");
  L2Switch sw2(sim, "sw2");

  Link::Config fast;
  fast.gigabits_per_second = 10.0;
  fast.propagation_delay = Nanoseconds(500);
  fast.flow.pfc = true;
  fast.flow.pause_high_watermark = 8;
  fast.flow.pause_low_watermark = 2;
  Link::Config slow = fast;
  slow.gigabits_per_second = 0.05;  // 1000B packet = 160us: the bottleneck.

  Link l_client(sim, fast, "client-sw1");
  l_client.Connect(&client, &sw1);
  Link l_mid(sim, fast, "sw1-sw2");
  l_mid.Connect(&sw1, &sw2);
  Link l_last(sim, slow, "sw2-sink");
  l_last.Connect(&sw2, &sink);

  sw1.AttachLink(&l_client);
  const int sw1_to_sw2 = sw1.AttachLink(&l_mid);
  sw2.AttachLink(&l_mid);
  const int sw2_to_sink = sw2.AttachLink(&l_last);
  sw1.AddRoute(2, sw1_to_sw2);
  sw2.AddRoute(2, sw2_to_sink);

  bool client_saw_pause = false;
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAt(Microseconds(i), [&l_client, &client] {
      l_client.Send(&client, MakeRawPacket(1, 2, 1000));
    });
  }
  // Mid-flood probe: the pause has reached the edge (the client's uplink
  // direction toward sw1 is held by sw1).
  sim.ScheduleAt(Microseconds(500), [&l_client, &sw1, &client_saw_pause] {
    client_saw_pause = l_client.paused(&sw1);
  });
  sim.Run();

  EXPECT_TRUE(client_saw_pause);
  EXPECT_GT(sw2.pause_frames_sent(), 0u);
  EXPECT_GT(sw1.pause_frames_sent(), 0u);
  EXPECT_EQ(sink.packets.size(), 64u);  // Slowdown, not loss.
  EXPECT_EQ(l_client.dropped_overflow(&sw1), 0u);
  EXPECT_EQ(l_mid.dropped_overflow(&sw2), 0u);
  EXPECT_EQ(l_last.dropped_overflow(&sink), 0u);
  // Everything drained, so all pauses were released.
  EXPECT_EQ(sw1.congested_ports(), 0u);
  EXPECT_EQ(sw2.congested_ports(), 0u);
  EXPECT_FALSE(l_client.paused(&sw1));
}

// A paused cross-shard link must behave exactly like the intra-shard one:
// pause/resume flips ride the mailbox path and the deferred packets arrive
// at identical ticks in both engine modes.
TEST(LinkFlowTest, CrossShardPauseMatchesIntraShard) {
  const auto drive = [](Simulation& send_shard, Simulation& recv_shard, Link* link,
                        CollectorSink* a, CollectorSink* b) {
    for (int i = 0; i < 12; ++i) {
      send_shard.ScheduleAt(Microseconds(i), [link, a] {
        link->Send(a, MakeRawPacket(1, 2, 1500));
      });
    }
    // The receiver asserts pause mid-burst and resumes later, from its own
    // shard (the flip crosses back through the mailbox).
    recv_shard.ScheduleAt(Microseconds(3), [link, b] { link->PauseUpstream(b, true); });
    recv_shard.ScheduleAt(Microseconds(80), [link, b] { link->PauseUpstream(b, false); });
  };

  std::vector<SimTime> want;
  uint64_t want_deferred = 0;
  {
    Simulation sim;
    CollectorSink a(&sim);
    CollectorSink b(&sim);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    config.flow.pfc = true;
    Link link(sim, config);
    link.Connect(&a, &b);
    drive(sim, sim, &link, &a, &b);
    sim.Run();
    want = b.arrival_times;
    want_deferred = link.paused_deferred(&b);
    ASSERT_EQ(want.size(), 12u);
    ASSERT_GT(want_deferred, 0u);
  }
  for (const auto mode : {ShardedSimulation::Mode::kSingleQueue,
                          ShardedSimulation::Mode::kParallel}) {
    ShardedSimulation::Options opt;
    opt.num_shards = 2;
    opt.num_threads = 2;
    opt.mode = mode;
    ShardedSimulation ssim(opt);
    Topology topo(ssim.shard(0));
    topo.SetSharded(&ssim, 0);
    CollectorSink a(&ssim.shard(0));
    CollectorSink b(&ssim.shard(1));
    topo.AssignShard(&b, 1);
    Link::Config config;
    config.propagation_delay = Microseconds(2);
    config.flow.pfc = true;
    Link* link = topo.Connect(&a, &b, config);
    drive(ssim.shard(0), ssim.shard(1), link, &a, &b);
    ssim.Run();
    EXPECT_EQ(b.arrival_times, want) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(link->paused_deferred(&b), want_deferred)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(link->dropped_overflow(&b), 0u);
  }
}

}  // namespace
}  // namespace incod
