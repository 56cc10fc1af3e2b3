// Dedicated suite for the conventional NIC: the legacy pass-through
// contract (forwarding, rate cap, dead-host accounting) and
// the mechanistic HostNicSpec datapath (RSS rings, interrupt moderation,
// DPDK polling, tx doorbell batching).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/device/conventional_nic.h"
#include "src/net/link.h"
#include "src/net/topology.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

class CollectorSink : public PacketSink {
 public:
  void Receive(Packet packet) override { packets.push_back(packet); }
  std::string SinkName() const override { return "collector"; }
  std::vector<Packet> packets;
};

Packet FlowPacket(NodeId src, NodeId dst, uint64_t id) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = AppProto::kRaw;
  pkt.id = id;
  return pkt;
}

// NIC wired between a network-side and a host-side collector.
struct NicHarness {
  explicit NicHarness(ConventionalNicConfig config, Link::Config link_config = {})
      : sim(), topo(sim), nic(sim, config) {
    net_link = topo.Connect(&net, &nic, link_config, "net");
    host_link = topo.Connect(&nic, &host, link_config, "host");
    nic.SetNetworkLink(net_link);
    nic.SetHostLink(host_link);
  }
  Simulation sim;
  Topology topo;
  CollectorSink net;
  CollectorSink host;
  ConventionalNic nic;
  Link* net_link;
  Link* host_link;
};

ConventionalNicConfig MechConfig() {
  ConventionalNicConfig config = MellanoxConnectX3Config(1);
  config.hostnic.enabled = true;
  config.hostnic.num_queues = 4;
  config.hostnic.ring_depth = 256;
  config.hostnic.coalesce_packets = 4;
  config.hostnic.coalesce_timer = Microseconds(50);
  config.hostnic.tx_doorbell_batch = 4;
  config.hostnic.doorbell_flush_timer = Microseconds(20);
  return config;
}

// ---- Legacy pass-through contract ----

TEST(ConventionalNicSuite, PassesThroughBothDirections) {
  NicHarness h(MellanoxConnectX3Config(1));
  h.nic.Receive(FlowPacket(100, 1, 7));   // From the network, toward the host.
  h.nic.Receive(FlowPacket(1, 100, 8));   // From the host, toward the network.
  h.sim.Run();
  ASSERT_EQ(h.host.packets.size(), 1u);
  ASSERT_EQ(h.net.packets.size(), 1u);
  EXPECT_EQ(h.host.packets[0].id, 7u);
  EXPECT_EQ(h.net.packets[0].id, 8u);
}

TEST(ConventionalNicSuite, RateCapDropsWhenBufferOverruns) {
  NicHarness h(IntelX520Config(1));
  for (uint64_t i = 0; i < 1000; ++i) {
    h.nic.Receive(FlowPacket(100, 1, i));
  }
  h.sim.Run();
  EXPECT_GT(h.nic.dropped(), 0u);
  EXPECT_EQ(h.host.packets.size(), 1000 - h.nic.dropped());
}

TEST(ConventionalNicSuite, DeadHostDropsAreCountedAtTheLink) {
  NicHarness h(MellanoxConnectX3Config(1));
  h.host.SetAlive(false);
  h.nic.Receive(FlowPacket(100, 1, 1));
  h.sim.Run();
  EXPECT_TRUE(h.host.packets.empty());
  EXPECT_EQ(h.host_link->dropped_to_dead(&h.host), 1u);
  EXPECT_EQ(h.nic.dropped(), 0u);  // The NIC itself forwarded fine.
}

TEST(ConventionalNicSuite, DeadHostDropsAreCountedWithMechanisticDatapath) {
  NicHarness h(MechConfig());
  h.host.SetAlive(false);
  h.nic.Receive(FlowPacket(100, 1, 1));
  h.sim.Run();
  EXPECT_TRUE(h.host.packets.empty());
  EXPECT_EQ(h.host_link->dropped_to_dead(&h.host), 1u);
}

// ---- Mechanistic datapath: RSS rings ----

TEST(ConventionalNicSuite, RssSteeringIsDeterministicAndSpreads) {
  NicHarness h(MechConfig());
  const Packet a = FlowPacket(100, 1, 1);
  EXPECT_EQ(h.nic.RssQueue(a), h.nic.RssQueue(a));
  // Distinct flows (ids model distinct ephemeral source ports) must land on
  // more than one ring.
  bool spread = false;
  for (uint64_t id = 2; id < 32; ++id) {
    if (h.nic.RssQueue(FlowPacket(100, 1, id)) != h.nic.RssQueue(a)) {
      spread = true;
    }
  }
  EXPECT_TRUE(spread);
}

TEST(ConventionalNicSuite, RingOverflowIsADistinctDropCounter) {
  ConventionalNicConfig config = MechConfig();
  config.hostnic.ring_depth = 4;
  config.hostnic.coalesce_packets = 1000;  // Only the timer can drain.
  config.hostnic.coalesce_timer = Milliseconds(1);
  NicHarness h(config);
  // One flow -> one ring: 20 same-tick arrivals against 4 descriptors.
  for (int i = 0; i < 20; ++i) {
    h.nic.Receive(FlowPacket(100, 1, 9));
  }
  EXPECT_EQ(h.nic.ring_drops(), 16u);
  EXPECT_EQ(h.nic.dropped(), 0u);  // Not a rate-cap drop.
  h.sim.Run();
  EXPECT_EQ(h.host.packets.size(), 4u);  // The ring's worth arrives.
  EXPECT_EQ(h.nic.interrupts_raised(), 1u);
}

// ---- Mechanistic datapath: interrupt moderation ----

TEST(ConventionalNicSuite, PacketCountTriggerPreemptsCoalescingTimer) {
  NicHarness h(MechConfig());  // coalesce_packets = 4, timer = 50 us.
  for (int i = 0; i < 4; ++i) {
    h.nic.Receive(FlowPacket(100, 1, 9));
  }
  // The count trigger fires one NIC latency (1 us) after the 4th packet —
  // well before the 50 us timer.
  bool delivered_early = false;
  h.sim.Schedule(Microseconds(10), [&] { delivered_early = h.host.packets.size() == 4; });
  h.sim.Run();
  EXPECT_TRUE(delivered_early);
  EXPECT_EQ(h.nic.interrupts_raised(), 1u);
  // Only the first packet of the batch carries the irq marker.
  ASSERT_EQ(h.host.packets.size(), 4u);
  EXPECT_TRUE(h.host.packets[0].irq);
  EXPECT_FALSE(h.host.packets[1].irq);
  EXPECT_FALSE(h.host.packets[2].irq);
  EXPECT_FALSE(h.host.packets[3].irq);
}

TEST(ConventionalNicSuite, CoalescingTimerDrainsSubBatch) {
  NicHarness h(MechConfig());
  h.nic.Receive(FlowPacket(100, 1, 9));
  h.nic.Receive(FlowPacket(100, 1, 9));
  // Below the count trigger: nothing is delivered until the 50 us timer.
  bool held_back = false;
  h.sim.Schedule(Microseconds(40), [&] { held_back = h.host.packets.empty(); });
  h.sim.Run();
  EXPECT_TRUE(held_back);
  ASSERT_EQ(h.host.packets.size(), 2u);
  EXPECT_EQ(h.nic.interrupts_raised(), 1u);
  EXPECT_TRUE(h.host.packets[0].irq);
  EXPECT_FALSE(h.host.packets[1].irq);
}

TEST(ConventionalNicSuite, DpdkHostPollsWithoutInterrupts) {
  ConventionalNicConfig config = MechConfig();
  config.hostnic.host_interrupts = false;
  NicHarness h(config);
  for (int i = 0; i < 6; ++i) {
    h.nic.Receive(FlowPacket(100, 1, 9));
  }
  // The poll drain picks the batch up after the NIC latency; no coalescing
  // wait, no interrupt accounting, no irq markers.
  bool delivered_early = false;
  h.sim.Schedule(Microseconds(10), [&] { delivered_early = h.host.packets.size() == 6; });
  h.sim.Run();
  EXPECT_TRUE(delivered_early);
  EXPECT_EQ(h.nic.interrupts_raised(), 0u);
  for (const Packet& pkt : h.host.packets) {
    EXPECT_FALSE(pkt.irq);
  }
}

// ---- Mechanistic datapath: tx doorbell batching ----

TEST(ConventionalNicSuite, TxDoorbellBatchFlushesOnCount) {
  NicHarness h(MechConfig());  // tx_doorbell_batch = 4, flush timer = 20 us.
  for (uint64_t i = 0; i < 4; ++i) {
    h.nic.Receive(FlowPacket(1, 100, i));  // src == host_node: tx path.
  }
  bool delivered_early = false;
  h.sim.Schedule(Microseconds(10), [&] { delivered_early = h.net.packets.size() == 4; });
  h.sim.Run();
  EXPECT_TRUE(delivered_early);
  EXPECT_EQ(h.nic.doorbells_rung(), 1u);
  // One doorbell DMAs the whole batch in posting order.
  ASSERT_EQ(h.net.packets.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.net.packets[i].id, i);
  }
}

TEST(ConventionalNicSuite, TxSubBatchFlushesOnTimer) {
  NicHarness h(MechConfig());
  h.nic.Receive(FlowPacket(1, 100, 1));
  bool held_back = false;
  h.sim.Schedule(Microseconds(15), [&] { held_back = h.net.packets.empty(); });
  h.sim.Run();
  EXPECT_TRUE(held_back);  // Held until the 20 us doorbell flush timer.
  EXPECT_EQ(h.net.packets.size(), 1u);
  EXPECT_EQ(h.nic.doorbells_rung(), 1u);
}

// ---- Mechanistic datapath: malformed specs are rejected, not repaired ----

TEST(ConventionalNicSuite, ZeroQueuesRejected) {
  Simulation sim;
  ConventionalNicConfig config = MechConfig();
  config.hostnic.num_queues = 0;
  EXPECT_THROW(ConventionalNic nic(sim, config), std::invalid_argument);
}

TEST(ConventionalNicSuite, ZeroRingDepthRejected) {
  Simulation sim;
  ConventionalNicConfig config = MechConfig();
  config.hostnic.ring_depth = 0;
  EXPECT_THROW(ConventionalNic nic(sim, config), std::invalid_argument);
}

TEST(ConventionalNicSuite, ZeroCoalescePacketsRejected) {
  Simulation sim;
  ConventionalNicConfig config = MechConfig();
  config.hostnic.coalesce_packets = 0;
  EXPECT_THROW(ConventionalNic nic(sim, config), std::invalid_argument);
}

TEST(ConventionalNicSuite, ZeroDoorbellBatchRejected) {
  Simulation sim;
  ConventionalNicConfig config = MechConfig();
  config.hostnic.tx_doorbell_batch = 0;
  EXPECT_THROW(ConventionalNic nic(sim, config), std::invalid_argument);
  // The pass-through NIC never reads the spec.
  config.hostnic.enabled = false;
  EXPECT_NO_THROW(ConventionalNic nic(sim, config));
}

}  // namespace
}  // namespace incod
