// Tests for the server execution model, network stacks, and power coupling.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/app/app.h"
#include "src/host/server.h"
#include "src/net/link.h"
#include "src/net/topology.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

// Echo app with a fixed CPU cost.
class EchoApp : public App {
 public:
  EchoApp(AppProto proto, SimDuration cpu_time, int threads,
          std::optional<NodeId> service = std::nullopt)
      : proto_(proto), cpu_time_(cpu_time), threads_(threads), service_(service) {}

  AppProto proto() const override { return proto_; }
  std::string AppName() const override { return "echo"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kHost;
  }
  HostPlacementProfile HostProfile() const override {
    return HostPlacementProfile{threads_, service_};
  }
  SimDuration CpuTimePerRequest(const Packet&) const override { return cpu_time_; }

  void HandlePacket(AppContext& ctx, Packet&& packet) override {
    ++executed;
    Packet reply;
    reply.dst = packet.src;
    reply.proto = proto_;
    reply.id = packet.id;
    ctx.Reply(std::move(reply));
  }

  int executed = 0;

 private:
  AppProto proto_;
  SimDuration cpu_time_;
  int threads_;
  std::optional<NodeId> service_;
};

class CountingSink : public PacketSink {
 public:
  void Receive(Packet packet) override {
    ++count;
    last = packet;
  }
  std::string SinkName() const override { return "counter"; }
  int count = 0;
  Packet last;
};

ServerConfig BasicConfig() {
  ServerConfig config;
  config.name = "test-server";
  config.node = 1;
  config.num_cores = 4;
  config.power_curve = I7SyntheticCurve();
  config.stack_rx_cost = Microseconds(1);
  config.stack_tx_cost = Nanoseconds(500);
  return config;
}

Packet RequestTo(NodeId dst, AppProto proto, uint64_t id = 1, NodeId src = 100) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = proto;
  pkt.id = id;
  return pkt;
}

struct ServerHarness {
  explicit ServerHarness(ServerConfig config = BasicConfig())
      : sim(), topo(sim), server(sim, config) {
    link = topo.Connect(&server, &sink);
    server.SetUplink(link);
  }
  Simulation sim;
  Topology topo;
  CountingSink sink;
  Server server;
  Link* link;
};

TEST(ServerTest, ProcessesRequestAndReplies) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Microseconds(2), 1);
  h.server.BindApp(&app);
  h.server.Receive(RequestTo(1, AppProto::kKv));
  h.sim.Run();
  EXPECT_EQ(app.executed, 1);
  EXPECT_EQ(h.sink.count, 1);
  EXPECT_EQ(h.server.requests_completed(), 1u);
}

TEST(ServerTest, ServiceTimeIncludesStackCosts) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Microseconds(2), 1);
  h.server.BindApp(&app);
  h.server.Receive(RequestTo(1, AppProto::kKv));
  SimTime done = -1;
  // Completion happens at rx(1us) + cpu(2us) + tx(0.5us) = 3.5 us.
  h.sim.Schedule(Microseconds(3) + Nanoseconds(499), [&] {
    EXPECT_EQ(app.executed, 0);
    done = 0;
  });
  h.sim.Run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(app.executed, 1);
}

TEST(ServerTest, DropsUnknownProtocol) {
  ServerHarness h;
  h.server.Receive(RequestTo(1, AppProto::kDns));
  h.sim.Run();
  EXPECT_EQ(h.server.requests_dropped(), 1u);
}

TEST(ServerTest, ThroughputSaturatesAtThreadCapacity) {
  // 1 thread, 4 us total service -> 250 K/s capacity. Offer 400 K/s for
  // 100 ms: only ~25 K complete.
  ServerHarness h;
  EchoApp app(AppProto::kKv, Nanoseconds(2500), 1);
  h.server.BindApp(&app);
  const int offered = 40000;  // over 100 ms
  for (int i = 0; i < offered; ++i) {
    h.sim.Schedule(i * Microseconds(100) / 40, [&h, i] {
      h.server.Receive(RequestTo(1, AppProto::kKv, static_cast<uint64_t>(i)));
    });
  }
  h.sim.RunUntil(Milliseconds(100));
  EXPECT_NEAR(static_cast<double>(h.server.requests_completed()), 25000.0, 500.0);
  EXPECT_GT(h.server.requests_dropped(), 0u);
}

TEST(ServerTest, MultipleThreadsScaleThroughput) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Nanoseconds(2500), 4);
  h.server.BindApp(&app);
  for (int i = 0; i < 80000; ++i) {
    h.sim.Schedule(i * Microseconds(100) / 80, [&h, i] {
      h.server.Receive(RequestTo(1, AppProto::kKv, static_cast<uint64_t>(i)));
    });
  }
  h.sim.RunUntil(Milliseconds(100));
  // 4 threads x 250 K/s = 1 M/s -> 80 K in 100 ms all served.
  EXPECT_NEAR(static_cast<double>(h.server.requests_completed()), 80000.0, 2000.0);
}

TEST(ServerTest, UtilizationDrivesPower) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Nanoseconds(2500), 4);
  h.server.BindApp(&app);
  const double idle = h.server.PowerWatts();
  // Saturate all 4 threads for 50 ms.
  for (int i = 0; i < 100000; ++i) {
    h.sim.Schedule(i * 500, [&h, i] {
      h.server.Receive(RequestTo(1, AppProto::kKv, static_cast<uint64_t>(i)));
    });
  }
  h.sim.RunUntil(Milliseconds(50));
  EXPECT_GT(h.server.TotalUtilization(), 3.0);
  EXPECT_GT(h.server.PowerWatts(), idle + 40.0);
}

TEST(ServerTest, IdleServerDrawsIdlePower) {
  ServerHarness h;
  h.sim.RunUntil(Milliseconds(50));
  EXPECT_DOUBLE_EQ(h.server.PowerWatts(), I7SyntheticCurve().Evaluate(0));
  EXPECT_DOUBLE_EQ(h.server.TotalUtilization(), 0.0);
}

TEST(ServerTest, DpdkStackBurnsPollCoresAtIdle) {
  ServerConfig config = BasicConfig();
  config.stack = NetStackType::kDpdk;
  config.dpdk_poll_cores = 2;
  config.power_curve = I7DpdkCurve();
  ServerHarness h(config);
  h.sim.RunUntil(Milliseconds(50));
  EXPECT_DOUBLE_EQ(h.server.TotalUtilization(), 2.0);
  EXPECT_GT(h.server.PowerWatts(), 90.0);
}

TEST(ServerTest, BackgroundLoadAddsUtilization) {
  ServerHarness h;
  h.server.SetBackgroundUtilization(3.0);
  h.sim.RunUntil(Milliseconds(10));
  EXPECT_DOUBLE_EQ(h.server.TotalUtilization(), 3.0);
}

TEST(ServerTest, BackgroundLoadObjectStartsAndStops) {
  ServerHarness h;
  BackgroundLoad load(h.sim, h.server, 2.0);
  load.StartAt(Milliseconds(10));
  load.StopAt(Milliseconds(30));
  h.sim.RunUntil(Milliseconds(20));
  EXPECT_TRUE(load.active());
  EXPECT_DOUBLE_EQ(h.server.background_utilization(), 2.0);
  h.sim.RunUntil(Milliseconds(40));
  EXPECT_FALSE(load.active());
  EXPECT_DOUBLE_EQ(h.server.background_utilization(), 0.0);
}

TEST(ServerTest, DispatchByServiceAddress) {
  ServerHarness h;
  EchoApp leader(AppProto::kPaxos, Microseconds(1), 1, NodeId{200});
  EchoApp learner(AppProto::kPaxos, Microseconds(1), 1, NodeId{300});
  h.server.BindApp(&leader);
  h.server.BindApp(&learner);
  h.server.Receive(RequestTo(200, AppProto::kPaxos, 1));
  h.server.Receive(RequestTo(300, AppProto::kPaxos, 2));
  h.server.Receive(RequestTo(300, AppProto::kPaxos, 3));
  h.sim.Run();
  EXPECT_EQ(leader.executed, 1);
  EXPECT_EQ(learner.executed, 2);
}

TEST(ServerTest, FallbackToWildcardApp) {
  ServerHarness h;
  EchoApp wildcard(AppProto::kPaxos, Microseconds(1), 1);
  EchoApp addressed(AppProto::kPaxos, Microseconds(1), 1, NodeId{200});
  h.server.BindApp(&wildcard);
  h.server.BindApp(&addressed);
  h.server.Receive(RequestTo(999, AppProto::kPaxos, 1));  // No address match.
  h.sim.Run();
  EXPECT_EQ(wildcard.executed, 1);
  EXPECT_EQ(addressed.executed, 0);
}

TEST(ServerTest, DuplicateBindRejected) {
  ServerHarness h;
  EchoApp a(AppProto::kKv, Microseconds(1), 1);
  EchoApp b(AppProto::kKv, Microseconds(1), 1);
  h.server.BindApp(&a);
  EXPECT_THROW(h.server.BindApp(&b), std::invalid_argument);
  EXPECT_THROW(h.server.BindApp(nullptr), std::invalid_argument);
}

TEST(ServerTest, AppCpuUsageRisesUnderLoad) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Nanoseconds(2500), 1);
  h.server.BindApp(&app);
  EXPECT_DOUBLE_EQ(h.server.AppCpuUsage(AppProto::kKv), 0.0);
  for (int i = 0; i < 50000; ++i) {
    h.sim.Schedule(i * 1000, [&h, i] {
      h.server.Receive(RequestTo(1, AppProto::kKv, static_cast<uint64_t>(i)));
    });
  }
  h.sim.RunUntil(Milliseconds(20));
  EXPECT_GT(h.server.AppCpuUsage(AppProto::kKv), 0.5);
}

TEST(ServerTest, TransmitWithoutUplinkThrows) {
  Simulation sim;
  Server server(sim, BasicConfig());
  Packet pkt;
  EXPECT_THROW(server.Transmit(std::move(pkt)), std::logic_error);
}

TEST(ServerTest, RaplTracksDynamicPower) {
  ServerHarness h;
  const double idle_rapl = h.server.RaplPackageWatts();
  h.server.SetBackgroundUtilization(4.0);
  h.sim.RunUntil(Milliseconds(10));
  EXPECT_GT(h.server.RaplPackageWatts(), idle_rapl + 30.0);
}

TEST(ServerTest, RejectsZeroCores) {
  Simulation sim;
  ServerConfig config = BasicConfig();
  config.num_cores = 0;
  EXPECT_THROW(Server(sim, config), std::invalid_argument);
}

// ---- Stack-dependent per-packet rx cost ----

TEST(ServerTest, DefaultStackCostsArePinned) {
  // The kernel socket path costs ~1 us per packet; a DPDK poll-mode driver
  // ~5x less. These two constants anchor the kpps capacity gap between the
  // stacks, so pin them.
  const ServerConfig config;
  EXPECT_EQ(config.stack_rx_cost, Microseconds(1));
  EXPECT_EQ(Server::kDpdkStackRxCost, Nanoseconds(200));
}

TEST(ServerTest, DpdkStackUsesLowerRxCost) {
  ServerConfig config = BasicConfig();
  config.stack = NetStackType::kDpdk;
  ServerHarness h(config);
  EchoApp app(AppProto::kKv, Microseconds(2), 1);
  h.server.BindApp(&app);
  h.server.Receive(RequestTo(1, AppProto::kKv));
  // Completion at dpdk rx(0.2us) + cpu(2us) + tx(0.5us) = 2.7 us — not the
  // kernel stack's 3.5 us.
  bool probed = false;
  h.sim.Schedule(Microseconds(2) + Nanoseconds(699), [&] {
    EXPECT_EQ(app.executed, 0);
    probed = true;
  });
  h.sim.Run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(app.executed, 1);
}

// ---- Split drop accounting ----

TEST(ServerTest, DropCountersSplitNoAppFromOverflow) {
  ServerConfig config = BasicConfig();
  config.rx_queue_capacity = 2;
  ServerHarness h(config);
  EchoApp app(AppProto::kKv, Milliseconds(1), 1);
  h.server.BindApp(&app);
  // 5 same-tick kKv arrivals against 1 slow worker with a 2-deep queue:
  // 1 in service + 2 queued + 2 overflow drops.
  for (uint64_t i = 0; i < 5; ++i) {
    h.server.Receive(RequestTo(1, AppProto::kKv, i));
  }
  // 3 packets for a protocol nobody bound.
  for (uint64_t i = 0; i < 3; ++i) {
    h.server.Receive(RequestTo(1, AppProto::kDns, i));
  }
  h.sim.Run();
  EXPECT_EQ(h.server.requests_received(), 8u);
  EXPECT_EQ(h.server.dropped_no_app(), 3u);
  EXPECT_EQ(h.server.dropped_overflow(), 2u);
  EXPECT_EQ(h.server.requests_dropped(), 5u);
  EXPECT_EQ(h.server.requests_completed(), 3u);
}

TEST(ServerTest, ReceivedEqualsCompletedPlusSplitDrops) {
  // The conservation invariant under a sustained overload mix: every packet
  // handed to Receive() is accounted for in exactly one terminal counter
  // once the run drains.
  ServerConfig config = BasicConfig();
  config.rx_queue_capacity = 8;
  ServerHarness h(config);
  EchoApp app(AppProto::kKv, Nanoseconds(2500), 2);
  h.server.BindApp(&app);
  for (int i = 0; i < 20000; ++i) {
    h.sim.Schedule(i * Microseconds(50) / 40, [&h, i] {
      // Every 7th packet targets an unbound protocol.
      const AppProto proto = i % 7 == 0 ? AppProto::kDns : AppProto::kKv;
      h.server.Receive(RequestTo(1, proto, static_cast<uint64_t>(i)));
    });
  }
  h.sim.Run();  // Drain everything queued.
  EXPECT_EQ(h.server.requests_received(), 20000u);
  EXPECT_GT(h.server.dropped_no_app(), 0u);
  EXPECT_GT(h.server.dropped_overflow(), 0u);
  EXPECT_EQ(h.server.requests_received(),
            h.server.requests_completed() + h.server.dropped_no_app() +
                h.server.dropped_overflow());
}

// ---- Worker dispatch ----

TEST(ServerTest, RssHashDispatchSerializesAFlow) {
  // 8 packets of ONE flow against 4 workers: ideal least-loaded dispatch
  // spreads them (2 per worker), RSS hashing pins them all to one worker.
  auto run_mode = [](HostDispatch dispatch, SimDuration probe_at) {
    ServerConfig config = BasicConfig();
    config.dispatch = dispatch;
    ServerHarness h(config);
    auto app = std::make_unique<EchoApp>(AppProto::kKv, Microseconds(10), 4);
    h.server.BindApp(app.get());
    for (int i = 0; i < 8; ++i) {
      h.server.Receive(RequestTo(1, AppProto::kKv, /*id=*/42));
    }
    int executed_at_probe = -1;
    h.sim.Schedule(probe_at, [&] { executed_at_probe = app->executed; });
    h.sim.Run();
    EXPECT_EQ(app->executed, 8);  // Both modes finish the work eventually.
    return executed_at_probe;
  };
  // Per-request service = 1 + 10 + 0.5 = 11.5 us. At t=25us the ideal mode
  // has finished both waves (23 us); the serialized RSS worker only two.
  const SimDuration probe = Microseconds(25);
  EXPECT_EQ(run_mode(HostDispatch::kIdealLb, probe), 8);
  EXPECT_EQ(run_mode(HostDispatch::kRssHash, probe), 2);
}

TEST(ServerTest, RssHashDispatchIsDeterministic) {
  ServerConfig config = BasicConfig();
  config.dispatch = HostDispatch::kRssHash;
  ServerHarness h(config);
  EchoApp app(AppProto::kKv, Microseconds(10), 4);
  h.server.BindApp(&app);
  // Two bursts of the same flow arrive back-to-back: with deterministic
  // steering both land on the same worker, so completions stay serialized
  // (16 x 11.5 us) rather than splitting across workers.
  for (int i = 0; i < 16; ++i) {
    h.server.Receive(RequestTo(1, AppProto::kKv, /*id=*/42));
  }
  int executed_mid = -1;
  h.sim.Schedule(Microseconds(100), [&] { executed_mid = app.executed; });
  h.sim.Run();
  EXPECT_EQ(executed_mid, 8);  // floor(100 / 11.5) on a single worker.
  EXPECT_EQ(app.executed, 16);
}

// ---- Interrupt cost accounting ----

TEST(ServerTest, InterruptCostChargedOnKernelStack) {
  ServerHarness h;
  EchoApp app(AppProto::kKv, Microseconds(2), 1);
  h.server.BindApp(&app);
  Packet pkt = RequestTo(1, AppProto::kKv);
  pkt.irq = true;  // First packet of an interrupt batch from the NIC.
  h.server.Receive(pkt);
  // Completion at rx(1us) + irq(1us) + cpu(2us) + tx(0.5us) = 4.5 us.
  bool probed = false;
  h.sim.Schedule(Microseconds(4) + Nanoseconds(499), [&] {
    EXPECT_EQ(app.executed, 0);
    probed = true;
  });
  h.sim.Run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(app.executed, 1);
  EXPECT_EQ(h.server.interrupts_serviced(), 1u);
}

TEST(ServerTest, DpdkStackIgnoresIrqMarker) {
  ServerConfig config = BasicConfig();
  config.stack = NetStackType::kDpdk;
  ServerHarness h(config);
  EchoApp app(AppProto::kKv, Microseconds(2), 1);
  h.server.BindApp(&app);
  Packet pkt = RequestTo(1, AppProto::kKv);
  pkt.irq = true;  // A polling stack takes no interrupt.
  h.server.Receive(pkt);
  // Still completes at the DPDK 2.7 us — no interrupt surcharge.
  bool probed = false;
  h.sim.Schedule(Microseconds(2) + Nanoseconds(701), [&] {
    EXPECT_EQ(app.executed, 1);
    probed = true;
  });
  h.sim.Run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(h.server.interrupts_serviced(), 0u);
}

// A low watermark at or above the high one would clear the ingress-pause
// latch right after setting it (a pause/resume pair per packet): rejected
// at construction.
TEST(ServerTest, RejectsInvertedPauseWatermarks) {
  Simulation sim;
  ServerConfig config = BasicConfig();
  config.flow.pfc = true;
  config.flow.pause_low_watermark = config.flow.pause_high_watermark + 1;
  EXPECT_THROW(Server(sim, config), std::invalid_argument);
  config.flow.pfc = false;  // Without PFC the watermarks are never read.
  EXPECT_NO_THROW(Server(sim, config));
}

}  // namespace
}  // namespace incod
