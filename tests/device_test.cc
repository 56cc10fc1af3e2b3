// Tests for the offload-NIC datapath (FPGA NIC and SmartNIC), the FPGA
// NIC ledger, switch ASIC, conventional NICs and SmartNIC data.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/app/app.h"
#include "src/device/conventional_nic.h"
#include "src/device/fpga_nic.h"
#include "src/device/offload_nic.h"
#include "src/device/smartnic.h"
#include "src/device/switch_asic.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/lake.h"
#include "src/net/topology.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

class CollectorSink : public PacketSink {
 public:
  void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
  std::string SinkName() const override { return "collector"; }
  std::vector<Packet> packets;
};

// Minimal offload app that consumes matching packets and echoes to network.
// Runs on either offload board: the FPGA pipeline below, or a SmartNIC
// engine at the board's full peak.
class EchoApp : public App {
 public:
  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "echo-hw"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kFpgaNic || placement == PlacementKind::kSmartNic;
  }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.pipeline.workers = 2;
    profile.pipeline.worker_service = Nanoseconds(500);
    profile.pipeline.pipeline_latency = Microseconds(1);
    profile.pipeline.input_queue_capacity = 8;
    profile.power_modules = {MakeModuleSpec("logic", 2.0, 0.6, 1.0),
                             MakeModuleSpec("dram_if", 4.8, 1.0, 0.6)};
    profile.dynamic_watts_at_capacity = 1.0;
    return profile;
  }
  void HandlePacket(AppContext& ctx, Packet&& packet) override {
    ++processed;
    Packet reply;
    reply.src = ctx.self_node();
    reply.dst = packet.src;
    reply.proto = AppProto::kKv;
    ctx.Reply(std::move(reply));
  }
  void OnMemoryReset() override { ++resets; }
  int processed = 0;
  int resets = 0;
};

using BoardFactory = std::unique_ptr<OffloadNic> (*)(Simulation&);

FpgaNicConfig FpgaConfig(bool standalone) {
  FpgaNicConfig config;
  config.host_node = 1;
  config.device_node = 50;
  config.standalone = standalone;
  return config;
}
std::unique_ptr<OffloadNic> MakeFpgaBoard(Simulation& sim) {
  return std::make_unique<FpgaNic>(sim, FpgaConfig(/*standalone=*/false));
}
std::unique_ptr<OffloadNic> MakeStandaloneFpgaBoard(Simulation& sim) {
  return std::make_unique<FpgaNic>(sim, FpgaConfig(/*standalone=*/true));
}
std::unique_ptr<OffloadNic> MakeSmartNicBoard(Simulation& sim) {
  SmartNicDeviceConfig config;
  config.host_node = 1;
  config.device_node = 50;
  return std::make_unique<SmartNic>(sim, SmartNicPresetByName("accelnet-fpga"), config);
}

// An offload board running EchoApp between a network-side and (optionally)
// a host-side collector.
struct BoardHarness {
  explicit BoardHarness(BoardFactory make, bool with_host = true)
      : topo(sim), board(make(sim)) {
    board->InstallApp(&app);
    net_link = topo.Connect(&net_side, board.get());
    board->SetNetworkLink(net_link);
    if (with_host) {
      host_link = topo.Connect(board.get(), &host_side);
      board->SetHostLink(host_link);
    }
  }
  Packet KvPacket(NodeId src, NodeId dst) {
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.proto = AppProto::kKv;
    return pkt;
  }
  Simulation sim;
  Topology topo;
  CollectorSink net_side;
  CollectorSink host_side;
  EchoApp app;
  std::unique_ptr<OffloadNic> board;
  Link* net_link;
  Link* host_link = nullptr;
};

// ---- The OffloadNic datapath, on both boards ----

struct BoardCase {
  const char* name;
  BoardFactory make;
  // Claimed packets one simultaneous burst gets admitted: engine workers x
  // (queue bound + 1). FPGA: EchoApp's 2 PEs, queue 8; SmartNIC: one worker.
  int admitted_burst;
};

class OffloadNicDatapathTest : public ::testing::TestWithParam<BoardCase> {
 protected:
  BoardHarness h{GetParam().make};
};

TEST_P(OffloadNicDatapathTest, InactivePassesThroughToHost) {
  h.board->SetAppActive(false);
  h.board->Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.host_side.packets.size(), 1u);
  EXPECT_EQ(h.app.processed, 0);
  EXPECT_EQ(h.board->delivered_to_host(), 1u);
  EXPECT_EQ(h.board->processed_in_hardware(), 0u);
}

TEST_P(OffloadNicDatapathTest, ActiveProcessesMatchingTraffic) {
  h.board->SetAppActive(true);
  h.board->Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.app.processed, 1);
  ASSERT_EQ(h.net_side.packets.size(), 1u);
  EXPECT_EQ(h.net_side.packets[0].src, 50u);  // Replies carry the board address.
  EXPECT_TRUE(h.host_side.packets.empty());
  EXPECT_EQ(h.board->processed_in_hardware(), 1u);
}

TEST_P(OffloadNicDatapathTest, NonMatchingTrafficGoesToHostEvenWhenActive) {
  h.board->SetAppActive(true);
  Packet raw = h.KvPacket(100, 1);
  raw.proto = AppProto::kRaw;
  h.board->Receive(raw);
  h.sim.Run();
  EXPECT_EQ(h.host_side.packets.size(), 1u);
  EXPECT_EQ(h.app.processed, 0);
  EXPECT_EQ(h.board->app_ingress_packets(), 0u);  // Never claimed.
}

TEST_P(OffloadNicDatapathTest, HostEgressForwardsToNetwork) {
  h.board->Receive(h.KvPacket(1, 100));  // src == host node.
  h.sim.Run();
  EXPECT_EQ(h.net_side.packets.size(), 1u);
}

TEST_P(OffloadNicDatapathTest, AppIngressCountedEvenWhenInactive) {
  h.board->SetAppActive(false);
  h.board->Receive(h.KvPacket(100, 1));
  h.board->Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.board->app_ingress_packets(), 2u);
}

TEST_P(OffloadNicDatapathTest, OverflowDropsAtTheQueueBound) {
  h.board->SetAppActive(true);
  const int burst = 2 * GetParam().admitted_burst;
  for (int i = 0; i < burst; ++i) {
    h.board->Receive(h.KvPacket(100, 1));
  }
  h.sim.Run();
  EXPECT_EQ(h.app.processed, GetParam().admitted_burst);
  EXPECT_EQ(h.board->processed_in_hardware(),
            static_cast<uint64_t>(GetParam().admitted_burst));
  EXPECT_EQ(h.board->dropped(), static_cast<uint64_t>(burst - GetParam().admitted_burst));
}

TEST_P(OffloadNicDatapathTest, ReprogrammingHaltsTrafficBothWays) {
  ASSERT_TRUE(h.board->Traits().supports_reprogramming);
  h.board->SetAppActive(true);
  h.board->SetReprogramming(true);
  h.board->Receive(h.KvPacket(100, 1));  // Network ingress.
  h.board->Receive(h.KvPacket(1, 100));  // Host egress.
  h.sim.Run();
  EXPECT_TRUE(h.host_side.packets.empty());
  EXPECT_TRUE(h.net_side.packets.empty());
  EXPECT_EQ(h.board->dropped(), 2u);
  h.board->SetReprogramming(false);
  h.board->Receive(h.KvPacket(100, 1));
  h.sim.Run();
  EXPECT_EQ(h.app.processed, 1);
}

TEST_P(OffloadNicDatapathTest, MemoryResetNotifiesApp) {
  h.board->SetMemoryReset(true);
  h.board->SetMemoryReset(true);  // Idempotent: only the edge notifies.
  EXPECT_EQ(h.app.resets, 1);
  h.board->SetMemoryReset(false);
  h.board->SetMemoryReset(true);
  EXPECT_EQ(h.app.resets, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Boards, OffloadNicDatapathTest,
    ::testing::Values(BoardCase{"FpgaNic", MakeFpgaBoard, 2 * (8 + 1)},
                      BoardCase{"SmartNic", MakeSmartNicBoard,
                                static_cast<int>(SmartNic::kEngineQueueCapacity) + 1}),
    [](const ::testing::TestParamInfo<BoardCase>& info) {
      return std::string(info.param.name);
    });

// ---- FPGA NIC: the ledger, standalone PSU and one-app install ----

struct FpgaHarness : BoardHarness {
  explicit FpgaHarness(bool standalone = false, bool with_host = true)
      : BoardHarness(standalone ? MakeStandaloneFpgaBoard : MakeFpgaBoard, with_host),
        fpga(static_cast<FpgaNic&>(*board)) {}
  FpgaNic& fpga;
};

TEST(FpgaNicTest, ReferenceNicPowerIsShellPlusPcie) {
  Simulation sim;
  FpgaNicConfig config;
  FpgaNic bare(sim, config);  // No app installed: the reference NIC.
  EXPECT_DOUBLE_EQ(bare.PowerWatts(), kFpgaShellWatts + kFpgaPcieWatts);
}

TEST(FpgaNicTest, PowerStatesFollowGatingControls) {
  FpgaHarness h;
  const double idle = h.fpga.PowerWatts();  // 11 + 2 + 4.8 = 17.8.
  EXPECT_NEAR(idle, 17.8, 1e-9);
  h.fpga.SetClockGating(true);  // logic 2.0 -> 1.2.
  EXPECT_NEAR(h.fpga.PowerWatts(), 17.0, 1e-9);
  h.fpga.SetMemoryReset(true);  // dram 4.8 -> 2.88.
  EXPECT_NEAR(h.fpga.PowerWatts(), 15.08, 1e-9);
  // Activating restores everything to active draw.
  h.fpga.SetAppActive(true);
  EXPECT_NEAR(h.fpga.PowerWatts(), 17.8, 1e-9);
}

TEST(FpgaNicTest, PowerGatedModuleStaysOff) {
  FpgaHarness h;
  h.fpga.PowerGateModule("dram_if");
  EXPECT_NEAR(h.fpga.PowerWatts(), 13.0, 1e-9);
  h.fpga.SetAppActive(true);  // Gated module must not wake.
  EXPECT_NEAR(h.fpga.PowerWatts(), 13.0, 1e-9);
}

TEST(FpgaNicTest, StandalonePowerIncludesPsuOverhead) {
  FpgaHarness inserver(/*standalone=*/false, /*with_host=*/false);
  FpgaHarness standalone(/*standalone=*/true, /*with_host=*/false);
  EXPECT_GT(standalone.fpga.PowerWatts(), inserver.fpga.PowerWatts() + 2.0);
}

TEST(FpgaNicTest, StandaloneDropsHostTraffic) {
  FpgaHarness h(/*standalone=*/true, /*with_host=*/false);
  h.fpga.SetAppActive(true);
  Packet raw = h.KvPacket(100, 1);
  raw.proto = AppProto::kRaw;
  h.fpga.Receive(raw);
  h.sim.Run();
  EXPECT_EQ(h.fpga.dropped(), 1u);
}

TEST(FpgaNicTest, SecondAppInstallRejected) {
  Simulation sim;
  FpgaNic fpga(sim, FpgaNicConfig{});
  EchoApp a;
  EchoApp b;
  fpga.InstallApp(&a);
  EXPECT_THROW(fpga.InstallApp(&b), std::logic_error);
  EXPECT_THROW(FpgaNic(sim, FpgaNicConfig{}).SetAppActive(true), std::logic_error);
}

// ---- Dead-engine power: the two boards differ ----

// Serves a few claimed packets so the utilization term is non-zero, then
// kills the engine with the app still active.
void ServeThenKill(BoardHarness& h) {
  h.board->SetAppActive(true);
  for (int i = 0; i < 4; ++i) {
    h.board->Receive(h.KvPacket(100, 1));
  }
  h.sim.RunUntil(Microseconds(50));
  ASSERT_EQ(h.app.processed, 4);
  ASSERT_GT(h.board->Utilization(), 0.0);
  h.board->KillEngine();
}

TEST(DeadEnginePowerTest, FpgaNicKeepsModuleDrawUntilParked) {
  FpgaHarness h;
  const double ledger = 17.8;  // Shell 11 + PCIe 2 + logic 2 + dram_if 4.8.
  ServeThenKill(h);
  // Only the utilization term stops; the modules keep their active draw.
  EXPECT_GT(h.board->Utilization(), 0.0);
  EXPECT_NEAR(h.fpga.PowerWatts(), ledger, 1e-9);
  // Recovery parks the board: deactivate, clock-gate, reset memory.
  h.fpga.SetAppActive(false);
  h.fpga.SetClockGating(true);
  h.fpga.SetMemoryReset(true);
  EXPECT_NEAR(h.fpga.PowerWatts(), 15.08, 1e-9);
}

TEST(DeadEnginePowerTest, SmartNicDropsToBaseDatapathAtOnce) {
  BoardHarness h(MakeSmartNicBoard);
  ServeThenKill(h);
  // Still active, utilization still in the window, yet the engine is gone:
  // accelnet-fpga's 17 W idle minus the engine's 30 % share.
  EXPECT_TRUE(h.board->app_active());
  EXPECT_GT(h.board->Utilization(), 0.0);
  EXPECT_NEAR(h.board->PowerWatts(), 17.0 * (1.0 - SmartNic::kEngineIdleFraction), 1e-9);
}

// ---- Switch ASIC ----

TEST(SwitchAsicTest, IdlePowerIsSameWithAndWithoutPrograms) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  const double idle = sw.PowerWatts();
  DiagProgram diag;
  sw.LoadProgram(&diag);
  EXPECT_DOUBLE_EQ(sw.PowerWatts(), idle);  // §6: identical at idle.
}

TEST(SwitchAsicTest, NormalizedIdleFraction) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  EXPECT_NEAR(sw.NormalizedPower(), SwitchAsic::kIdlePowerFraction, 1e-9);
}

TEST(SwitchAsicTest, LineRatePpsMatchesConfig) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  // 32 x 40G = 1.28 Tbps at 64 B -> 2.5 Gpps (§6).
  EXPECT_NEAR(sw.LineRatePps(), 2.5e9, 1e7);
}

TEST(SwitchAsicTest, MinMaxSpreadUnder20Percent) {
  // At full utilization (without programs) power is Pmax; idle 0.84 Pmax.
  EXPECT_GT(SwitchAsic::kIdlePowerFraction, 0.8);
}

TEST(SwitchAsicTest, ProgramOverheadScalesWithLoad) {
  Simulation sim;
  Topology topo(sim);
  SwitchAsicConfig config;
  config.rate_window = Milliseconds(1);
  SwitchAsic sw(sim, config);
  CollectorSink host;
  topo.ConnectToSwitch(&sw, &host, 1);
  DiagProgram diag;
  sw.LoadProgram(&diag);
  // Push some traffic through to raise the observed rate.
  for (int i = 0; i < 1000; ++i) {
    Packet pkt;
    pkt.src = 9;
    pkt.dst = 1;
    sw.Receive(pkt);
  }
  const double with_diag = sw.PowerWatts();
  const double forwarding_only = sw.ForwardingOnlyWatts();
  EXPECT_GT(with_diag, forwarding_only);
  // At utilization u the diag overhead is 4.8 % of base at most.
  EXPECT_LE(with_diag / forwarding_only, 1.048 + 1e-9);
}

TEST(SwitchAsicTest, UnloadProgramRestoresPower) {
  Simulation sim;
  SwitchAsic sw(sim, SwitchAsicConfig{});
  DiagProgram diag;
  sw.LoadProgram(&diag);
  EXPECT_EQ(sw.LoadedPrograms().size(), 1u);
  sw.UnloadProgram("diag.p4");
  EXPECT_TRUE(sw.LoadedPrograms().empty());
  EXPECT_THROW(sw.LoadProgram(nullptr), std::invalid_argument);
}

// ---- Conventional NIC ----

TEST(ConventionalNicTest, PassesThroughBothDirections) {
  Simulation sim;
  Topology topo(sim);
  ConventionalNic nic(sim, MellanoxConnectX3Config(1));
  CollectorSink net;
  CollectorSink host;
  Link* net_link = topo.Connect(&net, &nic);
  Link* host_link = topo.Connect(&nic, &host);
  nic.SetNetworkLink(net_link);
  nic.SetHostLink(host_link);
  Packet in;
  in.src = 100;
  in.dst = 1;
  nic.Receive(in);
  Packet out;
  out.src = 1;
  out.dst = 100;
  nic.Receive(out);
  sim.Run();
  EXPECT_EQ(host.packets.size(), 1u);
  EXPECT_EQ(net.packets.size(), 1u);
}

TEST(ConventionalNicTest, IntelNicCapsPacketRate) {
  Simulation sim;
  Topology topo(sim);
  ConventionalNic nic(sim, IntelX520Config(1));
  CollectorSink host;
  Link* host_link = topo.Connect(&nic, &host);
  nic.SetHostLink(host_link);
  // Blast 10000 packets instantaneously; the 600 Kpps cap + 128-slot buffer
  // forces drops.
  for (int i = 0; i < 10000; ++i) {
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    nic.Receive(pkt);
  }
  sim.Run();
  EXPECT_GT(nic.dropped(), 0u);
  EXPECT_LT(host.packets.size(), 10000u);
}

TEST(ConventionalNicTest, PresetsDiffer) {
  const auto mellanox = MellanoxConnectX3Config(1);
  const auto intel = IntelX520Config(1);
  EXPECT_GT(mellanox.watts, intel.watts);  // §4.2: Intel more efficient...
  EXPECT_EQ(mellanox.max_pps, 0);          // ...but Mellanox sustains more.
  EXPECT_GT(intel.max_pps, 0);
}

// ---- Host-to-network pause relay (every host-facing NIC) ----

template <typename Nic>
std::unique_ptr<Nic> MakeRelayNic(Simulation& sim);
template <>
std::unique_ptr<ConventionalNic> MakeRelayNic(Simulation& sim) {
  return std::make_unique<ConventionalNic>(sim, MellanoxConnectX3Config(1));
}
template <>
std::unique_ptr<FpgaNic> MakeRelayNic(Simulation& sim) {
  return std::make_unique<FpgaNic>(sim, FpgaNicConfig{});
}
template <>
std::unique_ptr<SmartNic> MakeRelayNic(Simulation& sim) {
  return std::make_unique<SmartNic>(sim, StandardSmartNicPresets().front(),
                                    SmartNicDeviceConfig{});
}

template <typename Nic>
class PauseRelayTest : public ::testing::Test {};
using RelayNics = ::testing::Types<ConventionalNic, FpgaNic, SmartNic>;
TYPED_TEST_SUITE(PauseRelayTest, RelayNics);

// The PCIe link toward the host backs up past its high watermark: the NIC
// pauses its network-side upstream (one propagation per assert) and
// releases it when the backlog drains to the low watermark.
TYPED_TEST(PauseRelayTest, HostCongestionPausesTheNetworkLink) {
  Simulation sim;
  Topology topo(sim);
  CollectorSink net;
  CollectorSink host;
  std::unique_ptr<TypeParam> nic = MakeRelayNic<TypeParam>(sim);
  Link::Config pfc;
  pfc.flow.pfc = true;
  pfc.flow.pause_high_watermark = 8;
  pfc.flow.pause_low_watermark = 2;
  Link* net_link = topo.Connect(&net, nic.get(), pfc, "net");
  Link::Config slow_pcie = pfc;
  slow_pcie.gigabits_per_second = 0.1;  // 1000B = 80 us: the host lags.
  Link* host_link = topo.Connect(nic.get(), &host, slow_pcie, "pcie");
  nic->SetNetworkLink(net_link);
  nic->SetHostLink(host_link);
  for (int i = 0; i < 16; ++i) {
    Packet pkt;
    pkt.size_bytes = 1000;
    host_link->Send(nic.get(), pkt);
  }
  sim.RunUntil(Microseconds(100));
  EXPECT_EQ(nic->pause_propagations(), 1u);
  EXPECT_TRUE(net_link->paused(nic.get()));
  sim.Run();
  EXPECT_EQ(host.packets.size(), 16u);
  EXPECT_FALSE(net_link->paused(nic.get()));
  EXPECT_EQ(nic->pause_propagations(), 1u);  // The resume is not counted.
  // A second assert is a second propagation.
  nic->OnLinkCongestion(host_link, true);
  sim.Run();
  EXPECT_EQ(nic->pause_propagations(), 2u);
  EXPECT_TRUE(net_link->paused(nic.get()));
}

TYPED_TEST(PauseRelayTest, NetworkSideCongestionIsIgnored) {
  Simulation sim;
  Topology topo(sim);
  CollectorSink net;
  CollectorSink host;
  std::unique_ptr<TypeParam> nic = MakeRelayNic<TypeParam>(sim);
  Link::Config pfc;
  pfc.flow.pfc = true;
  Link* net_link = topo.Connect(&net, nic.get(), pfc, "net");
  Link* host_link = topo.Connect(nic.get(), &host, pfc, "pcie");
  nic->SetNetworkLink(net_link);
  nic->SetHostLink(host_link);
  nic->OnLinkCongestion(net_link, true);
  sim.Run();
  EXPECT_EQ(nic->pause_propagations(), 0u);
  EXPECT_FALSE(net_link->paused(nic.get()));
  EXPECT_FALSE(host_link->paused(nic.get()));
}

// ---- SmartNIC presets ----

TEST(SmartNicTest, PresetsCoverAllArchitectures) {
  const auto presets = StandardSmartNicPresets();
  ASSERT_EQ(presets.size(), 4u);
  bool fpga = false;
  bool soc = false;
  for (const auto& p : presets) {
    EXPECT_LE(p.max_watts, 25.0);  // §10: PCIe slot budget.
    EXPECT_GT(OpsPerWattAtPeak(p), 1e6);  // "millions of operations per Watt".
    if (p.arch == SmartNicArch::kFpga) {
      fpga = true;
      // AccelNet: 17-19 W, ~4 Mpps/W.
      EXPECT_NEAR(OpsPerWattAtPeak(p) / 1e6, 4.0, 0.5);
    }
    if (p.arch == SmartNicArch::kSoc) {
      soc = true;
      EXPECT_FALSE(p.scalable_resources);  // The §10 "resource wall".
    }
  }
  EXPECT_TRUE(fpga);
  EXPECT_TRUE(soc);
  EXPECT_STREQ(SmartNicArchName(SmartNicArch::kAsicPlusFpga), "asic+fpga");
}

// Pin the preset efficiency figures. OpsPerWattAtPeak is what the placement
// advisor ranks §10 boards by, and the AccelNet anchor is the paper's one
// hard number ("close to 4 Mpps/W"): preset edits must not drift silently.
TEST(SmartNicTest, OpsPerWattPinnedAgainstPaperFigures) {
  for (const auto& p : StandardSmartNicPresets()) {
    EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(p), p.peak_mpps * 1e6 / p.max_watts) << p.name;
  }
  const SmartNicPreset accelnet = SmartNicPresetByName("accelnet-fpga");
  // 72 Mpps on a 19 W board: 3.789... Mpps/W, the §10 "close to 4 Mpps/W".
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(accelnet), 72.0e6 / 19.0);
  EXPECT_NEAR(OpsPerWattAtPeak(accelnet) / 1e6, 4.0, 0.25);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("agilio-asic")),
                   120.0e6 / 25.0);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("innova-asic+fpga")),
                   90.0e6 / 25.0);
  EXPECT_DOUBLE_EQ(OpsPerWattAtPeak(SmartNicPresetByName("bluefield-soc")),
                   30.0e6 / 25.0);
  EXPECT_THROW(SmartNicPresetByName("no-such-board"), std::invalid_argument);
}

// ---- SmartNIC as an application substrate (§10 placement) ----

// KV app that counts activations; runs at the board's full peak and
// occupies `slots` engine slots (one by default).
struct CountingApp : App {
  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "counting"; }
  bool SupportsPlacement(PlacementKind p) const override {
    return p == PlacementKind::kSmartNic;
  }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.smartnic.resource_slots = slots;
    return profile;
  }
  void HandlePacket(AppContext&, Packet&&) override {}
  void OnActivate() override { ++activations; }
  int slots = 1;
  int activations = 0;
};

struct SmartNicAppHarness {
  explicit SmartNicAppHarness(const std::string& preset_name = "accelnet-fpga")
      : nic(sim, SmartNicPresetByName(preset_name), Config()),
        net_link(sim, Link::Config{}),
        host_link(sim, Link::Config{}) {
    net_link.Connect(&nic, &network);
    host_link.Connect(&nic, &host);
    nic.SetNetworkLink(&net_link);
    nic.SetHostLink(&host_link);
  }

  static SmartNicDeviceConfig Config() {
    SmartNicDeviceConfig config;
    config.host_node = 1;
    config.device_node = 50;
    return config;
  }

  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "collector"; }
    std::vector<Packet> packets;
  };

  Packet Get(uint64_t key) {
    return MakeKvRequestPacket(/*src=*/100, /*dst=*/1, KvRequest{KvOp::kGet, key, 0},
                               /*id=*/key, sim.Now());
  }

  Simulation sim;
  Collector network;
  Collector host;
  SmartNic nic;
  Link net_link;
  Link host_link;
};

TEST(SmartNicHostingTest, HostedAppServesHitsAndPuntsMisses) {
  SmartNicAppHarness h;
  LakeConfig lake_config;
  lake_config.l1_entries = 64;
  LakeCache lake(lake_config);
  h.nic.InstallApp(&lake);
  lake.WarmFill(0, 10, 64);
  h.nic.SetAppActive(true);

  h.nic.Receive(h.Get(3));    // Hit: answered by the engine.
  h.nic.Receive(h.Get(999));  // Miss: punted to the host.
  h.sim.RunUntil(Milliseconds(1));

  ASSERT_EQ(h.network.packets.size(), 1u);
  const KvResponse& resp = PayloadAs<KvResponse>(h.network.packets[0]);
  EXPECT_TRUE(resp.hit);
  EXPECT_EQ(resp.key, 3u);
  EXPECT_EQ(h.network.packets[0].src, 50u);  // Replies carry the board address.
  ASSERT_EQ(h.host.packets.size(), 1u);
  EXPECT_EQ(PayloadAs<KvRequest>(h.host.packets[0]).key, 999u);
  EXPECT_EQ(h.nic.processed_in_hardware(), 2u);
  EXPECT_EQ(h.nic.app_ingress_packets(), 2u);
}

TEST(SmartNicHostingTest, InactiveEnginePassesClaimedTrafficToHost) {
  SmartNicAppHarness h;
  LakeCache lake;
  h.nic.InstallApp(&lake);
  h.nic.Receive(h.Get(1));
  h.sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(h.network.packets.size(), 0u);
  ASSERT_EQ(h.host.packets.size(), 1u);
  // Classifier-visible even while parked: the §9.1 controller signal.
  EXPECT_EQ(h.nic.app_ingress_packets(), 1u);
  EXPECT_EQ(h.nic.processed_in_hardware(), 0u);
}

TEST(SmartNicHostingTest, PerArchProfileScalesTheEngineCeiling) {
  // LaKe's own SmartNIC profile: full speed in an FPGA region, 0.75 of an
  // ASIC engine's peak.
  SmartNicAppHarness fpga_board("accelnet-fpga");
  LakeCache on_fpga;
  fpga_board.nic.InstallApp(&on_fpga);
  EXPECT_DOUBLE_EQ(fpga_board.nic.OffloadCapacityPps(), 72e6);

  SmartNicAppHarness asic_board("agilio-asic");
  LakeCache on_asic;
  asic_board.nic.InstallApp(&on_asic);
  EXPECT_DOUBLE_EQ(asic_board.nic.OffloadCapacityPps(), 0.75 * 120e6);
}

TEST(SmartNicHostingTest, SocResourceWallCapsConcurrentApps) {
  // BlueField-class SoC: 2 engine slots. A two-slot KVS firmware fills the
  // board; the next app hits the §10 resource wall loudly.
  SmartNicAppHarness soc("bluefield-soc");
  EXPECT_EQ(soc.nic.AppSlotCapacity(), 2);
  LakeCache kvs;
  ASSERT_EQ(kvs.OffloadProfile().smartnic.resource_slots, 2);
  soc.nic.InstallApp(&kvs);
  EXPECT_EQ(soc.nic.app_slots_used(), 2);
  CountingApp second;
  EXPECT_THROW(soc.nic.InstallApp(&second), std::invalid_argument);

  // A scalable board fits both firmwares side by side.
  SmartNicAppHarness fpga_board("accelnet-fpga");
  LakeCache kvs2;
  CountingApp extra;
  fpga_board.nic.InstallApp(&kvs2);
  fpga_board.nic.InstallApp(&extra);
  EXPECT_EQ(fpga_board.nic.app_count(), 2u);
  // Firmware claiming no slot at all would slip past the wall: refused.
  CountingApp slotless;
  slotless.slots = 0;
  EXPECT_THROW(fpga_board.nic.InstallApp(&slotless), std::invalid_argument);
  EXPECT_EQ(fpga_board.nic.app_count(), 2u);
}

TEST(SmartNicHostingTest, LateInstallOntoLiveEngineActivatesTheApp) {
  // An app installed after SetAppActive(true) must receive the same
  // activation its already-installed peers got with the transition.
  SmartNicAppHarness h;
  CountingApp early;
  h.nic.InstallApp(&early);
  h.nic.SetAppActive(true);
  CountingApp late;
  h.nic.InstallApp(&late);
  EXPECT_EQ(early.activations, 1);
  EXPECT_EQ(late.activations, 1);
}

TEST(SmartNicHostingTest, ReprogramParkWipesOnBoardState) {
  SmartNicAppHarness h("accelnet-fpga");  // Reprogrammable arch.
  LakeCache lake;
  h.nic.InstallApp(&lake);
  lake.WarmFill(0, 16, 64);
  ASSERT_GT(lake.l1().size(), 0u);
  h.nic.SetAppActive(false);
  h.nic.PowerGateParkedApp();  // Bitstream removed: on-board state is lost.
  EXPECT_EQ(lake.l1().size(), 0u);
  EXPECT_EQ(lake.l2()->size(), 0u);
}

TEST(SmartNicHostingTest, GatedParkMemoryResetWipesOnBoardState) {
  // The kGatedPark park policy holds memories in reset while the host
  // serves; entering reset must lose hosted state (the §9.2 re-warm) so a
  // later cold shift really starts cold.
  SmartNicAppHarness h;
  EXPECT_TRUE(h.nic.Traits().supports_memory_reset);
  LakeCache lake;
  h.nic.InstallApp(&lake);
  lake.WarmFill(0, 16, 64);
  h.nic.SetAppActive(false);
  h.nic.SetMemoryReset(true);
  EXPECT_TRUE(h.nic.memory_reset());
  EXPECT_EQ(lake.l1().size(), 0u);
  EXPECT_EQ(lake.l2()->size(), 0u);
  // Re-entering reset without leaving it does not re-fire the wipe hook.
  lake.WarmFill(0, 4, 64);
  h.nic.SetMemoryReset(true);
  EXPECT_EQ(lake.l1().size(), 4u);
  h.nic.SetMemoryReset(false);
  h.nic.SetMemoryReset(true);
  EXPECT_EQ(lake.l1().size(), 0u);
}

}  // namespace
}  // namespace incod
