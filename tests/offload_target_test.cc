// Tests for the OffloadTarget abstraction: the behavioral SmartNIC, the
// switch-ASIC adapter, and the §9.1 controllers running unmodified against
// non-FPGA targets.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/device/fpga_nic.h"
#include "src/device/offload_target.h"
#include "src/device/smartnic.h"
#include "src/device/switch_offload.h"
#include "src/dns/dns_message.h"
#include "src/dns/switch_dns.h"
#include "src/dns/zone.h"
#include "src/kvs/lake.h"
#include "src/net/topology.h"
#include "src/ondemand/controller.h"
#include "src/ondemand/energy_advisor.h"
#include "src/ondemand/migrator.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

struct Collector : PacketSink {
  void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
  std::string SinkName() const override { return "collector"; }
  std::vector<Packet> packets;
};

// ---- Behavioral SmartNIC ----
// (Its datapath runs in device_test's OffloadNicDatapathTest, on both boards.)

SmartNicPreset AccelNetPreset() { return StandardSmartNicPresets()[0]; }

// Minimal SmartNIC firmware: claims KV traffic and echoes each request back
// to its sender.
class EchoFirmware : public App {
 public:
  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "echo-fw"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kSmartNic;
  }
  void HandlePacket(AppContext& ctx, Packet&& packet) override {
    Packet reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.proto = packet.proto;
    ctx.Reply(std::move(reply));
  }
};

struct SmartNicHarness {
  SmartNicHarness() : sim(1), nic(sim, AccelNetPreset(), Config()) {
    nic.InstallApp(&firmware);
  }
  static SmartNicDeviceConfig Config() {
    SmartNicDeviceConfig config;
    config.host_node = 1;
    return config;
  }
  Simulation sim;
  EchoFirmware firmware;
  SmartNic nic;
};

TEST(SmartNicTest, ParkDepthOrdersPower) {
  // Deeper parking saves more: power gated < clock gated < warm < active.
  SmartNicHarness h;
  h.nic.SetAppActive(false);
  const double warm = h.nic.PowerWatts();
  h.nic.SetClockGating(true);
  const double gated = h.nic.PowerWatts();
  h.nic.PowerGateParkedApp();
  const double off = h.nic.PowerWatts();
  EXPECT_LT(off, gated);
  EXPECT_LT(gated, warm);
  h.nic.SetAppActive(true);  // Waking restores the engine.
  EXPECT_GE(h.nic.PowerWatts(), warm);
}

TEST(SmartNicTest, TraitsFollowArchitecture) {
  Simulation sim(1);
  const auto presets = StandardSmartNicPresets();
  for (const auto& preset : presets) {
    SmartNic nic(sim, preset, SmartNicHarness::Config());
    const bool has_fpga = preset.arch == SmartNicArch::kFpga ||
                          preset.arch == SmartNicArch::kAsicPlusFpga;
    EXPECT_EQ(nic.Traits().supports_reprogramming, has_fpga) << preset.name;
    EXPECT_TRUE(nic.Traits().supports_clock_gating);
    // Fixed-function engines silently ignore reprogram requests.
    nic.SetReprogramming(true);
    EXPECT_EQ(nic.reprogramming(), has_fpga) << preset.name;
    nic.SetReprogramming(false);
  }
}

TEST(SmartNicTest, OffloadSurfaceMatchesPreset) {
  SmartNicHarness h;
  EXPECT_DOUBLE_EQ(h.nic.OffloadCapacityPps(), AccelNetPreset().peak_mpps * 1e6);
  EXPECT_EQ(h.nic.TargetName(), "smartnic/accelnet-fpga");
}

TEST(SmartNicTest, FixedFunctionDeepParkDegradesToClockGating) {
  // An ASIC SmartNIC has no bitstream to remove: reprogram-style parking
  // can only clock-gate the engine, never claim full power-gating savings.
  Simulation sim(1);
  const SmartNicPreset asic = StandardSmartNicPresets()[1];  // agilio-asic.
  SmartNic nic(sim, asic, SmartNicHarness::Config());
  SmartNic reference(sim, asic, SmartNicHarness::Config());
  reference.SetClockGating(true);
  nic.PowerGateParkedApp();
  EXPECT_DOUBLE_EQ(nic.PowerWatts(), reference.PowerWatts());
  EXPECT_TRUE(nic.clock_gating());
}

TEST(SmartNicTest, AdvisorModelMatchesDeviceEnvelope) {
  // MakeSmartNicRatePower must track the behavioral device's power model:
  // idle at rate 0, max at capacity, linear between.
  const SmartNicPreset preset = AccelNetPreset();
  const double capacity = preset.peak_mpps * 1e6;
  auto fn = MakeSmartNicRatePower(0.0, preset.idle_watts, preset.max_watts, capacity);
  EXPECT_DOUBLE_EQ(fn(0), preset.idle_watts);
  EXPECT_DOUBLE_EQ(fn(capacity), preset.max_watts);
  EXPECT_DOUBLE_EQ(fn(capacity / 2),
                   preset.idle_watts + (preset.max_watts - preset.idle_watts) / 2);
  EXPECT_DOUBLE_EQ(fn(2 * capacity), preset.max_watts);  // Saturates.
}

// ---- Switch-ASIC offload adapter ----

struct SwitchTargetHarness {
  SwitchTargetHarness() : sim(1), topo(sim), sw(sim, AsicConfig()) {
    zone.FillSynthetic(32);
    DnsSwitchConfig config;
    config.dns_service = 1;
    program = std::make_unique<DnsSwitchProgram>(&zone, config);
    target = std::make_unique<SwitchOffloadTarget>(sw, *program, AppProto::kDns,
                                                   /*service=*/1);
    topo.ConnectToSwitch(&sw, &client, 100);
    topo.ConnectToSwitch(&sw, &host, 1);
  }
  static SwitchAsicConfig AsicConfig() {
    SwitchAsicConfig config;
    config.rate_window = Milliseconds(50);
    return config;
  }
  Packet Query(int name_index) {
    DnsMessage query;
    query.id = 1;
    query.questions.push_back(
        DnsQuestion{Zone::SyntheticName(name_index), kDnsTypeA, kDnsClassIn});
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    pkt.proto = AppProto::kDns;
    pkt.size_bytes = DnsWireBytes(query);
    pkt.payload = query;
    return pkt;
  }
  Simulation sim;
  Topology topo;
  Zone zone;
  SwitchAsic sw;
  std::unique_ptr<DnsSwitchProgram> program;
  std::unique_ptr<SwitchOffloadTarget> target;
  Collector client;
  Collector host;
};

TEST(SwitchOffloadTargetTest, ActivationLoadsAndUnloadsProgram) {
  SwitchTargetHarness h;
  EXPECT_FALSE(h.target->app_active());
  EXPECT_TRUE(h.sw.LoadedPrograms().empty());
  h.target->SetAppActive(true);
  EXPECT_EQ(h.sw.LoadedPrograms().size(), 1u);
  h.target->SetAppActive(false);
  EXPECT_TRUE(h.sw.LoadedPrograms().empty());
}

TEST(SwitchOffloadTargetTest, ClassifierSignalVisibleWhileParked) {
  SwitchTargetHarness h;
  h.sw.Receive(h.Query(3));
  h.sim.Run();
  // Parked: query forwarded to the host, yet the per-proto ingress counted.
  EXPECT_EQ(h.host.packets.size(), 1u);
  EXPECT_EQ(h.target->app_ingress_packets(), 1u);
  EXPECT_EQ(h.program->answered(), 0u);
}

TEST(SwitchOffloadTargetTest, RepliesCrossingTheSwitchDontInflateTheSignal) {
  // The NSD host's reply to a forwarded query traverses the same pipeline
  // with the same proto; the service filter must keep it out of the
  // request-rate signal, or switch targets would measure 2x the app rate.
  SwitchTargetHarness h;
  h.sw.Receive(h.Query(3));
  Packet reply;
  reply.src = 1;
  reply.dst = 100;
  reply.proto = AppProto::kDns;
  h.sw.Receive(reply);
  h.sim.Run();
  EXPECT_EQ(h.target->app_ingress_packets(), 1u);  // Query only.
  // Program replies re-entering the pipeline are filtered the same way.
  h.target->SetAppActive(true);
  h.sw.Receive(h.Query(4));
  h.sim.Run();
  EXPECT_EQ(h.program->answered(), 1u);
  EXPECT_EQ(h.target->app_ingress_packets(), 2u);  // Still queries only.
}

TEST(SwitchOffloadTargetTest, ActiveProgramConsumesAtLineRate) {
  SwitchTargetHarness h;
  h.target->SetAppActive(true);
  h.sw.Receive(h.Query(3));
  h.sim.Run();
  EXPECT_EQ(h.client.packets.size(), 1u);
  EXPECT_TRUE(h.host.packets.empty());
  EXPECT_EQ(h.program->answered(), 1u);
}

TEST(SwitchOffloadTargetTest, MarginalPowerZeroWhileParked) {
  SwitchTargetHarness h;
  EXPECT_DOUBLE_EQ(h.target->OffloadPowerWatts(), 0.0);
  h.target->SetAppActive(true);
  // Active but no traffic: marginal watts ~0 (the §9.4 argument).
  EXPECT_LT(h.target->OffloadPowerWatts(), 0.5);
  EXPECT_GT(h.target->OffloadCapacityPps(), 1e9);
  // Park knobs are no-ops on the always-warm pipeline.
  h.target->SetClockGating(true);
  EXPECT_FALSE(h.target->clock_gating());
  EXPECT_FALSE(h.target->Traits().supports_reprogramming);
}

TEST(SwitchOffloadTargetTest, KilledProgramUnloadsAndStaysDead) {
  SwitchTargetHarness h;
  h.target->SetAppActive(true);
  EXPECT_EQ(h.sw.LoadedPrograms().size(), 1u);
  h.target->KillEngine();
  EXPECT_FALSE(h.target->TargetAlive());
  EXPECT_FALSE(h.target->app_active());
  EXPECT_TRUE(h.sw.LoadedPrograms().empty());
  // A pipeline program cannot half-die: matching traffic falls through to
  // the normal route toward the host, never into dead match-action stages.
  h.sw.Receive(h.Query(3));
  h.sim.Run();
  EXPECT_EQ(h.host.packets.size(), 1u);
  EXPECT_EQ(h.program->answered(), 0u);
  // Reactivation is refused: recovery means re-placement, not resurrection.
  h.target->SetAppActive(true);
  EXPECT_FALSE(h.target->app_active());
  EXPECT_TRUE(h.sw.LoadedPrograms().empty());
}

// ---- The same §9.1 controller code drives a switch target ----

TEST(ControllerPortabilityTest, NetworkControllerDrivesSwitchTarget) {
  SwitchTargetHarness h;
  StateTransferMigrator migrator(h.sim, *h.target,
                                 StateTransferMigrator::Options{ParkPolicy::kKeepWarm});
  NetworkControllerConfig config;
  config.up_rate_pps = 50000;
  config.up_window = Milliseconds(200);
  config.down_rate_pps = 10000;
  config.down_window = Milliseconds(500);
  config.min_dwell = Milliseconds(100);
  OnDemandController controller(h.sim, *h.target, migrator, config);
  controller.Start();

  // 100 kqps for one second: the controller must load the program.
  const auto gap = static_cast<SimDuration>(1e9 / 100000);
  for (int i = 0; i < 100000; ++i) {
    h.sim.ScheduleAt(i * gap, [&h, i] { h.sw.Receive(h.Query(i % 32)); });
  }
  h.sim.RunUntil(Seconds(1));
  EXPECT_EQ(migrator.placement(), Placement::kNetwork);
  EXPECT_TRUE(h.target->app_active());
  EXPECT_GT(h.program->answered(), 0u);

  // Silence: the controller must shift DNS back to the host.
  h.sim.RunUntil(Seconds(3));
  EXPECT_EQ(migrator.placement(), Placement::kHost);
  EXPECT_TRUE(h.sw.LoadedPrograms().empty());
}

// ---- FpgaNic's OffloadTarget surface ----

TEST(FpgaTargetTest, TargetNameIncludesApp) {
  Simulation sim(1);
  FpgaNicConfig config;
  config.name = "netfpga";
  FpgaNic fpga(sim, config);
  EXPECT_EQ(fpga.TargetName(), "netfpga");
  LakeCache lake{LakeConfig{}};
  fpga.InstallApp(&lake);
  EXPECT_EQ(fpga.TargetName(), "netfpga/lake");
  EXPECT_TRUE(fpga.Traits().supports_clock_gating);
  EXPECT_TRUE(fpga.Traits().supports_memory_reset);
  EXPECT_TRUE(fpga.Traits().supports_reprogramming);
  EXPECT_GT(fpga.OffloadCapacityPps(), 0.0);
}

TEST(FpgaTargetTest, PowerGateParkedAppKeepsInfrastructure) {
  Simulation sim(1);
  FpgaNicConfig config;
  FpgaNic fpga(sim, config);
  LakeCache lake{LakeConfig{}};
  fpga.InstallApp(&lake);
  const double before = fpga.PowerWatts();
  fpga.PowerGateParkedApp();
  const double after = fpga.PowerWatts();
  EXPECT_LT(after, before);
  // Shell and PCIe stay up (§9.2): at least the 11 W reference NIC remains.
  EXPECT_GE(after, kFpgaShellWatts + kFpgaPcieWatts);
}

TEST(FpgaTargetTest, KilledEngineDropsClaimedTrafficAndCounts) {
  Simulation sim(1);
  FpgaNic fpga(sim, FpgaNicConfig{});
  LakeCache lake{LakeConfig{}};
  fpga.InstallApp(&lake);
  fpga.SetAppActive(true);
  fpga.KillEngine();
  EXPECT_FALSE(fpga.TargetAlive());
  // The classifier still steers KV traffic into the (dead) app core: the
  // packet is dropped and counted, never serviced and never punted to the
  // host — that placement only becomes authoritative after recovery.
  Packet pkt;
  pkt.src = 100;
  pkt.dst = 1;
  pkt.proto = AppProto::kKv;
  pkt.payload = KvRequest{KvOp::kGet, 3, 0};
  fpga.Receive(pkt);
  sim.Run();
  EXPECT_EQ(fpga.dead_dropped(), 1u);
  EXPECT_EQ(fpga.processed_in_hardware(), 0u);
  // A dead engine stops drawing dynamic power.
  EXPECT_DOUBLE_EQ(fpga.ProcessedRatePerSecond(), 0.0);
}

}  // namespace
}  // namespace incod
