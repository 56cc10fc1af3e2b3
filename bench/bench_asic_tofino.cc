// §6 "Lessons from an ASIC": Tofino normalized power and the ops/watt ladder.
//
// Runs the P4xos leader+acceptor program combined with L2 forwarding on the
// switch ASIC model (32x40G snake) and reports:
//   - normalized power for forwarding-only vs +P4xos vs +diag.p4 across load,
//   - the <=2 % P4xos and 4.8 % diag overheads,
//   - the ops-per-watt ladder (software 10K's, FPGA 100K's, ASIC 10M's), and
//   - the x1000 throughput at 10 % utilization claim.
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/device/switch_asic.h"
#include "src/net/topology.h"
#include "src/paxos/p4xos.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"

namespace incod {
namespace {

// Drives the switch's observed rate to a utilization fraction and reports
// normalized power for a program mix.
struct AsicRun {
  double normalized_forwarding;
  double normalized_with_programs;
};

AsicRun MeasureAt(double utilization, bool with_p4xos, bool with_diag) {
  Simulation sim(31);
  Topology topo(sim);
  SwitchAsicConfig config;
  config.rate_window = Milliseconds(1);
  SwitchAsic sw(sim, config);
  // Snake: one sink port is enough for the model; the rate window is what
  // drives power.
  class NullSink : public PacketSink {
   public:
    void Receive(Packet) override {}
    std::string SinkName() const override { return "sink"; }
  } sink;
  topo.ConnectToSwitch(&sw, &sink, 1);

  PaxosGroupConfig group;
  group.acceptors = {10, 11, 12};
  group.learners = {30};
  group.leader_service = 200;
  P4xosSwitchProgram leader(P4xosRole::kLeader, group, 1, 200);
  DiagProgram diag;
  if (with_p4xos) {
    sw.LoadProgram(&leader);
  }
  if (with_diag) {
    sw.LoadProgram(&diag);
  }
  // Feed packets to reach the target utilization over the 1 ms window.
  const double pps = utilization * sw.LineRatePps();
  const uint64_t packets = static_cast<uint64_t>(pps * 0.001);
  for (uint64_t i = 0; i < packets; ++i) {
    Packet pkt;
    pkt.src = 9;
    pkt.dst = 1;
    pkt.proto = AppProto::kRaw;
    sw.Receive(pkt);
  }
  AsicRun run;
  run.normalized_forwarding = sw.ForwardingOnlyWatts() / SwitchAsic::kMaxPowerWatts;
  run.normalized_with_programs = sw.NormalizedPower();
  return run;
}

}  // namespace
}  // namespace incod

int main() {
  using namespace incod;
  bench::PrintHeader("Section 6: ASIC (Tofino) power",
                     "Normalized power, 32x40G = 1.28 Tbps, 64 B packets. "
                     "Paper: P4xos adds <=2 %; diag.p4 adds 4.8 %; min-max "
                     "spread <20 %; idle identical with/without programs.");

  CsvTable table({"utilization", "l2fwd", "l2fwd+p4xos", "p4xos_overhead_pct",
                  "l2fwd+diag", "diag_overhead_pct"});
  for (double u : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto p4xos = MeasureAt(u, true, false);
    const auto diag = MeasureAt(u, false, true);
    table.AddRow({u, p4xos.normalized_forwarding, p4xos.normalized_with_programs,
                  100.0 * (p4xos.normalized_with_programs / p4xos.normalized_forwarding -
                           1.0),
                  diag.normalized_with_programs,
                  100.0 * (diag.normalized_with_programs / diag.normalized_forwarding -
                           1.0)});
  }
  table.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  table.WriteCsv(std::cout);

  // Min-max spread of the base device.
  std::cout << "\nmin-max forwarding spread: "
            << 100.0 * (1.0 - SwitchAsic::kIdlePowerFraction) << "% (paper: <20%)\n";

  // Ops-per-watt ladder (§6): messages per watt at peak for each target.
  // Software: 178 Kmsg/s at ~52 W wall; FPGA: 10 Mmsg/s at ~47.6 W system
  // (12.6 W board); ASIC: 2.5 Gmsg/s at 350 W.
  CsvTable ladder({"target", "peak_msgs_per_sec", "watts", "msgs_per_watt"});
  ladder.AddRow({std::string("libpaxos (CPU)"), 178e3, 52.0, 178e3 / 52.0});
  ladder.AddRow({std::string("P4xos (FPGA board)"), 10e6, 12.6 + 1.2, 10e6 / 13.8});
  ladder.AddRow({std::string("P4xos (ASIC)"), 2.5e9, 350.0, 2.5e9 / 350.0});
  std::cout << "\n";
  ladder.WriteAligned(std::cout);
  std::cout << "\n(paper ladder: 10K's / 100K's / 10M's msgs per watt)\n";

  // x1000 at 10 % utilization: ASIC at 10 % of 2.5 Gpps vs the 178 Kmsg/s
  // software peak; dynamic power 1/3 of the server's at 180 Kpps.
  const double asic_rate = 0.1 * 2.5e9;
  std::cout << "\nASIC at 10% utilization: " << asic_rate / 178e3
            << "x software peak throughput (paper: ~x1000 vs a server)\n";
  const double asic_dynamic = 350.0 * (1.0 - SwitchAsic::kIdlePowerFraction) * 0.1 +
                              350.0 * 0.02 * 0.1;  // forwarding + p4xos share
  const double server_dynamic =
      I7LibpaxosCurve().Evaluate(178e3 > 0 ? 1.0 : 0.0) - I7LibpaxosCurve().Evaluate(0.0);
  std::cout << "ASIC dynamic power at 10%: " << asic_dynamic
            << " W vs server dynamic at saturation: " << server_dynamic
            << " W (paper: ASIC's absolute dynamic power ~1/3 of the server's)\n";
  return 0;
}
