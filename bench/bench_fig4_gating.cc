// Figure 4: the effect of LaKe's design trade-offs on power consumption.
//
// Reproduces the bar chart: reference NIC, 1 PE & no memories, no memories,
// max load & no memories, reset memories + clock gating, reset memories,
// server without cards, clock gating, and full LaKe. Blue bars are board
// power (DC, in-server); red bars are the reference NIC and the idle i7
// server for comparison.
//
//   --check   — after the figure, holds the §5.1 findings as floors (the
//               model is deterministic, so these are exact reads of the
//               FpgaNic ledger); exits 1 if one breaks.
#include <cmath>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "src/device/fpga_nic.h"
#include "src/kvs/lake.h"
#include "src/power/cpu_power.h"
#include "src/sim/simulation.h"
#include "src/stats/csv.h"

namespace incod {
namespace {

// Board power for a LaKe configuration under the given runtime state.
double LakeBoardWatts(LakeConfig config, bool active, bool clock_gating,
                      bool memory_reset, double utilization = 0.0) {
  Simulation sim(17);
  FpgaNicConfig fpga_config;
  FpgaNic fpga(sim, fpga_config);
  LakeCache lake(config);
  fpga.InstallApp(&lake);
  fpga.SetAppActive(active);
  fpga.SetClockGating(clock_gating);
  fpga.SetMemoryReset(memory_reset);
  double watts = fpga.PowerWatts();
  if (active && utilization > 0) {
    // Emulate the utilization-linear dynamic part at the requested load.
    watts += lake.OffloadProfile().dynamic_watts_at_capacity * utilization;
  }
  return watts;
}

}  // namespace
}  // namespace incod

int main(int argc, char** argv) {
  using namespace incod;
  bool check = false;
  if (!bench::ParseCheckFlag(argc, argv, &check)) {
    return 2;
  }
  bench::PrintHeader("Figure 4: LaKe design trade-offs",
                     "Per-configuration power (watts). Paper findings: clock "
                     "gating saves <1 W; each PE ~0.25 W; external memories "
                     "are the biggest contributor (>=10 W, 40% saved in "
                     "reset); idle server ~ standalone LaKe board.");

  LakeConfig full;       // 5 PEs, DRAM + SRAM.
  LakeConfig one_pe;     // 1 PE, no memories.
  one_pe.num_pes = 1;
  one_pe.use_dram = false;
  one_pe.use_sram = false;
  LakeConfig no_mem;     // 5 PEs, no memories.
  no_mem.use_dram = false;
  no_mem.use_sram = false;

  Simulation sim(17);
  FpgaNicConfig nic_config;
  FpgaNic reference_nic(sim, nic_config);  // No app: the reference NIC.

  CpuPowerModel server = MakeI7Server("i7", I7MemcachedCurve());

  CsvTable table({"configuration", "power_w", "kind"});
  table.AddRow({std::string("Ref. NIC"), reference_nic.PowerWatts(), std::string("red")});
  table.AddRow({std::string("1 PE & no mem"),
                LakeBoardWatts(one_pe, true, false, false), std::string("blue")});
  table.AddRow({std::string("No mem"), LakeBoardWatts(no_mem, true, false, false),
                std::string("blue")});
  table.AddRow({std::string("Max load & no mem"),
                LakeBoardWatts(no_mem, true, false, false, 1.0), std::string("blue")});
  table.AddRow({std::string("Reset mem & clk gating"),
                LakeBoardWatts(full, false, true, true), std::string("blue")});
  table.AddRow({std::string("Reset mem"), LakeBoardWatts(full, false, false, true),
                std::string("blue")});
  table.AddRow({std::string("Server no cards"), server.PowerWatts(), std::string("red")});
  table.AddRow({std::string("Clk gating"), LakeBoardWatts(full, false, true, false),
                std::string("blue")});
  table.AddRow({std::string("LaKe"), LakeBoardWatts(full, true, false, false),
                std::string("blue")});
  table.WriteAligned(std::cout);
  std::cout << "\n--- csv ---\n";
  table.WriteCsv(std::cout);

  // The §5.1 claims, computed from the model:
  const double lake_full = LakeBoardWatts(full, true, false, false);
  const double clk = LakeBoardWatts(full, false, true, false);
  const double reset = LakeBoardWatts(full, false, false, true);
  const double idle = LakeBoardWatts(full, false, false, false);
  std::cout << "\nclock gating saves " << idle - clk << " W (paper: <1 W)\n";
  std::cout << "memory reset saves " << idle - reset
            << " W (paper: 40% of >=10 W memory power)\n";
  const double per_pe = (lake_full - LakeBoardWatts(one_pe, true, false, false) -
                         kFpgaDramWatts - kFpgaSramWatts) / 4.0;
  std::cout << "per-PE cost " << per_pe << " W (paper: ~0.25 W)\n";
  if (!check) {
    return 0;
  }

  // §5.1 in the paper's words.
  bench::Check floors;
  floors.That("clock gating saves more than 0 W", idle - clk > 0);
  floors.That("clock gating \"earns less than 1W\"", idle - clk < 1.0);
  const double memory_watts = kFpgaDramWatts + kFpgaSramWatts;
  floors.That("memory reset saves 40% of the DRAM+SRAM interface watts",
              std::abs((idle - reset) - 0.4 * memory_watts) < 1e-9);
  floors.AtLeast("per-PE cost (W)", per_pe, 0.2);
  floors.AtMost("per-PE cost (W)", per_pe, 0.3);
  floors.That("the reference NIC draws 11 W",
              std::abs(reference_nic.PowerWatts() - 11.0) < 1e-9);
  return floors.ExitCode();
}
