// Crash recovery from AppState checkpoints, warm vs cold.
//
// The robustness counterpart of the Fig 6/7 transition benches: instead of a
// controller-initiated shift, the offload target *dies* mid-service (a
// FaultInjector device-death event), the rack orchestrator's heartbeat
// detector declares it failed, and the victim app is restored onto a
// surviving placement. Two legs:
//
//   kvs   — LaKe on the NetFPGA dies; recovery lands the app on the ToR's
//           NetCache program. Warm runs checkpoint the offloaded cache to
//           the home host every 250 ms and restore it into the landing
//           placement; cold runs restart with an empty register array. The
//           gated metric is the post-recovery miss fraction at the switch.
//   paxos — the P4xos leader NIC dies; the software leader takes over. Warm
//           runs restore the checkpointed ballot+sequence into the software
//           leader (no re-learning); cold runs re-learn the sequence, Fig
//           7's ~100 ms service gap. The gated metric is the service gap
//           from the kill until sustained client completions resume.
//
// Modes:
//   (default) — human-readable summary of both legs.
//   --check   — the same legs over shorter windows; exits 1 if a floor
//     below breaks.
#include <iostream>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/kvs/kv_protocol.h"
#include "src/scenarios/rack_scenario.h"
#include "src/sim/simulation.h"

namespace {

using namespace incod;

constexpr uint64_t kKeyspace = 2048;  // <= LaKe l1_entries: checkpoints cover it.
constexpr double kKvsRatePps = 200000.0;
const SimTime kKillAt = Seconds(1);

RequestFactory GetFactory(NodeId service, uint64_t keys) {
  return [service, keys](NodeId src, uint64_t id, SimTime now, Rng& rng) {
    const uint64_t key =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
    return MakeKvRequestPacket(src, service, KvRequest{KvOp::kGet, key, 0}, id, now);
  };
}

RackOrchestratorConfig RecoveryOrchestratorConfig() {
  RackOrchestratorConfig config;
  config.heartbeat_period = Milliseconds(2);
  config.check_period = Milliseconds(50);
  // The benches place apps with ForcePlacement; a long dwell keeps the
  // periodic economics pass from moving them before the fault strikes.
  config.min_dwell = Seconds(30);
  return config;
}

// --check floors. Simulated time, deterministic per seed: both legs detect
// the death in 2 ms; the KVS post-recovery miss fraction is 0.288 cold and
// 0 warm; the Paxos service gap is 50.5 ms cold and 3.5 ms warm.
constexpr double kMaxDetectionMs = 10.0;
constexpr double kKvsWarmMaxMissFraction = 0.05;
constexpr double kKvsMinDeltaMissFraction = 0.15;
constexpr double kPaxosWarmMaxGapMs = 10.0;
constexpr double kPaxosMinDeltaGapMs = 20.0;

double DetectionMs(const RackOrchestrator& orchestrator, SimTime kill_at) {
  for (const RackDecisionRecord& record : orchestrator.decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kFailure) {
      return ToMilliseconds(record.at - kill_at);
    }
  }
  return -1;
}

struct KvsRecovery {
  double detection_ms = -1;
  double post_recovery_miss_fraction = 1.0;
  std::string landed;
  bool warm_recovery = false;
  uint64_t checkpoints = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

KvsRecovery RunKvsRecovery(bool warm, bool quick) {
  Simulation sim(41);
  MixedRackOptions options;
  options.enable_paxos = false;
  options.kvs_switch_placement = true;
  options.orchestrator = RecoveryOrchestratorConfig();
  options.kvs_checkpoint_period = warm ? Milliseconds(250) : 0;
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kDeviceDeath, kKillAt, "netfpga-lake", 0});
  MixedRackScenario rack(sim, options);
  rack.PrefillKvs(kKeyspace, 64);

  LoadClient& client = rack.AddKvsClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(kKvsRatePps),
      GetFactory(kRackKvsServerNode, kKeyspace));
  rack.orchestrator().Start();
  rack.orchestrator().ForcePlacement(rack.kvs_app_index(), 0);  // NetFPGA/LaKe.
  client.Start();

  // Heartbeat 2 ms x threshold 2: recovery has landed well before +10 ms.
  // Measure the switch cache's hit economics over a window starting there.
  sim.RunUntil(kKillAt + Milliseconds(10));
  const uint64_t hits_base = rack.netcache()->hits();
  const uint64_t misses_base = rack.netcache()->misses_forwarded();
  sim.RunUntil(kKillAt + Milliseconds(10) + (quick ? Milliseconds(250)
                                                   : Milliseconds(400)));

  KvsRecovery result;
  result.detection_ms = DetectionMs(rack.orchestrator(), kKillAt);
  result.checkpoints = rack.orchestrator().checkpoints_taken();
  result.hits = rack.netcache()->hits() - hits_base;
  result.misses = rack.netcache()->misses_forwarded() - misses_base;
  const uint64_t total = result.hits + result.misses;
  result.post_recovery_miss_fraction =
      total == 0 ? 1.0 : static_cast<double>(result.misses) / static_cast<double>(total);
  for (const RackDecisionRecord& record : rack.orchestrator().decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kRecovery) {
      result.landed = record.target;
      result.warm_recovery = record.warm;
    }
  }
  return result;
}

struct PaxosRecovery {
  double detection_ms = -1;
  double service_gap_ms = -1;
  bool warm_recovery = false;
  uint64_t checkpoints = 0;
  uint64_t retries = 0;
};

PaxosRecovery RunPaxosRecovery(bool warm, bool quick) {
  Simulation sim(43);
  MixedRackOptions options;
  options.orchestrator = RecoveryOrchestratorConfig();
  options.paxos_checkpoint_period = warm ? Milliseconds(100) : 0;
  // The software leader's ballot/sequence are stale by construction: only a
  // checkpoint restore into the *host* placement skips the re-learning.
  options.paxos_restore_to_home = warm;
  options.paxos_client.requests_per_second = 10000;
  options.paxos_client.retry_timeout = Milliseconds(100);
  options.faults.events.push_back(
      FaultEventSpec{FaultKind::kDeviceDeath, kKillAt, "netfpga-p4xos", 0});
  MixedRackScenario rack(sim, options);

  rack.orchestrator().Start();
  rack.orchestrator().ForcePlacement(rack.paxos_app_index(), 0);  // P4xos NIC.
  rack.paxos_client()->Start();

  // Service gap: kill -> ten sustained completions (1 ms of traffic at
  // 10 kreq/s), so a single in-flight response cannot fake a recovery.
  PaxosRecovery result;
  sim.Schedule(kKillAt, [&sim, &rack, &result] {
    const uint64_t base = rack.paxos_client()->completed() + 10;
    SchedulePeriodic(sim, Microseconds(500), Microseconds(500),
                     [&sim, &rack, &result, base] {
                       if (rack.paxos_client()->completed() < base) {
                         return true;
                       }
                       result.service_gap_ms = ToMilliseconds(sim.Now() - kKillAt);
                       return false;
                     });
  });

  sim.RunUntil(kKillAt + (quick ? Milliseconds(500) : Seconds(1)));
  result.detection_ms = DetectionMs(rack.orchestrator(), kKillAt);
  result.checkpoints = rack.orchestrator().checkpoints_taken();
  result.retries = rack.paxos_client()->retries();
  for (const RackDecisionRecord& record : rack.orchestrator().decision_log()) {
    if (record.kind == RackDecisionRecord::Kind::kRecovery) {
      result.warm_recovery = record.warm;
    }
  }
  return result;
}

void PrintKvs(const char* label, const KvsRecovery& r) {
  std::cout << label << ": detection " << r.detection_ms << " ms, landed on "
            << (r.landed.empty() ? "host" : r.landed) << ", post-recovery miss fraction "
            << r.post_recovery_miss_fraction << " (" << r.hits << " hits / " << r.misses
            << " forwarded), checkpoints " << r.checkpoints << "\n";
}

void PrintPaxos(const char* label, const PaxosRecovery& r) {
  std::cout << label << ": detection " << r.detection_ms << " ms, service gap "
            << r.service_gap_ms << " ms, retries " << r.retries << ", checkpoints "
            << r.checkpoints << "\n";
}

// --check runs the short (quick) windows.
int Run(bool check) {
  bench::PrintHeader("Crash recovery from AppState checkpoints, warm vs cold",
                     "Device death mid-offload; heartbeat detection; restore "
                     "onto a surviving placement from the latest checkpoint "
                     "(warm) or from scratch (cold).");

  const KvsRecovery kvs_cold = RunKvsRecovery(/*warm=*/false, /*quick=*/check);
  const KvsRecovery kvs_warm = RunKvsRecovery(/*warm=*/true, /*quick=*/check);
  std::cout << "kvs: LaKe NIC dies at " << ToSeconds(kKillAt)
            << " s; recovery lands on the ToR NetCache program\n";
  PrintKvs("  cold", kvs_cold);
  PrintKvs("  warm", kvs_warm);
  const double kvs_delta =
      kvs_cold.post_recovery_miss_fraction - kvs_warm.post_recovery_miss_fraction;
  std::cout << "  delta (cold - warm) miss fraction: " << kvs_delta << "\n\n";

  const PaxosRecovery paxos_cold = RunPaxosRecovery(/*warm=*/false, /*quick=*/check);
  const PaxosRecovery paxos_warm = RunPaxosRecovery(/*warm=*/true, /*quick=*/check);
  std::cout << "paxos: P4xos leader NIC dies at " << ToSeconds(kKillAt)
            << " s; the software leader takes over\n";
  PrintPaxos("  cold", paxos_cold);
  PrintPaxos("  warm", paxos_warm);
  const double paxos_delta = paxos_cold.service_gap_ms - paxos_warm.service_gap_ms;
  std::cout << "  delta (cold - warm) service gap: " << paxos_delta << " ms\n";

  if (!check) {
    return 0;
  }
  std::cout << "\n";
  bench::Check floors;
  // Warm floors: the restore came from a checkpoint and stayed near-lossless.
  floors.That("kvs failure detected", kvs_warm.detection_ms >= 0);
  floors.AtMost("kvs detection ms", kvs_warm.detection_ms, kMaxDetectionMs);
  floors.That("kvs recovery restored from a checkpoint (warm)", kvs_warm.warm_recovery);
  floors.That("kvs checkpoints taken before the kill", kvs_warm.checkpoints > 0);
  floors.AtMost("kvs warm post-recovery miss fraction",
                kvs_warm.post_recovery_miss_fraction, kKvsWarmMaxMissFraction);
  floors.AtLeast("kvs cold-warm miss-fraction delta", kvs_delta, kKvsMinDeltaMissFraction);
  floors.That("paxos failure detected", paxos_warm.detection_ms >= 0);
  floors.AtMost("paxos detection ms", paxos_warm.detection_ms, kMaxDetectionMs);
  floors.That("paxos recovery restored from a checkpoint (warm)",
              paxos_warm.warm_recovery);
  floors.That("paxos checkpoints taken before the kill", paxos_warm.checkpoints > 0);
  floors.That("paxos warm service resumed", paxos_warm.service_gap_ms >= 0);
  floors.AtMost("paxos warm service gap ms", paxos_warm.service_gap_ms,
                kPaxosWarmMaxGapMs);
  floors.AtLeast("paxos cold-warm service gap delta ms", paxos_delta, kPaxosMinDeltaGapMs);
  return floors.ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  if (!bench::ParseCheckFlag(argc, argv, &check)) {
    return 2;
  }
  return Run(check);
}
