// Deterministic fault injection.
//
// Production operators buy availability; the paper's offload story assumes
// devices stay alive. The FaultInjector makes failures a first-class,
// replayable part of every scenario: typed fault events — device death
// mid-offload, link down/up flaps, PSU brownout power-cap steps — are
// declared in a FaultPlanSpec and armed as *ordinary simulation events* at
// setup time, so single-queue and sharded runs of the same seed + plan stay
// event-identical (the engine_diff_test contract extends to faulted runs).
//
// Every fired fault is appended to a per-run fault log mirroring
// RackDecisionRecord: tests and benches reconcile their counters against it
// exactly as they do against the orchestrator's decision log.
//
// Registration happens by name (targets, nodes, links), which is what lets
// ScenarioSpec fault plans stay declarative strings. Arm() validates every
// name up front — an unknown target is a configuration bug, not a silent
// no-op.
#ifndef INCOD_SRC_FAULT_FAULT_INJECTOR_H_
#define INCOD_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/device/offload_target.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace incod {

enum class FaultKind {
  kDeviceDeath,  // Kill an offload engine (or a whole node) mid-service.
  kLinkDown,     // Take a cable down: sends refused, in-flight dropped.
  kLinkUp,       // Bring it back up.
  kPsuBrownout,  // Step the rack power cap down (or back up).
};

const char* FaultKindName(FaultKind kind);

// One declared fault. `target` names a registered offload target / node
// (kDeviceDeath), a registered link (kLinkDown/kLinkUp), or is ignored
// (kPsuBrownout, which carries the new cap instead).
struct FaultEventSpec {
  FaultKind kind = FaultKind::kDeviceDeath;
  SimTime at = 0;
  std::string target;
  double power_cap_watts = 0;  // kPsuBrownout only.
};

struct FaultPlanSpec {
  std::vector<FaultEventSpec> events;
};

// Per-run audit record, mirroring RackDecisionRecord: one entry per fired
// fault, in firing order.
struct FaultRecord {
  FaultKind kind;
  SimTime at = 0;
  std::string target;
  double power_cap_watts = 0;
};

class FaultInjector {
 public:
  // `home` is the simulation the fault log lives in (the testbed's home
  // shard); per-entity events run in the sim each entity was registered
  // with, defaulting to home.
  explicit FaultInjector(Simulation& home) : home_(home) {}

  // --- Registration (setup time, before Arm) ---
  void RegisterTarget(const std::string& name, OffloadTarget* target,
                      Simulation* sim = nullptr);
  void RegisterNode(const std::string& name, PacketSink* sink,
                    Simulation* sim = nullptr);
  // Each name once: a repeated name throws std::invalid_argument.
  void RegisterLink(const std::string& name, Link* link);
  // Called (in the home sim) when a kPsuBrownout fires, with the new cap.
  // Read at fire time, so the handler may be set after Arm().
  void SetPowerCapHandler(std::function<void(double)> handler) {
    power_cap_handler_ = std::move(handler);
  }

  // Schedules every event in the plan. Call at setup, before the simulation
  // runs (a testbed arms its spec's plan; callers may arm more plans);
  // throws std::invalid_argument on an unresolvable name.
  void Arm(const FaultPlanSpec& plan);

  // --- Audit surface ---
  const std::vector<FaultRecord>& fault_log() const { return fault_log_; }
  uint64_t device_deaths() const { return device_deaths_; }
  uint64_t link_down_events() const { return link_down_events_; }
  uint64_t link_up_events() const { return link_up_events_; }
  uint64_t brownouts() const { return brownouts_; }

  // Registered names, for plan generators and diagnostics.
  std::vector<std::string> TargetNames() const;
  std::vector<std::string> LinkNames() const;

 private:
  struct DeathVictim {
    OffloadTarget* target = nullptr;  // Preferred when both are registered.
    PacketSink* sink = nullptr;
    Simulation* sim = nullptr;
  };
  DeathVictim Resolve(const FaultEventSpec& spec) const;
  void Record(const FaultEventSpec& spec);

  Simulation& home_;
  std::map<std::string, std::pair<OffloadTarget*, Simulation*>> targets_;
  std::map<std::string, std::pair<PacketSink*, Simulation*>> nodes_;
  std::map<std::string, Link*> links_;
  std::function<void(double)> power_cap_handler_;
  std::vector<FaultRecord> fault_log_;
  uint64_t device_deaths_ = 0;
  uint64_t link_down_events_ = 0;
  uint64_t link_up_events_ = 0;
  uint64_t brownouts_ = 0;
};

// --- Seeded plan generation (property tests, soak runs) ---

struct RandomFaultPlanConfig {
  SimTime horizon = 0;                // Faults land in (0, horizon].
  double death_probability = 0.5;     // Per target.
  // Paired down -> up, the up horizon/100 to horizon/10 after the down.
  int max_flaps_per_link = 2;
  int max_brownouts = 2;
  double min_cap_watts = 0;
  double max_cap_watts = 0;           // <= min: no brownouts generated.
};

// Draws a deterministic plan from the rng: each target dies independently,
// each link flaps 0..max times (down always paired with a later up), and
// the power cap steps within [min, max] watts. Same rng state + same name
// lists -> bit-identical plan.
FaultPlanSpec MakeRandomFaultPlan(Rng& rng,
                                  const std::vector<std::string>& target_names,
                                  const std::vector<std::string>& link_names,
                                  const RandomFaultPlanConfig& config);

}  // namespace incod

#endif  // INCOD_SRC_FAULT_FAULT_INJECTOR_H_
