// The unified, placement-agnostic application contract.
//
// The paper's thesis is that *where* an application runs — host software, an
// FPGA NIC core, or a switch-ASIC program — is a placement decision, not a
// property of the code (§9). incod::App is the one interface every
// application implements, whatever substrate hosts it:
//
//   * identity       — protocol tag + name, used by classifiers and the
//                      AppRegistry;
//   * placement      — the app advertises which substrates it supports and
//                      a profile per substrate: a CPU cost model for hosts,
//                      a pipeline spec + power modules + dynamic watts for
//                      offload targets (§5);
//   * packet path    — HandlePacket() against a narrow AppContext
//                      (reply / punt / egress-observe) instead of raw
//                      Server*/FpgaNic* back-pointers, so the same logic is
//                      hostable anywhere;
//   * typed state    — SnapshotState()/RestoreState() (app_state.h), the
//                      contract that lets a generic StateTransferMigrator
//                      move any registered app between placements.
//
// Substrates host apps through AppContext implementations: Server (host
// worker threads), FpgaNic (main logical core), SmartNic (offload engine),
// and SwitchHostedApp (pipeline program, app/switch_app.h). One class per
// implementation runs on every substrate it advertises: the offload apps
// serve both the FPGA NIC and the SmartNIC placement.
#ifndef INCOD_SRC_APP_APP_H_
#define INCOD_SRC_APP_APP_H_

#include <optional>
#include <string>
#include <vector>

#include "src/app/app_state.h"
#include "src/net/packet.h"
#include "src/power/ledger.h"
#include "src/sim/time.h"

namespace incod {

class Simulation;

// The substrates an application can be placed on (§4-§6, §10 of the paper).
enum class PlacementKind {
  kHost,        // Software on server cores behind a network stack.
  kFpgaNic,     // Main logical core in an FPGA NIC shell (NetFPGA SUME).
  kSwitchAsic,  // Program in a programmable switch pipeline (Tofino).
  kSmartNic,    // Offload engine of a commodity SmartNIC (§10 survey).
};

const char* PlacementKindName(PlacementKind placement);

// The four SmartNIC architectures the §10 survey compares. Part of the
// placement vocabulary (not the device model): an application's SmartNIC
// profile is per-arch, because the same firmware sustains very different
// fractions of a board's peak rate on wimpy SoC cores vs a fixed-function
// ASIC vs an FPGA region.
enum class SmartNicArch {
  kFpga,
  kAsic,
  kAsicPlusFpga,
  kSoc,
};

const char* SmartNicArchName(SmartNicArch arch);

// Host-substrate profile: how the server schedules and accounts the app.
// The CPU cost model itself is App::CpuTimePerRequest (it depends on the
// request).
struct HostPlacementProfile {
  int num_threads = 1;
  // If set, the app only receives packets addressed to this service address
  // (several apps of one protocol may share a host, e.g. Paxos roles).
  std::optional<NodeId> service_address;
};

// Throughput model of an offloaded application core.
struct FpgaPipelineSpec {
  // Parallel processing elements (LaKe PEs). 1 for single-pipeline designs.
  int workers = 1;
  // Initiation interval per worker: one packet accepted every `service` ns.
  // Fully pipelined designs have service << latency.
  SimDuration worker_service = Nanoseconds(100);
  // Constant pipeline traversal latency added to every processed packet.
  SimDuration pipeline_latency = Microseconds(1);
  // Input buffer (packets) ahead of the workers; overflow drops (UDP).
  size_t input_queue_capacity = 512;
};

// SmartNIC-substrate profile (§10): how the app's firmware maps onto each
// of the surveyed architectures. The hosting SmartNic derives the app's
// Mpps ceiling from its preset's peak scaled by the per-arch fraction, and
// enforces the SoC "resource wall" through the slot count.
struct SmartNicPlacementProfile {
  // Sustained fraction of the board's peak Mpps per architecture. FPGA and
  // ASIC+FPGA regions run the same pipeline the NetFPGA placement does;
  // fixed-function ASIC engines may lose some flexibility-dependent speed;
  // SoC cores parse anything but slowly.
  double fpga_mpps_fraction = 1.0;
  double asic_mpps_fraction = 1.0;
  double asic_fpga_mpps_fraction = 1.0;
  double soc_mpps_fraction = 1.0;
  // Engine slots the firmware occupies. SoC boards expose few slots (§10:
  // "SoCs hit the resource wall earlier"), capping concurrent apps.
  int resource_slots = 1;

  double MppsFractionFor(SmartNicArch arch) const;
};

// Offload-substrate profile: what the device needs to admit, time, and
// power-account the app (§5 power modules; §4.3 dynamic watts).
struct OffloadPlacementProfile {
  FpgaPipelineSpec pipeline;
  // Power modules the app adds to the board ledger (logic, memories).
  std::vector<ModulePowerSpec> power_modules;
  // Extra watts at 100 % pipeline utilization, linear in utilization.
  double dynamic_watts_at_capacity = 0.0;
  // Switch placement: fractional power overhead at full load relative to
  // plain L2 forwarding (§6: P4xos <= 2 %).
  double switch_power_overhead_at_full_load = 0.0;
  // SmartNIC placement: per-arch datapath and resource footprint (§10).
  SmartNicPlacementProfile smartnic;
};

// The narrow surface a substrate exposes to a hosted application. Replies
// and punts go through here; the app never sees the hosting device.
class AppContext {
 public:
  virtual ~AppContext() = default;

  virtual Simulation& sim() = 0;
  virtual PlacementKind placement() const = 0;

  // Address replies should carry as their source. 0: the substrate has no
  // own address — apps fall back to the request's destination.
  virtual NodeId self_node() const { return 0; }

  // Emits a reply (or any app-originated packet) toward the network.
  virtual void Reply(Packet&& packet) = 0;

  // Passes the packet onward to the fallback placement: a device punts to
  // its host across PCIe, a switch program lets the pipeline keep
  // forwarding, a host OS drops (there is nothing below it).
  virtual void Punt(Packet&& packet) = 0;
};

class App {
 public:
  virtual ~App() = default;

  // --- Identity ---
  virtual AppProto proto() const = 0;
  virtual std::string AppName() const = 0;

  // --- Placement advertisement ---
  virtual bool SupportsPlacement(PlacementKind placement) const = 0;
  virtual HostPlacementProfile HostProfile() const { return {}; }
  virtual OffloadPlacementProfile OffloadProfile() const { return {}; }

  // Host substrate cost model: pure CPU time consumed by one request,
  // excluding network-stack costs (the server adds those per its stack
  // configuration). Offload-only apps keep the default.
  virtual SimDuration CpuTimePerRequest(const Packet& packet) const {
    (void)packet;
    return 0;
  }

  // Classifier predicate: should this packet enter the app (when active)?
  virtual bool Matches(const Packet& packet) const { return packet.proto == proto(); }

  // --- Packet path ---
  // Application logic. Replies via ctx.Reply(), passes through via
  // ctx.Punt(). The context outlives the call (delayed replies may capture
  // it).
  virtual void HandlePacket(AppContext& ctx, Packet&& packet) = 0;

  // Observes host-originated packets of this protocol on their way out to
  // the network (non-consuming). LaKe uses this to fill its caches from
  // host replies after a miss.
  virtual void OnHostEgress(AppContext& ctx, const Packet& packet) {
    (void)ctx;
    (void)packet;
  }

  // --- Lifecycle hooks (activation, §9.2 park housekeeping) ---
  virtual void OnActivate() {}
  virtual void OnDeactivate() {}
  // The hosting device's external memories were put into reset: on-board
  // state is lost (LaKe must re-warm its caches, §9.2).
  virtual void OnMemoryReset() {}

  // --- Typed state contract (app_state.h) ---
  // Default: the app carries no transferable state.
  virtual AppState SnapshotState() const { return AppState{proto(), AppName(), {}}; }
  virtual void RestoreState(const AppState& state) { (void)state; }

  // The context of the substrate currently hosting this app. Set by the
  // substrate when the app is bound/installed.
  AppContext* context() const { return context_; }
  void BindContext(AppContext* context) { context_ = context; }

 private:
  AppContext* context_ = nullptr;
};

}  // namespace incod

#endif  // INCOD_SRC_APP_APP_H_
