// Device-agnostic offload target interface.
//
// The paper's thesis is that in-network computing is a *placement decision*
// across heterogeneous targets — FPGA NICs (§5), SmartNICs (§10), and
// programmable switch ASICs (§6) — not a property of one board. Everything
// the on-demand layer (§9) needs from a device fits a narrow surface:
//
//   * classifier  — divert application traffic into the device or not
//                   (LaKe's classifier flip, a Tofino program load);
//   * park state  — the §9.2 idle knobs (clock gating, memory reset,
//                   reprogramming) where the silicon supports them;
//   * rate        — classifier-visible ingress and processed rates, the
//                   signals both §9.1 controllers average;
//   * power       — watts attributable to hosting the offload (whole-board
//                   for a NIC, marginal program power for a ToR switch that
//                   forwards either way, §9.4) and an absorbable capacity.
//
// Controllers, migrators, and the rack orchestrator operate on this
// interface only, so the same decision logic drives any backend. Two
// implementations exist: OffloadNic (offload_nic.h) for the dedicated NICs,
// whose one classifier datapath, counters and park flags FpgaNic and
// SmartNic share (they differ only in install, park and power), and
// SwitchOffloadTarget (switch_offload.h) for a program in a ToR switch.
#ifndef INCOD_SRC_DEVICE_OFFLOAD_TARGET_H_
#define INCOD_SRC_DEVICE_OFFLOAD_TARGET_H_

#include <cstdint>
#include <string>

namespace incod {

// Which park-state knobs the silicon exposes (§5.1/§9.2). A knob a target
// lacks is a silent no-op: an ASIC pipeline is always warm, so "keep warm"
// costs it nothing and "gated park" degrades to the same thing.
struct OffloadTargetTraits {
  bool supports_clock_gating = false;
  bool supports_memory_reset = false;
  bool supports_reprogramming = false;
};

class OffloadTarget {
 public:
  virtual ~OffloadTarget() = default;

  virtual std::string TargetName() const = 0;
  virtual OffloadTargetTraits Traits() const { return {}; }

  // --- Classifier surface ---
  // Active: matching packets are processed in the device; inactive:
  // everything passes through to the host placement.
  virtual void SetAppActive(bool active) = 0;
  virtual bool app_active() const = 0;

  // --- Park-state surface (no-ops where unsupported) ---
  virtual void SetClockGating(bool enabled) { (void)enabled; }
  virtual bool clock_gating() const { return false; }
  virtual void SetMemoryReset(bool enabled) { (void)enabled; }
  virtual bool memory_reset() const { return false; }
  virtual void SetReprogramming(bool reprogramming) { (void)reprogramming; }
  virtual bool reprogramming() const { return false; }
  // Deepest park: remove the inactive app from the design entirely
  // (partial-reconfiguration parking, §9.2). Infrastructure that must stay
  // up (shell, PCIe, forwarding pipeline) keeps drawing.
  virtual void PowerGateParkedApp() {}

  // --- Rate surface (§9.1 controller signals) ---
  // Ingress rate of packets the classifier recognizes as the app's traffic,
  // counted whether or not the app is active.
  virtual double AppIngressRatePerSecond() const = 0;
  virtual uint64_t app_ingress_packets() const = 0;
  // Rate actually processed in the device (0 while parked).
  virtual double ProcessedRatePerSecond() const = 0;

  // --- Power / capacity surface ---
  // Watts attributable to this offload placement right now. Whole-board
  // power for a dedicated NIC; *marginal* program power for a switch that
  // forwards the traffic either way (§9.4).
  virtual double OffloadPowerWatts() const = 0;
  // Packets/second the offloaded app can absorb (0: unknown/unbounded).
  virtual double OffloadCapacityPps() const = 0;

  // --- Fault surface ---
  // Kills the offload engine mid-service: the device stops processing app
  // traffic (matching packets and already-admitted pipeline work are dropped
  // and counted, never serviced) until recovery logic re-places the app
  // elsewhere. Pass-through forwarding may survive where the silicon
  // separates the two (an FPGA shell keeps forwarding; a switch keeps
  // routing). Irreversible within a run — recovery means re-placement, not
  // resurrection.
  virtual void KillEngine() { engine_dead_ = true; }
  // Heartbeat signal the failure detector polls.
  virtual bool TargetAlive() const { return !engine_dead_; }
  bool engine_dead() const { return engine_dead_; }
  // Packets/completions dropped because the engine was dead.
  virtual uint64_t dead_dropped() const { return 0; }

 protected:
  bool engine_dead_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_OFFLOAD_TARGET_H_
