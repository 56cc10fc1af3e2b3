// Flow control: PFC-style link pause + DCQCN-style end-host rate control.
//
// Links silently dropping on queue overflow is the wrong regime for heavy
// traffic: at millions-of-users load the interesting behavior is
// backpressure — head-of-line blocking and slowdown, not loss. This header
// holds the three knobs that model it:
//
//  - LinkFlowConfig: per-link PFC pause watermarks + ECN marking threshold.
//    When `pfc` is set the Link runs a paced serve loop per direction (see
//    link.h) and emits pause/resume toward the upstream sender when the
//    transmit backlog crosses the high/low watermarks.
//  - FlowListener: the sender-side endpoint's view of its own egress backlog.
//    L2Switch uses it to propagate pause to its other ingress ports; NICs use
//    it to propagate host-link congestion out to the network; LoadClient uses
//    it to hold its DCQCN pacer while the uplink is congested.
//  - DcqcnConfig/DcqcnRateController: a DCQCN-flavored sender rate machine.
//    Receivers CNP-notify senders of ECN-marked arrivals; the controller
//    reacts with multiplicative decrease (alpha-weighted) and recovers with
//    fast-recovery/additive/hyper increase, pacing submitted packets at the
//    current rate.
//
// Everything here runs as ordinary simulation events (pause flips and CNPs
// travel with the link propagation delay), so backpressured runs stay
// event-identical across kSingleQueue/kParallel engine modes.
#ifndef INCOD_SRC_NET_FLOW_CONTROL_H_
#define INCOD_SRC_NET_FLOW_CONTROL_H_

#include <cstddef>
#include <cstdint>

#include "src/net/packet.h"
#include "src/sim/ring_queue.h"
#include "src/sim/simulation.h"

namespace incod {

class Link;

// Per-link flow-control knobs (Link::Config::flow). Watermarks are in
// packets of *waiting* transmit backlog (the packet being serialized does
// not count, matching the queue-capacity accounting).
struct LinkFlowConfig {
  // PFC pause machinery: the direction runs a paced serve loop, honors
  // pause frames from the receiver, and notifies its FlowListener at the
  // watermark crossings below.
  bool pfc = false;
  size_t pause_high_watermark = 64;  // Backlog >= high: congestion asserted.
  size_t pause_low_watermark = 16;   // Backlog <= low: congestion deasserted.
  // ECN-style marking: packets entering the serializer while the backlog is
  // at or above the threshold leave with packet.ecn set.
  bool ecn = false;
  size_t ecn_threshold_packets = 32;
};

// Sender-side congestion callback. Registered on a Link via
// SetFlowListener(sender_end, listener); fires synchronously in the shard
// that owns the sending side of the direction, when the transmit backlog
// crosses the high watermark (congested=true) or drains back to the low
// watermark (congested=false).
class FlowListener {
 public:
  virtual ~FlowListener() = default;
  virtual void OnLinkCongestion(Link* link, bool congested) = 0;
};

// Host ingress flow control (ServerConfig::flow): the server pauses its
// uplink when the total queued rx backlog crosses the high watermark, and
// CNP-notifies senders of ECN-marked arrivals.
struct HostFlowConfig {
  bool pfc = false;                    // Pause the uplink at the watermarks.
  size_t pause_high_watermark = 256;   // Total queued rx packets, all threads.
  size_t pause_low_watermark = 64;
  bool cnp = false;                    // Send CNPs for ECN-marked ingress.
};

// DCQCN-flavored rate-control parameters (LoadClientConfig::dcqcn).
struct DcqcnConfig {
  bool enabled = false;
  double line_rate_pps = 1.0e6;     // Injection cap when uncongested.
  size_t pacer_capacity = 1 << 16;  // Submitted packets waiting to be paced.
};

// Sender rate machine: paces submitted packets at the current rate, decreases
// on CNP, recovers on a self-quiescing timer (no events once back at line
// rate with an empty pacer, so simulations terminate).
class DcqcnRateController {
 public:
  static constexpr double kMinRatePps = 1.0e4;  // Multiplicative-decrease floor.
  // g: on CNP, alpha <- (1-g)*alpha + g and rate <- rate*(1 - alpha/2);
  // each recovery period without a CNP decays alpha by (1-g).
  static constexpr double kAlphaGain = 1.0 / 16.0;
  static constexpr SimDuration kRecoveryPeriod = Microseconds(300);
  static constexpr double kAdditiveStepPps = 2.0e4;  // Target-rate AI step per period.
  static constexpr int kHyperAfterRounds = 5;  // HAI kicks in after this many periods.
  static constexpr double kHyperStepPps = 1.0e5;

  DcqcnRateController(Simulation& sim, DcqcnConfig config);

  // The link (and the sending endpoint identity) paced packets leave on.
  void AttachUplink(Link* link, PacketSink* sender);

  // Pace-and-send. With the controller disabled this forwards directly.
  void Submit(Packet&& packet);

  // A CNP arrived from a receiver: multiplicative decrease.
  void OnCnp();

  // PFC hold from the local uplink: while congested the pacer stops draining
  // (the link's own queue is full — pushing more just moves the backlog).
  void SetUplinkCongested(bool congested);

  double current_rate_pps() const { return rate_; }
  double alpha() const { return alpha_; }
  uint64_t cnps_received() const { return cnps_; }
  uint64_t paced_sent() const { return paced_sent_; }
  uint64_t pacer_dropped() const { return pacer_dropped_; }
  size_t backlog() const { return queue_.size(); }
  bool uplink_congested() const { return uplink_congested_; }

 private:
  void SchedulePump();
  void Pump();
  void EnsureRecoveryTimer();
  void RecoveryTick();

  Simulation& sim_;
  DcqcnConfig config_;
  Link* uplink_ = nullptr;
  PacketSink* sender_ = nullptr;
  RingQueue<Packet> queue_;
  double rate_;         // Current pacing rate (pps).
  double target_rate_;  // DCQCN Rt: fast-recovery target.
  double alpha_;        // Congestion estimate in [0, 1].
  int rounds_ = 0;      // Recovery periods since the last CNP.
  SimTime next_tx_ = 0;
  bool pump_scheduled_ = false;
  bool recovery_scheduled_ = false;
  bool uplink_congested_ = false;
  uint64_t cnps_ = 0;
  uint64_t paced_sent_ = 0;
  uint64_t pacer_dropped_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_NET_FLOW_CONTROL_H_
