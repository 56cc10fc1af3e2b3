// Point-to-point full-duplex link.
//
// Models a 10GE (or faster) cable: serialization delay from the configured
// rate, fixed propagation delay, and a bounded per-direction FIFO that drops
// on overflow (UDP semantics — the applications tolerate loss).
//
// One wire: every accepted packet is serialized, then put on the wire as
// one delivery event that carries it, then received. The event is queued in
// the sender's Simulation, or posted through the ShardedSimulation mailbox
// when the two ends live in different shards; either way the Packet rides
// inline in the event (no closure allocation) and deliveries of one
// direction run in send order.
//
// Future-dated sends (SendAt): a caller whose packet reaches the link after
// a fixed delay — a switch's forwarding pipeline, a NIC's PCIe/driver path —
// hands it over at once with its `ready` tick. The link applies every Send
// rule as of `ready` and posts the one delivery event now, so the delay
// costs no event of its own. A direction's ready ticks must not decrease
// (Send counts as ready = now): the backlog and serializer state are only
// ever advanced, never rewound, so a caller mixing delays on one direction
// throws std::logic_error instead of reordering the FIFO. The link falls
// back to relaying the packet through one event at `ready` when what
// happens at `ready` is not known at the send: the link is paced (the
// receiver's pause state at `ready` matters), one of the direction's
// setup-time down/up flips falls in [now, ready], or an earlier relay on
// the direction is still pending (so the FIFO keeps send order).
//
// PFC paced mode (config.flow.pfc): the direction instead runs a serve loop
// over an explicit transmit queue — one ServeDone event per packet — so the
// serializer can stop at a packet boundary when the receiver asserts pause.
// Pause/resume travel as ordinary scheduled events delayed by the
// propagation time (cross-shard via the mailbox path), the sender-side
// FlowListener hears high/low watermark crossings, and packets entering the
// serializer over the ECN threshold leave with packet.ecn set. Packets
// accepted while paused are deferred (counted in paused_deferred), never
// dropped — only a genuinely full waiting queue drops (dropped_overflow).
#ifndef INCOD_SRC_NET_LINK_H_
#define INCOD_SRC_NET_LINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/net/flow_control.h"
#include "src/net/packet.h"
#include "src/sim/ring_queue.h"
#include "src/sim/simulation.h"

namespace incod {

class ShardedSimulation;

class Link {
 public:
  struct Config {
    double gigabits_per_second = 10.0;
    SimDuration propagation_delay = Nanoseconds(500);
    size_t queue_capacity_packets = 1024;
    // PFC/ECN flow control; flow.pfc switches the link into paced mode.
    LinkFlowConfig flow;
  };

  Link(Simulation& sim, Config config, std::string name = "link");

  // Both endpoints must be set before Send() is used.
  void Connect(PacketSink* end_a, PacketSink* end_b);

  // Declares which shard each endpoint lives in (end_a/end_b as passed to
  // Connect). When the shards differ, the link becomes a cross-shard
  // boundary: sends run in the sender's shard, each packet's delivery event
  // is posted through the ShardedSimulation mailboxes stamped with its
  // delivery tick, and the link registers its propagation delay (which must
  // be > 0) as a cross-shard latency — the conservative lookahead bound.
  void BindShards(ShardedSimulation& sharded, int shard_a, int shard_b);

  // Sends a packet from one endpoint toward the other. `from` must be one of
  // the two connected endpoints. Drops when the backlog of packets *waiting*
  // for the serializer reaches queue_capacity_packets; the packet currently
  // being serialized occupies the transmitter, not the queue.
  void Send(const PacketSink* from, Packet&& packet);
  // Copying form, for callers that keep their packet.
  void Send(const PacketSink* from, const Packet& packet) { Send(from, Packet(packet)); }
  // Future-dated Send: the packet's bits reach the serializer at `ready`
  // (>= now), and it is accepted, queued or dropped exactly as a Send at
  // `ready` would be (see the header comment). Send is SendAt(now). Throws
  // std::logic_error when `ready` is in the past or before a ready tick the
  // direction already accepted.
  void SendAt(const PacketSink* from, SimTime ready, Packet&& packet);

  // Fault layer: takes the cable down / brings it back up at `at`, in both
  // directions. While down, new sends are refused at the sender and packets
  // already in flight are dropped at their delivery tick; both are counted
  // in dropped_link_down. The flips are ordinary scheduled events (one per
  // direction endpoint, in the shard that owns that side's state), so
  // single-queue and sharded runs stay event-identical. Setup-time API:
  // call before the simulation runs, with a future `at`. SendAt decides a
  // packet's down state when it is sent, so a flip must be known by then:
  // throws std::logic_error when `at` is in the past or before a ready tick
  // either direction already accepted.
  void ScheduleDown(SimTime at);
  void ScheduleUp(SimTime at);

  // --- PFC flow control (requires config.flow.pfc) ---

  // Registers the sender-side congestion listener for the direction *away
  // from* `sender_end` (i.e. the direction that endpoint transmits on).
  // Fires synchronously from the shard owning that direction's serializer.
  void SetFlowListener(const PacketSink* sender_end, FlowListener* listener);

  // Emits a PFC pause (paused=true) or resume (false) frame from `self`
  // toward the peer transmitting at it: after one propagation delay the
  // direction toward `self` stops (or restarts) serializing at the next
  // packet boundary. The flip is an ordinary scheduled event in the sender's
  // shard — cross-shard directions post it through the mailbox path — so
  // engine modes stay event-identical. Must be called from the shard that
  // owns `self`'s side of the link.
  void PauseUpstream(const PacketSink* self, bool paused);

  // Whether the direction toward the given endpoint is currently paused by
  // the receiver (i.e. that endpoint asserted pause and it has taken effect).
  bool paused(const PacketSink* toward) const;
  // Pause assertions that took effect on the direction.
  uint64_t pause_frames(const PacketSink* toward) const;
  // Packets ECN-marked entering the serializer.
  uint64_t ecn_marked(const PacketSink* toward) const;
  // Packets accepted into the transmit queue while the peer had the
  // direction paused: deferred, later delivered — never counted as drops.
  uint64_t paused_deferred(const PacketSink* toward) const;

  uint64_t delivered(const PacketSink* toward) const;
  // Packets dropped because the waiting queue was at capacity.
  // Paused-then-delivered packets never count here (they show up in
  // paused_deferred instead).
  uint64_t dropped_overflow(const PacketSink* toward) const;
  uint64_t total_dropped() const {
    return dir_[0].dropped_overflow + dir_[1].dropped_overflow;
  }
  // Whether the direction toward the given endpoint currently refuses sends.
  bool link_down(const PacketSink* toward) const;
  // Packets refused or dropped because the link was down (send-side refusals
  // plus in-flight packets whose delivery tick fell inside a down window).
  uint64_t dropped_link_down(const PacketSink* toward) const;
  // Packets dropped at delivery because the receiving sink was dead.
  uint64_t dropped_to_dead(const PacketSink* toward) const;
  // Packets accepted but not yet delivered (relayed toward their ready
  // tick, in service, queued, or on the wire) toward the given endpoint:
  // pending relays plus the paced transmit queue plus what was put on the
  // wire minus what the receiver has delivered or dropped.
  size_t in_flight(const PacketSink* toward) const;

  const std::string& name() const { return name_; }
  const Config& config() const { return config_; }

 private:
  struct Direction {
    PacketSink* to = nullptr;
    SimTime busy_until = 0;
    uint64_t delivered = 0;
    uint64_t dropped_overflow = 0;  // Waiting queue at capacity.
    // Unpaced mode: service-start times of accepted packets. Entries with
    // service_start > now are the waiting backlog held against
    // queue_capacity_packets; the packets themselves travel inside their
    // delivery events.
    RingQueue<SimTime> waiting_starts;
    // Packets put on the wire (sender-side), for in_flight().
    uint64_t posted = 0;
    // SendAt bookkeeping (sender-side): the latest ready tick accepted,
    // relay events not yet fired, and the direction's setup-time down/up
    // flip ticks in order, from next_flip on not yet passed.
    SimTime last_ready = 0;
    uint64_t relays_pending = 0;
    std::vector<SimTime> flips;
    size_t next_flip = 0;
    // PFC paced mode (config.flow.pfc). tx_queue holds packets not yet on
    // the wire, front included while it is being serialized (`serving`).
    // All of this is sender-side state.
    RingQueue<Packet> tx_queue;
    bool serving = false;
    bool peer_paused = false;  // Receiver asserted pause; stop at boundary.
    bool congested = false;    // Watermark latch driving the FlowListener.
    FlowListener* listener = nullptr;
    uint64_t paused_deferred = 0;  // Accepted while paused (deferred, not dropped).
    uint64_t pause_frames = 0;     // Pause assertions that took effect.
    uint64_t ecn_marked = 0;
    // Fault state. tx_down lives sender-side (checked in Send), rx_down
    // receiver-side (checked at delivery) — split so cross-shard flips only
    // ever touch state owned by the shard the flip event runs in.
    bool tx_down = false;
    bool rx_down = false;
    uint64_t dropped_down_tx = 0;  // Sends refused while down (sender-side).
    uint64_t dropped_down_rx = 0;  // In-flight dropped at delivery (receiver-side).
    uint64_t dropped_dead = 0;     // Delivery suppressed: sink not alive().
    // Shard routing (BindShards). `drive` is the sender-side Simulation for
    // this direction; null means the construction-time sim_ (unsharded).
    Simulation* drive = nullptr;
    bool cross = false;
    int src_shard = -1;
    int dst_shard = -1;
  };
  // A packet on the wire, delivered at the receiver. It carries the packet
  // and must stay inline in the event engine: no allocation per hop.
  struct Deliver {
    Link* link;
    int dir;
    Packet pkt;
    void operator()() { link->CompleteDelivery(dir, std::move(pkt)); }
  };
  static_assert(sizeof(Deliver) <= InlineEvent::kInlineCapacity &&
                    std::is_nothrow_move_constructible_v<Deliver>,
                "Link delivery events must stay inline");
  // A future-dated send the link cannot settle early (see SendAt): the
  // packet reaches the accept routine at its ready tick.
  struct Relay {
    Link* link;
    int dir;
    Packet pkt;
    void operator()() { link->CompleteRelay(dir, std::move(pkt)); }
  };
  static_assert(sizeof(Relay) <= InlineEvent::kInlineCapacity &&
                    std::is_nothrow_move_constructible_v<Relay>,
                "Link relay events must stay inline");
  // Paced mode: the serializer finished the tx_queue front.
  struct ServeDone {
    Link* link;
    int dir;
    void operator()() const { link->CompleteService(dir); }
  };
  // A pause/resume frame arriving at the direction's sender.
  struct PauseFlip {
    Link* link;
    int dir;
    bool paused;
    void operator()() const { link->ApplyPauseFlip(dir, paused); }
  };

  SimDuration SerializationDelay(uint32_t bytes) const;
  int IndexToward(const PacketSink* to) const;
  // Index of the direction `from` transmits on; throws if not connected.
  int IndexFrom(const PacketSink* from) const;
  // The one accept routine behind Send and SendAt: relays the packet to
  // `ready` when the link cannot settle it now, else Accept.
  void SendFrom(int index, SimTime ready, Packet&& packet);
  // Whether a setup-time flip of `d` falls in [now, ready].
  static bool FlipWithin(Direction& d, SimTime now, SimTime ready);
  void CompleteRelay(int dir, Packet&& packet);
  // Applies the send rules as of `ready`: refusal while down, paced
  // enqueue, or the backlog/overflow check and one Deliver event.
  void Accept(int index, SimTime ready, Packet&& packet);
  void SendPaced(int index, Packet&& packet);
  void StartService(int dir);
  void CompleteService(int dir);
  void ApplyPauseFlip(int dir, bool paused);
  // Puts a serialized packet on the wire: one Deliver event at `at`.
  void PutOnWire(int dir, SimTime at, Packet&& pkt);
  // Queues `event` at `at` on the other side of direction `d`: posted from
  // `from_shard` to `to_shard` when the direction crosses shards, else in
  // its one Simulation. The only datapath code that reads `d.cross`.
  template <typename Event>
  void PostAcross(const Direction& d, int from_shard, int to_shard, SimTime at, Event&& event);
  void CompleteDelivery(int dir, Packet&& pkt);
  void ScheduleAdmin(SimTime at, bool down);
  Simulation& RxSim(const Direction& d);
  Simulation& DriveSim(const Direction& d) { return d.drive != nullptr ? *d.drive : sim_; }

  Simulation& sim_;
  ShardedSimulation* sharded_ = nullptr;
  Config config_;
  std::string name_;
  PacketSink* ends_[2] = {nullptr, nullptr};
  Direction dir_[2];  // dir_[i] carries traffic toward ends_[i].
};

}  // namespace incod

#endif  // INCOD_SRC_NET_LINK_H_
