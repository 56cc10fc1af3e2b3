#include "src/net/link.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/sim/sharded.h"

namespace incod {

static_assert(sizeof(Link*) + sizeof(int) + sizeof(bool) <= InlineEvent::kInlineCapacity,
              "Pause flip events must stay inline");

Link::Link(Simulation& sim, Config config, std::string name)
    : sim_(sim), config_(config), name_(std::move(name)) {
  if (config_.gigabits_per_second <= 0) {
    throw std::invalid_argument("Link: rate must be > 0");
  }
  if (config_.flow.pfc &&
      config_.flow.pause_low_watermark >= config_.flow.pause_high_watermark) {
    // The congestion latch would clear right after it sets: a pause/resume
    // pair per packet instead of holding the sender.
    throw std::invalid_argument("Link " + name_ +
                                ": PFC pause_low_watermark must be < pause_high_watermark");
  }
}

void Link::Connect(PacketSink* end_a, PacketSink* end_b) {
  ends_[0] = end_a;
  ends_[1] = end_b;
  dir_[0].to = end_a;
  dir_[1].to = end_b;
}

void Link::BindShards(ShardedSimulation& sharded, int shard_a, int shard_b) {
  sharded_ = &sharded;
  // dir_[i] carries traffic toward ends_[i]; its sender is the other end.
  dir_[0].drive = &sharded.shard(shard_b);
  dir_[1].drive = &sharded.shard(shard_a);
  if (shard_a == shard_b) {
    return;
  }
  if (config_.propagation_delay <= 0) {
    throw std::invalid_argument("Link " + name_ +
                                ": a cross-shard link needs propagation_delay > 0 "
                                "(it bounds the conservative lookahead)");
  }
  sharded.RegisterCrossShardLatency(config_.propagation_delay);
  dir_[0].cross = true;
  dir_[0].src_shard = shard_b;
  dir_[0].dst_shard = shard_a;
  dir_[1].cross = true;
  dir_[1].src_shard = shard_a;
  dir_[1].dst_shard = shard_b;
}

SimDuration Link::SerializationDelay(uint32_t bytes) const {
  const double bits = static_cast<double>(bytes) * 8.0;
  const double seconds = bits / (config_.gigabits_per_second * 1e9);
  return SecondsF(seconds);
}

int Link::IndexToward(const PacketSink* to) const {
  if (to == ends_[0]) {
    return 0;
  }
  if (to == ends_[1]) {
    return 1;
  }
  throw std::invalid_argument("Link: sink not connected to " + name_);
}

void Link::PutOnWire(int dir, SimTime at, Packet&& pkt) {
  Direction& d = dir_[dir];
  ++d.posted;
  // at >= now + propagation >= now + lookahead, so a cross-shard post always
  // satisfies the conservative bound.
  PostAcross(d, d.src_shard, d.dst_shard, at, Deliver{this, dir, std::move(pkt)});
}

template <typename Event>
void Link::PostAcross(const Direction& d, int from_shard, int to_shard, SimTime at,
                      Event&& event) {
  if (d.cross) {
    sharded_->PostCrossShard(from_shard, to_shard, at, std::forward<Event>(event));
  } else {
    DriveSim(d).ScheduleAt(at, std::forward<Event>(event));
  }
}

void Link::CompleteDelivery(int dir, Packet&& pkt) {
  // Runs in the receiver's shard; the sender never touches these fields.
  Direction& d = dir_[dir];
  if (d.rx_down) {
    // The cable went down while this packet was in flight: lost on the
    // wire, never handed to the sink.
    ++d.dropped_down_rx;
  } else if (!d.to->alive()) {
    // The receiving node died: the frame arrives at a dead port and is
    // dropped, not silently serviced.
    ++d.dropped_dead;
  } else {
    ++d.delivered;
    d.to->Receive(std::move(pkt));
  }
}

int Link::IndexFrom(const PacketSink* from) const {
  if (ends_[0] == nullptr || ends_[1] == nullptr) {
    throw std::logic_error("Link::Send before Connect on " + name_);
  }
  const int index = (from == ends_[0]) ? 1 : (from == ends_[1]) ? 0 : -1;
  if (index < 0) {
    throw std::invalid_argument("Link::Send: sender not connected to " + name_);
  }
  return index;
}

void Link::Send(const PacketSink* from, Packet&& packet) {
  const int index = IndexFrom(from);
  SendFrom(index, DriveSim(dir_[index]).Now(), std::move(packet));
}

void Link::SendAt(const PacketSink* from, SimTime ready, Packet&& packet) {
  SendFrom(IndexFrom(from), ready, std::move(packet));
}

void Link::SendFrom(int index, SimTime ready, Packet&& packet) {
  Direction& d = dir_[index];
  Simulation& drive = DriveSim(d);
  const SimTime now = drive.Now();
  if (ready < now || ready < d.last_ready) {
    // Accepting it would rewind the serializer past packets already
    // settled: the FIFO would reorder.
    throw std::logic_error("Link::SendAt on " + name_ + ": ready tick " +
                           std::to_string(ready) + " before " +
                           std::to_string(std::max(now, d.last_ready)));
  }
  d.last_ready = ready;
  if (ready > now &&
      (config_.flow.pfc || d.relays_pending > 0 || FlipWithin(d, now, ready))) {
    ++d.relays_pending;
    drive.ScheduleAt(ready, Relay{this, index, std::move(packet)});
    return;
  }
  Accept(index, ready, std::move(packet));
}

bool Link::FlipWithin(Direction& d, SimTime now, SimTime ready) {
  while (d.next_flip < d.flips.size() && d.flips[d.next_flip] < now) {
    ++d.next_flip;
  }
  return d.next_flip < d.flips.size() && d.flips[d.next_flip] <= ready;
}

void Link::CompleteRelay(int dir, Packet&& packet) {
  Direction& d = dir_[dir];
  --d.relays_pending;
  Accept(dir, DriveSim(d).Now(), std::move(packet));
}

void Link::Accept(int index, SimTime ready, Packet&& packet) {
  Direction& d = dir_[index];
  if (d.tx_down) {
    // Cable is down at the sender: refuse the packet at the NIC, like a
    // carrier-loss TX error. Counted separately from queue-overflow drops.
    ++d.dropped_down_tx;
    return;
  }
  if (config_.flow.pfc) {
    // Paced links relay future-dated sends, so this is ready == now.
    SendPaced(index, std::move(packet));
    return;
  }
  // The backlog counted against the capacity is the packets whose
  // serialization has not started by `ready`; the packet occupying the
  // transmitter and packets already on the wire do not count. Service
  // starts are non-decreasing, so the starts <= ready sit at the front.
  while (!d.waiting_starts.empty() && d.waiting_starts.front() <= ready) {
    d.waiting_starts.pop_front();
  }
  if (d.waiting_starts.size() >= config_.queue_capacity_packets) {
    ++d.dropped_overflow;
    return;
  }
  const SimTime start = std::max(ready, d.busy_until);
  const SimDuration ser = SerializationDelay(packet.size_bytes);
  d.busy_until = start + ser;
  d.waiting_starts.push_back(start);
  PutOnWire(index, start + ser + config_.propagation_delay, std::move(packet));
}

void Link::SendPaced(int index, Packet&& packet) {
  Direction& d = dir_[index];
  // In paced mode the waiting backlog is explicit: everything in tx_queue
  // except the packet occupying the serializer.
  const size_t waiting = d.tx_queue.size() - (d.serving ? 1u : 0u);
  if (waiting >= config_.queue_capacity_packets) {
    ++d.dropped_overflow;
    return;
  }
  if (d.peer_paused) {
    // Deferred behind the pause, not lost: it stays queued and delivers
    // after resume. Must never show up in the drop accounting.
    ++d.paused_deferred;
  }
  d.tx_queue.push_back(std::move(packet));
  if (!d.congested &&
      d.tx_queue.size() - (d.serving ? 1u : 0u) >= config_.flow.pause_high_watermark) {
    d.congested = true;
    if (d.listener != nullptr) {
      d.listener->OnLinkCongestion(this, true);
    }
  }
  if (!d.serving && !d.peer_paused) {
    StartService(index);
  }
}

void Link::StartService(int dir) {
  Direction& d = dir_[dir];
  d.serving = true;
  Simulation& drive = DriveSim(d);
  Packet& front = d.tx_queue.front();
  if (config_.flow.ecn && !front.ecn &&
      d.tx_queue.size() >= config_.flow.ecn_threshold_packets) {
    front.ecn = true;
    ++d.ecn_marked;
  }
  drive.ScheduleAt(drive.Now() + SerializationDelay(front.size_bytes),
                   ServeDone{this, dir});
}

void Link::CompleteService(int dir) {
  Direction& d = dir_[dir];
  Packet pkt = std::move(d.tx_queue.front());
  d.tx_queue.pop_front();
  if (d.congested && d.tx_queue.size() <= config_.flow.pause_low_watermark) {
    d.congested = false;
    if (d.listener != nullptr) {
      d.listener->OnLinkCongestion(this, false);
    }
  }
  if (d.tx_down) {
    ++d.dropped_down_tx;
  } else {
    PutOnWire(dir, DriveSim(d).Now() + config_.propagation_delay, std::move(pkt));
  }
  if (!d.tx_queue.empty() && !d.peer_paused) {
    StartService(dir);
  } else {
    d.serving = false;
  }
}

void Link::SetFlowListener(const PacketSink* sender_end, FlowListener* listener) {
  if (!config_.flow.pfc) {
    throw std::logic_error("Link::SetFlowListener on non-PFC link " + name_);
  }
  // The direction `sender_end` transmits on is the one toward the other end.
  dir_[1 - IndexToward(sender_end)].listener = listener;
}

void Link::PauseUpstream(const PacketSink* self, bool paused) {
  if (!config_.flow.pfc) {
    throw std::logic_error("Link::PauseUpstream on non-PFC link " + name_);
  }
  const int index = IndexToward(self);
  const Direction& d = dir_[index];
  // The pause frame travels from `self` (the direction's receiver) back to
  // its sender: one propagation delay, applied as an ordinary event in the
  // sender's shard.
  PostAcross(d, d.dst_shard, d.src_shard, RxSim(d).Now() + config_.propagation_delay,
             PauseFlip{this, index, paused});
}

void Link::ApplyPauseFlip(int dir, bool paused) {
  Direction& d = dir_[dir];
  if (paused) {
    ++d.pause_frames;
  }
  if (paused == d.peer_paused) {
    return;  // Duplicate frame (watermark chatter): idempotent.
  }
  d.peer_paused = paused;
  if (!paused && !d.serving && !d.tx_queue.empty()) {
    StartService(dir);
  }
}

Simulation& Link::RxSim(const Direction& d) {
  // Receiver-side state (rx_down and the dead/rx-drop counters) is owned by
  // the destination shard for cross-shard directions.
  if (d.cross) {
    return sharded_->shard(d.dst_shard);
  }
  return DriveSim(d);
}

void Link::ScheduleAdmin(SimTime at, bool down) {
  if (ends_[0] == nullptr || ends_[1] == nullptr) {
    throw std::logic_error("Link: schedule down/up before Connect on " + name_);
  }
  for (const Direction& d : dir_) {
    const SimTime settled = std::max(DriveSim(d).Now(), d.last_ready);
    if (at < settled) {
      throw std::logic_error("Link " + name_ + ": down/up flip at " + std::to_string(at) +
                             " before tick " + std::to_string(settled) +
                             " the link already settled");
    }
  }
  for (int i = 0; i < 2; ++i) {
    Direction& d = dir_[i];
    d.flips.insert(std::upper_bound(d.flips.begin(), d.flips.end(), at), at);
    // Two flips per direction: the TX flag in the sender's sim, the RX flag
    // in the receiver's — each shard only ever mutates state it owns. Both
    // are plain events, so engine modes stay event-identical.
    DriveSim(d).ScheduleAt(at, [&d, down] { d.tx_down = down; });
    RxSim(d).ScheduleAt(at, [&d, down] { d.rx_down = down; });
  }
}

void Link::ScheduleDown(SimTime at) { ScheduleAdmin(at, true); }

void Link::ScheduleUp(SimTime at) { ScheduleAdmin(at, false); }

uint64_t Link::delivered(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].delivered;
}

uint64_t Link::dropped_overflow(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].dropped_overflow;
}

bool Link::paused(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].peer_paused;
}

uint64_t Link::pause_frames(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].pause_frames;
}

uint64_t Link::ecn_marked(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].ecn_marked;
}

uint64_t Link::paused_deferred(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].paused_deferred;
}

bool Link::link_down(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].tx_down;
}

uint64_t Link::dropped_link_down(const PacketSink* toward) const {
  const Direction& d = dir_[IndexToward(toward)];
  return d.dropped_down_tx + d.dropped_down_rx;
}

uint64_t Link::dropped_to_dead(const PacketSink* toward) const {
  return dir_[IndexToward(toward)].dropped_dead;
}

size_t Link::in_flight(const PacketSink* toward) const {
  const Direction& d = dir_[IndexToward(toward)];
  return d.relays_pending + d.tx_queue.size() +
         static_cast<size_t>(d.posted - (d.delivered + d.dropped_down_rx + d.dropped_dead));
}

}  // namespace incod
