// L2 switch with a programmable forwarding table.
//
// Forwarding is by destination NodeId, with an overlay of priority rules
// matching (proto, dst) pairs. The Paxos leader-migration controller (§9.2)
// performs its shift exactly as in the paper: "the controller modifies
// switch forwarding rules to send messages to the new leader" — here, by
// installing a rule that redirects AppProto::kPaxos traffic addressed to the
// leader service address toward a different port.
//
// The forwarding latency rides on the packet, not on an event: Forward hands
// each packet to its egress link with Link::SendAt(now + latency), and the
// link serializes it as of that tick. The latency is fixed, so each egress
// direction sees non-decreasing ready ticks, as SendAt requires; the link
// itself keeps a relay event at the ready tick only on PFC ports, around a
// scheduled down/up flip and behind a pending relay (see link.h). Pipeline
// replies of a derived ASIC re-enter Receive and take the same path.
#ifndef INCOD_SRC_NET_SWITCH_H_
#define INCOD_SRC_NET_SWITCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"

namespace incod {

// PFC pause propagation: for ports attached with a flow-enabled link, the
// switch listens to its own egress backlog. While any egress port is
// congested (high watermark), every *other* flow-enabled port's upstream
// sender is paused — the classic PFC hop-by-hop spread that turns one
// overloaded server into head-of-line blocking for its rack neighbors. The
// congested port's own upstream stays unpaused so its drain (and replies)
// keep flowing.
class L2Switch : public PacketSink, public FlowListener {
 public:
  struct ForwardingRule {
    AppProto proto = AppProto::kRaw;
    std::optional<NodeId> match_dst;  // nullopt: match any destination.
    int out_port = -1;
    std::optional<NodeId> rewrite_dst;  // Optionally rewrites the destination.
    int priority = 0;                   // Higher wins.
  };

  L2Switch(Simulation& sim, std::string name,
           SimDuration forwarding_latency = Nanoseconds(800));

  // Attaches a link to the next port; returns the port index. The switch
  // must be one of the link's endpoints (Connect the link before/after).
  int AttachLink(Link* link);

  // Static route: packets for `node` leave via `port`.
  void AddRoute(NodeId node, int port);

  // Uplink / default route: packets with no matching rule or static route
  // leave via `port` instead of being dropped. Used by rack ToR switches to
  // send non-local traffic to the spine. Unset (the default) preserves the
  // drop-and-count behavior.
  void SetDefaultRoute(int port);

  // Installs (or replaces, by identical proto+match_dst+priority) a rule.
  void InstallRule(const ForwardingRule& rule);
  // Removes all rules matching proto (+dst if given). Returns count removed.
  size_t RemoveRules(AppProto proto, std::optional<NodeId> match_dst = std::nullopt);

  void Receive(Packet packet) override;
  std::string SinkName() const override { return name_; }

  // FlowListener: one of this switch's egress directions crossed a pause
  // watermark. Recomputes which upstream senders must be paused.
  void OnLinkCongestion(Link* link, bool congested) override;

  Simulation& sim() { return sim_; }

  uint64_t forwarded() const { return forwarded_.value(); }
  uint64_t dropped_no_route() const { return dropped_no_route_.value(); }
  size_t num_ports() const { return ports_.size(); }
  size_t num_rules() const { return rules_.size(); }
  // PFC propagation state/counters.
  size_t congested_ports() const;
  bool upstream_paused(int port) const;
  uint64_t pause_frames_sent() const { return pauses_sent_.value(); }

 protected:
  // Hook for derived devices (the programmable ASIC) to intercept packets
  // before forwarding. Returns true if the packet was consumed.
  virtual bool ProcessInPipeline(Packet& packet);

  Simulation& sim_;

 private:
  void Forward(Packet&& packet, int port);
  void UpdateUpstreamPauses();

  std::string name_;
  SimDuration forwarding_latency_;
  std::vector<Link*> ports_;
  int default_port_ = -1;
  std::unordered_map<NodeId, int> routes_;
  std::vector<ForwardingRule> rules_;
  Counter forwarded_;
  Counter dropped_no_route_;
  // Per-port PFC state (parallel to ports_).
  std::vector<bool> congested_egress_;
  std::vector<bool> upstream_paused_;
  Counter pauses_sent_;
};

}  // namespace incod

#endif  // INCOD_SRC_NET_SWITCH_H_
