#include "src/net/switch.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

L2Switch::L2Switch(Simulation& sim, std::string name, SimDuration forwarding_latency)
    : sim_(sim), name_(std::move(name)), forwarding_latency_(forwarding_latency) {}

int L2Switch::AttachLink(Link* link) {
  ports_.push_back(link);
  congested_egress_.push_back(false);
  upstream_paused_.push_back(false);
  if (link->config().flow.pfc) {
    link->SetFlowListener(this, this);
  }
  return static_cast<int>(ports_.size()) - 1;
}

void L2Switch::AddRoute(NodeId node, int port) {
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) {
    throw std::out_of_range("L2Switch::AddRoute: bad port");
  }
  routes_[node] = port;
}

void L2Switch::SetDefaultRoute(int port) {
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) {
    throw std::out_of_range("L2Switch::SetDefaultRoute: bad port");
  }
  default_port_ = port;
}

void L2Switch::InstallRule(const ForwardingRule& rule) {
  if (rule.out_port < 0 || static_cast<size_t>(rule.out_port) >= ports_.size()) {
    throw std::out_of_range("L2Switch::InstallRule: bad port");
  }
  for (auto& r : rules_) {
    if (r.proto == rule.proto && r.match_dst == rule.match_dst &&
        r.priority == rule.priority) {
      r = rule;
      return;
    }
  }
  rules_.push_back(rule);
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const ForwardingRule& a, const ForwardingRule& b) {
                     return a.priority > b.priority;
                   });
}

size_t L2Switch::RemoveRules(AppProto proto, std::optional<NodeId> match_dst) {
  const size_t before = rules_.size();
  rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                              [&](const ForwardingRule& r) {
                                if (r.proto != proto) {
                                  return false;
                                }
                                return !match_dst.has_value() || r.match_dst == match_dst;
                              }),
               rules_.end());
  return before - rules_.size();
}

bool L2Switch::ProcessInPipeline(Packet& packet) {
  (void)packet;
  return false;
}

void L2Switch::Receive(Packet packet) {
  if (ProcessInPipeline(packet)) {
    return;
  }
  // Rule overlay first (highest priority first).
  for (const auto& r : rules_) {
    if (r.proto != packet.proto) {
      continue;
    }
    if (r.match_dst.has_value() && *r.match_dst != packet.dst) {
      continue;
    }
    if (r.rewrite_dst.has_value()) {
      packet.dst = *r.rewrite_dst;
    }
    Forward(std::move(packet), r.out_port);
    return;
  }
  auto it = routes_.find(packet.dst);
  if (it == routes_.end()) {
    if (default_port_ >= 0) {
      Forward(std::move(packet), default_port_);
      return;
    }
    dropped_no_route_.Increment();
    return;
  }
  Forward(std::move(packet), it->second);
}

void L2Switch::OnLinkCongestion(Link* link, bool congested) {
  for (size_t p = 0; p < ports_.size(); ++p) {
    if (ports_[p] == link) {
      congested_egress_[p] = congested;
    }
  }
  UpdateUpstreamPauses();
}

void L2Switch::UpdateUpstreamPauses() {
  bool any = false;
  for (size_t p = 0; p < ports_.size(); ++p) {
    any = any || congested_egress_[p];
  }
  // Pause (or resume) the upstream sender of every flow-enabled port that is
  // not itself congested, in ascending port order for determinism.
  for (size_t p = 0; p < ports_.size(); ++p) {
    if (!ports_[p]->config().flow.pfc) {
      continue;
    }
    const bool want = any && !congested_egress_[p];
    if (want == static_cast<bool>(upstream_paused_[p])) {
      continue;
    }
    upstream_paused_[p] = want;
    if (want) {
      pauses_sent_.Increment();
    }
    ports_[p]->PauseUpstream(this, want);
  }
}

size_t L2Switch::congested_ports() const {
  size_t n = 0;
  for (const bool c : congested_egress_) {
    n += c ? 1u : 0u;
  }
  return n;
}

bool L2Switch::upstream_paused(int port) const {
  return upstream_paused_.at(static_cast<size_t>(port));
}

void L2Switch::Forward(Packet&& packet, int port) {
  forwarded_.Increment();
  ports_[static_cast<size_t>(port)]->SendAt(this, sim_.Now() + forwarding_latency_,
                                            std::move(packet));
}

}  // namespace incod
