#include "src/net/pause_relay_nic.h"

namespace incod {

void PauseRelayNic::SetHostLink(Link* link) {
  host_link_ = link;
  if (link != nullptr && link->config().flow.pfc) {
    link->SetFlowListener(this, this);
  }
}

void PauseRelayNic::OnLinkCongestion(Link* link, bool congested) {
  if (link != host_link_ || net_link_ == nullptr || !net_link_->config().flow.pfc) {
    return;
  }
  if (congested) {
    ++pause_propagations_;
  }
  net_link_->PauseUpstream(this, congested);
}

}  // namespace incod
