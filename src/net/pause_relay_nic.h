// The two-port shape shared by every NIC that sits between the network and a
// host (FpgaNic, SmartNic, ConventionalNic): a network-side link, a host-side
// (PCIe) link, and the PFC relay between them. When the host link's backlog
// toward the host crosses its high watermark — the host stopped draining —
// the NIC asserts pause out of its network port, and resumes at the low
// watermark, so backpressure walks from the host to the ToR hop by hop.
#ifndef INCOD_SRC_NET_PAUSE_RELAY_NIC_H_
#define INCOD_SRC_NET_PAUSE_RELAY_NIC_H_

#include <cstdint>

#include "src/net/flow_control.h"
#include "src/net/link.h"
#include "src/net/packet.h"

namespace incod {

class PauseRelayNic : public PacketSink, public FlowListener {
 public:
  // Attach the network-side and host-side links (both must have this NIC as
  // one endpoint). A PFC host link reports its congestion to this NIC.
  void SetNetworkLink(Link* link) { net_link_ = link; }
  void SetHostLink(Link* link);

  // FlowListener: only host-link congestion is relayed, and only onto a PFC
  // network link; network-side congestion is the switch's problem.
  void OnLinkCongestion(Link* link, bool congested) override;
  // Pause assertions relayed onto the network link (resumes not counted).
  uint64_t pause_propagations() const { return pause_propagations_; }

 protected:
  Link* net_link_ = nullptr;
  Link* host_link_ = nullptr;

 private:
  uint64_t pause_propagations_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_NET_PAUSE_RELAY_NIC_H_
