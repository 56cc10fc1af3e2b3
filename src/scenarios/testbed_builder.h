// Shared testbed assembly.
//
// The KVS, DNS, and Paxos testbeds (and any rack-scale composition) all
// build the same ingredients: a wall power meter, servers with calibrated
// curves, offload devices, PCIe and 10GE links. TestbedBuilder owns those
// components and centralizes the wiring idioms so a new scenario is a short
// composition instead of another copy-pasted testbed.
#ifndef INCOD_SRC_SCENARIOS_TESTBED_BUILDER_H_
#define INCOD_SRC_SCENARIOS_TESTBED_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/device/conventional_nic.h"
#include "src/device/fpga_nic.h"
#include "src/device/smartnic.h"
#include "src/device/switch_asic.h"
#include "src/host/server.h"
#include "src/net/topology.h"
#include "src/power/meter.h"
#include "src/sim/simulation.h"
#include "src/workload/client.h"

namespace incod {

class TestbedBuilder {
 public:
  explicit TestbedBuilder(Simulation& sim, SimDuration meter_period = Milliseconds(1));

  // Sharded build: components default into `shard` of the ShardedSimulation
  // (the rack's home shard); AddLoadClient can place clients in other
  // shards, making their links the cross-shard boundaries. The wall meter
  // lives in `shard`, so every metered component must stay there too.
  TestbedBuilder(ShardedSimulation& sharded, int shard,
                 SimDuration meter_period = Milliseconds(1));

  // Link presets shared by every testbed (§4.1 topology family).
  static Link::Config TenGigLink(SimDuration propagation_delay = Nanoseconds(500));
  // PCIe + DMA + driver + kernel wakeup: crossing into the host costs
  // microseconds (§9.5) — what makes a hardware miss ~an order of magnitude
  // above a cache hit.
  static Link::Config PcieLink(SimDuration propagation_delay = Nanoseconds(900));

  Simulation& sim() { return sim_; }
  Topology& topology() { return topology_; }
  WallPowerMeter& meter() { return *meter_; }
  // Starts wall-power sampling; call once the metered set is complete.
  void StartMeter() { meter_->Start(); }

  // --- Components (owned by the builder; `metered` joins the SHW-3A set) ---
  Server* AddServer(ServerConfig config, bool metered = true);
  FpgaNic* AddFpgaNic(FpgaNicConfig config, bool metered = true);
  ConventionalNic* AddConventionalNic(ConventionalNicConfig config, bool metered = true);
  SmartNic* AddSmartNic(SmartNicPreset preset, SmartNicDeviceConfig config,
                        bool metered = true);
  SwitchAsic* AddSwitchAsic(SwitchAsicConfig config, bool metered = false);
  L2Switch* AddL2Switch(std::string name);
  // Auxiliary host that must never bottleneck and is never metered
  // (acceptors, learners): fast stack costs, synthetic curve, attached to
  // a switch port with a route for `node` over a link named `link_name`.
  Server* AddAuxServer(L2Switch* sw, NodeId node, std::string name, int cores,
                       std::string link_name);
  // `shard` >= 0 places the client in that shard (sharded builds only);
  // -1 keeps it in the builder's default shard.
  LoadClient* AddLoadClient(LoadClientConfig config,
                            std::unique_ptr<ArrivalProcess> arrival,
                            RequestFactory factory, int shard = -1);

  // --- Wiring idioms ---
  // device --PCIe-- server: sets the device's host link and the server's
  // uplink. Works for any device with SetHostLink (FPGA NIC, conventional
  // NIC, SmartNIC).
  template <typename Device>
  Link* ConnectPcie(Device* device, Server* server, Link::Config config = PcieLink(),
                    std::string name = "pcie") {
    Link* link = topology_.Connect(device, server, config, std::move(name));
    device->SetHostLink(link);
    server->SetUplink(link);
    return link;
  }

  // client --10GE-- device ingress: sets the client's uplink and the
  // device's network link.
  template <typename Device>
  Link* ConnectClient(LoadClient* client, Device* device,
                      Link::Config config = TenGigLink(),
                      std::string name = "client-10ge") {
    Link* link = topology_.Connect(client, device, config, std::move(name));
    client->SetUplink(link);
    device->SetNetworkLink(link);
    return link;
  }

  // switch --10GE-- device: attaches a switch port, routes `nodes` via it,
  // and sets the device's network link.
  template <typename Device>
  int ConnectToSwitchPort(L2Switch* sw, Device* device,
                          const std::vector<NodeId>& nodes,
                          Link::Config config = TenGigLink(),
                          std::string name = "10ge") {
    Link* link = topology_.Connect(sw, device, config, std::move(name));
    const int port = sw->AttachLink(link);
    for (NodeId node : nodes) {
      sw->AddRoute(node, port);
    }
    device->SetNetworkLink(link);
    return port;
  }

 private:
  template <typename T, typename... Args>
  T* Own(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    components_.push_back(std::move(owned));
    return raw;
  }

  Simulation& sim_;
  ShardedSimulation* sharded_ = nullptr;
  int default_shard_ = 0;
  Topology topology_;
  std::unique_ptr<WallPowerMeter> meter_;
  std::vector<std::unique_ptr<PacketSink>> components_;
};

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_TESTBED_BUILDER_H_
