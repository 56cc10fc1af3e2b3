#include "src/scenarios/testbed_builder.h"

#include <stdexcept>

namespace incod {

TestbedBuilder::TestbedBuilder(Simulation& sim, SimDuration meter_period)
    : sim_(sim), topology_(sim) {
  meter_ = std::make_unique<WallPowerMeter>(sim_, meter_period);
}

TestbedBuilder::TestbedBuilder(ShardedSimulation& sharded, int shard,
                               SimDuration meter_period)
    : sim_(sharded.shard(shard)), sharded_(&sharded), default_shard_(shard),
      topology_(sim_) {
  topology_.SetSharded(&sharded, shard);
  meter_ = std::make_unique<WallPowerMeter>(sim_, meter_period);
}

Link::Config TestbedBuilder::TenGigLink(SimDuration propagation_delay) {
  Link::Config config;
  config.gigabits_per_second = 10.0;
  config.propagation_delay = propagation_delay;
  return config;
}

Link::Config TestbedBuilder::PcieLink(SimDuration propagation_delay) {
  Link::Config config;
  config.gigabits_per_second = 32.0;  // PCIe gen3 x4-ish effective.
  config.propagation_delay = propagation_delay;
  return config;
}

Server* TestbedBuilder::AddServer(ServerConfig config, bool metered) {
  Server* server = Own<Server>(sim_, std::move(config));
  if (metered) {
    meter_->Attach(server);
  }
  return server;
}

FpgaNic* TestbedBuilder::AddFpgaNic(FpgaNicConfig config, bool metered) {
  FpgaNic* nic = Own<FpgaNic>(sim_, std::move(config));
  if (metered) {
    meter_->Attach(nic);
  }
  return nic;
}

ConventionalNic* TestbedBuilder::AddConventionalNic(ConventionalNicConfig config,
                                                    bool metered) {
  ConventionalNic* nic = Own<ConventionalNic>(sim_, std::move(config));
  if (metered) {
    meter_->Attach(nic);
  }
  return nic;
}

SmartNic* TestbedBuilder::AddSmartNic(SmartNicPreset preset, SmartNicDeviceConfig config,
                                      bool metered) {
  SmartNic* nic = Own<SmartNic>(sim_, std::move(preset), std::move(config));
  if (metered) {
    meter_->Attach(nic);
  }
  return nic;
}

SwitchAsic* TestbedBuilder::AddSwitchAsic(SwitchAsicConfig config, bool metered) {
  SwitchAsic* asic = Own<SwitchAsic>(sim_, std::move(config));
  if (metered) {
    meter_->Attach(asic);
  }
  return asic;
}

L2Switch* TestbedBuilder::AddL2Switch(std::string name) {
  return Own<L2Switch>(sim_, std::move(name));
}

Server* TestbedBuilder::AddAuxServer(L2Switch* sw, NodeId node, std::string name,
                                     int cores, std::string link_name) {
  ServerConfig config;
  config.name = std::move(name);
  config.node = node;
  config.num_cores = cores;
  config.power_curve = I7SyntheticCurve();
  config.stack_rx_cost = Nanoseconds(100);  // Aux boxes must never bottleneck.
  config.stack_tx_cost = Nanoseconds(50);
  Server* server = AddServer(std::move(config), /*metered=*/false);
  Link* link = topology_.ConnectToSwitch(sw, server, node, TenGigLink(), std::move(link_name));
  server->SetUplink(link);
  return server;
}

LoadClient* TestbedBuilder::AddLoadClient(LoadClientConfig config,
                                          std::unique_ptr<ArrivalProcess> arrival,
                                          RequestFactory factory, int shard) {
  if (shard >= 0 && sharded_ == nullptr) {
    throw std::logic_error("AddLoadClient: shard placement needs a sharded build");
  }
  Simulation& client_sim =
      (shard >= 0 && shard != default_shard_) ? sharded_->shard(shard) : sim_;
  LoadClient* client =
      Own<LoadClient>(client_sim, std::move(config), std::move(arrival), std::move(factory));
  if (shard >= 0) {
    topology_.AssignShard(client, shard);
  }
  return client;
}

}  // namespace incod
