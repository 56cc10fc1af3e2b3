#include "src/scenarios/kvs_testbed.h"

#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"

namespace incod {

ScenarioSpec MakeKvsScenarioSpec(const KvsTestbedOptions& options) {
  ScenarioMemberSpec kvs;
  kvs.name = "kvs";
  kvs.env.lake = options.lake;
  kvs.host.present = options.mode != KvsMode::kLakeStandalone;
  kvs.host.config.name = "i7-server";
  kvs.host.config.node = kTestbedServerNode;
  kvs.host.config.num_cores = 4;
  kvs.host.config.power_curve = I7MemcachedCurve();
  if (kvs.host.present) {
    kvs.host.apps = {"kvs"};
  }
  kvs.target.pcie = TestbedBuilder::PcieLink(Nanoseconds(2500));
  switch (options.mode) {
    case KvsMode::kSoftwareOnly:
      kvs.target.kind = ScenarioTargetKind::kConventionalNic;
      kvs.target.name = "";  // Preset name (Mellanox / Intel).
      kvs.target.intel_nic = options.intel_nic;
      break;
    case KvsMode::kLake:
    case KvsMode::kLakeStandalone:
      kvs.target.kind = ScenarioTargetKind::kFpgaNic;
      kvs.target.name = "netfpga-lake";
      kvs.target.device_node = kTestbedDeviceNode;
      kvs.target.standalone = options.mode == KvsMode::kLakeStandalone;
      kvs.target.app = "kvs";
      kvs.target.initially_active = options.lake_initially_active;
      break;
  }

  ScenarioSpec spec;
  spec.name = "kvs";
  spec.meter_period = options.meter_period;
  spec.client_link = TestbedBuilder::TenGigLink(Nanoseconds(100));
  spec.members.push_back(std::move(kvs));
  return spec;
}

KvsTestbed::KvsTestbed(Simulation& sim, const KvsTestbedOptions& options)
    : sim_(sim),
      testbed_(std::make_unique<ScenarioTestbed>(sim, MakeKvsScenarioSpec(options))),
      memcached_(testbed_->member_host_app_as<MemcachedServer>(0)),
      lake_(testbed_->member_offload_app_as<LakeCache>(0)) {}

LoadClient& KvsTestbed::AddClient(LoadClientConfig config,
                                  std::unique_ptr<ArrivalProcess> arrival,
                                  RequestFactory factory) {
  return testbed_->AddClient(std::move(config), std::move(arrival), std::move(factory));
}

void KvsTestbed::Prefill(uint64_t count, uint32_t value_bytes) {
  if (memcached_ != nullptr) {
    for (uint64_t k = 0; k < count; ++k) {
      memcached_->store().Set(k, value_bytes);
    }
  }
  if (lake_ != nullptr) {
    lake_->WarmFill(0, count, value_bytes);
  }
}

}  // namespace incod
