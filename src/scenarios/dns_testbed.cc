#include "src/scenarios/dns_testbed.h"

#include <stdexcept>
#include <utility>

#include "src/power/cpu_power.h"
#include "src/scenarios/kvs_testbed.h"

namespace incod {

ScenarioSpec MakeDnsScenarioSpec(const DnsTestbedOptions& options, const Zone* zone) {
  ScenarioMemberSpec dns;
  dns.name = "dns";
  dns.host.present = options.mode != DnsMode::kEmuStandalone;
  dns.host.config.name = "i7-server";
  dns.host.config.node = kTestbedServerNode;
  dns.host.config.num_cores = 4;
  dns.host.config.power_curve = I7NsdCurve();
  if (dns.host.present) {
    dns.host.apps = {"dns"};
  }
  switch (options.mode) {
    case DnsMode::kSoftwareOnly:
      dns.target.kind = ScenarioTargetKind::kConventionalNic;
      dns.target.name = "";  // Mellanox preset name.
      break;
    case DnsMode::kEmu:
    case DnsMode::kEmuStandalone:
      dns.target.kind = ScenarioTargetKind::kFpgaNic;
      dns.target.name = "netfpga-emu";
      dns.target.device_node = kTestbedDeviceNode;
      dns.target.standalone = options.mode == DnsMode::kEmuStandalone;
      dns.target.app = "dns";
      dns.target.initially_active = options.emu_initially_active;
      break;
  }

  ScenarioSpec spec;
  spec.name = "dns";
  spec.meter_period = options.meter_period;
  spec.zone = zone;
  spec.members.push_back(std::move(dns));
  return spec;
}

DnsTestbed::DnsTestbed(Simulation& sim, const DnsTestbedOptions& options) : sim_(sim) {
  zone_.FillSynthetic(options.zone_size);
  testbed_ = std::make_unique<ScenarioTestbed>(sim, MakeDnsScenarioSpec(options, &zone_));
  nsd_ = testbed_->member_host_app_as<NsdServer>(0);
  emu_ = testbed_->member_offload_app_as<EmuDns>(0);
}

LoadClient& DnsTestbed::AddClient(LoadClientConfig config,
                                  std::unique_ptr<ArrivalProcess> arrival,
                                  RequestFactory factory) {
  return testbed_->AddClient(std::move(config), std::move(arrival), std::move(factory));
}

}  // namespace incod
