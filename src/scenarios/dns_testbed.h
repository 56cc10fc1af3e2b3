// DNS experiment testbed (Fig 3c and the §9.2 DNS shift).
//
// Same topology family as the KVS testbed, expressed as a declarative
// ScenarioSpec ("dns" from the AppRegistry on both placements):
//   kSoftwareOnly:  client --10GE-- conventional NIC --PCIe-- i7 server (NSD)
//   kEmu:           client --10GE-- NetFPGA(Emu DNS) --PCIe-- i7 server
//   kEmuStandalone: client --10GE-- NetFPGA(Emu DNS) (hostless)
#ifndef INCOD_SRC_SCENARIOS_DNS_TESTBED_H_
#define INCOD_SRC_SCENARIOS_DNS_TESTBED_H_

#include <memory>

#include "src/dns/emu_dns.h"
#include "src/dns/nsd_server.h"
#include "src/dns/zone.h"
#include "src/scenarios/scenario_spec.h"

namespace incod {

enum class DnsMode { kSoftwareOnly, kEmu, kEmuStandalone };

struct DnsTestbedOptions {
  DnsMode mode = DnsMode::kEmu;
  bool emu_initially_active = true;
  size_t zone_size = 10000;
  SimDuration meter_period = Milliseconds(1);
};

// Builds the declarative spec the testbed wires. `zone` must outlive the
// testbed (it is shared read-only by every DNS placement).
ScenarioSpec MakeDnsScenarioSpec(const DnsTestbedOptions& options, const Zone* zone);

class DnsTestbed {
 public:
  DnsTestbed(Simulation& sim, const DnsTestbedOptions& options);

  Server* server() { return testbed_->member(0).server; }
  FpgaNic* fpga() { return testbed_->member(0).fpga; }
  EmuDns* emu() { return emu_; }
  NsdServer* nsd() { return nsd_; }
  Zone& zone() { return zone_; }
  WallPowerMeter& meter() { return testbed_->meter(); }
  Simulation& sim() { return sim_; }
  TestbedBuilder& builder() { return testbed_->builder(); }
  ScenarioTestbed& scenario() { return *testbed_; }

  LoadClient& AddClient(LoadClientConfig config, std::unique_ptr<ArrivalProcess> arrival,
                        RequestFactory factory);
  LoadClient* client() { return testbed_->client(); }

  NodeId ServiceNode() const { return testbed_->ServiceNode(); }

 private:
  Simulation& sim_;
  Zone zone_;
  std::unique_ptr<ScenarioTestbed> testbed_;
  NsdServer* nsd_ = nullptr;
  EmuDns* emu_ = nullptr;
};

}  // namespace incod

#endif  // INCOD_SRC_SCENARIOS_DNS_TESTBED_H_
