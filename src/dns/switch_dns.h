// DNS resolution in the switch ASIC pipeline (§9.2) — the switch-ASIC
// placement of the DNS app family.
//
// "Shifting a DNS server to a programmable ASIC, like Barefoot's Tofino,
// should also be possible ... DNS responses fit comfortably within the
// storage limits ... The biggest challenge would be supporting DNS queries
// that require parsing deeper than the maximum supported depth. However, in
// the worst case scenario, those queries could be treated as iterative
// requests." This program answers A-record queries from an on-switch copy
// of the zone at line rate and passes everything it cannot parse (deep
// names, non-A types, malformed) through to the host.
#ifndef INCOD_SRC_DNS_SWITCH_DNS_H_
#define INCOD_SRC_DNS_SWITCH_DNS_H_

#include <memory>
#include <string>

#include "src/app/switch_app.h"
#include "src/dns/dns_message.h"
#include "src/dns/zone.h"
#include "src/dns/zone_state.h"
#include "src/stats/counters.h"

namespace incod {

struct DnsSwitchConfig {
  NodeId dns_service = 0;  // Address of the DNS service this program fronts.
};

class DnsSwitchProgram : public SwitchHostedApp {
 public:
  // Hardware parser depth: the paper calls this the biggest challenge for
  // DNS on an ASIC. Tofino parsers manage fewer labels than an FPGA.
  static constexpr int kMaxLabels = 4;
  static constexpr double kPowerOverheadAtFullLoad = 0.015;

  // The zone is shared read-only with the authoritative software server.
  DnsSwitchProgram(const Zone* zone, DnsSwitchConfig config);

  AppProto proto() const override { return AppProto::kDns; }
  std::string AppName() const override { return "switch-dns"; }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.switch_power_overhead_at_full_load = kPowerOverheadAtFullLoad;
    return profile;
  }

  bool Matches(const Packet& packet) const override {
    return packet.proto == AppProto::kDns && packet.dst == config_.dns_service;
  }
  void HandlePacket(AppContext& ctx, Packet&& packet) override;

  // App state contract (zone_state.h): the on-switch zone copy.
  AppState SnapshotState() const override { return zone_state_.Snapshot(proto(), AppName()); }
  void RestoreState(const AppState& state) override { zone_state_.Restore(state); }

  uint64_t answered() const { return answered_.value(); }
  uint64_t nxdomain() const { return nxdomain_.value(); }
  uint64_t punted_to_host() const { return punted_.value(); }

 private:
  ZoneStateHolder zone_state_;
  DnsSwitchConfig config_;
  Counter answered_;
  Counter nxdomain_;
  Counter punted_;
};

}  // namespace incod

#endif  // INCOD_SRC_DNS_SWITCH_DNS_H_
