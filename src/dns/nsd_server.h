// NSD-like authoritative software DNS server (host placement of the DNS
// app family).
//
// Calibration (§4.4): NSD on the i7-6700K serves ~956 Kqps at peak with the
// server drawing about twice Emu DNS's power. With kernel stack costs of
// 1 µs rx + 0.5 µs tx, a 2.68 µs service time across 4 worker threads gives
// a ~956 Kqps ceiling.
#ifndef INCOD_SRC_DNS_NSD_SERVER_H_
#define INCOD_SRC_DNS_NSD_SERVER_H_

#include <memory>
#include <string>

#include "src/app/app.h"
#include "src/dns/dns_message.h"
#include "src/dns/zone.h"
#include "src/dns/zone_state.h"
#include "src/stats/counters.h"

namespace incod {

class NsdServer : public App {
 public:
  // Worker threads and per-query service time (§4.4 calibration above).
  static constexpr int kThreads = 4;
  static constexpr SimDuration kQueryCpuTime = Nanoseconds(2680);

  explicit NsdServer(const Zone* zone);

  AppProto proto() const override { return AppProto::kDns; }
  std::string AppName() const override { return "nsd"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kHost;
  }
  HostPlacementProfile HostProfile() const override {
    return HostPlacementProfile{kThreads, std::nullopt};
  }

  SimDuration CpuTimePerRequest(const Packet& packet) const override;
  void HandlePacket(AppContext& ctx, Packet&& packet) override;

  // App state contract (zone_state.h): the zone copy this placement
  // answers from; restoring installs an owned zone (warmth transfer).
  AppState SnapshotState() const override { return zone_state_.Snapshot(proto(), AppName()); }
  void RestoreState(const AppState& state) override { zone_state_.Restore(state); }

  uint64_t answered() const { return answered_.value(); }
  uint64_t nxdomain() const { return nxdomain_.value(); }
  uint64_t malformed() const { return malformed_.value(); }

  // Builds an authoritative response for a query against a zone; shared with
  // the hardware implementations so all placements reply identically.
  static DnsMessage Resolve(const Zone& zone, const DnsMessage& query);
  // The reply packet carrying `response` back to the sender of `query`, sized
  // as its wire encoding without re-checking the names it echoes from the
  // query. Every placement replies through this; only the source address
  // differs between them.
  static Packet MakeReply(NodeId src, const Packet& query, DnsMessage response,
                          SimTime now);

 private:
  ZoneStateHolder zone_state_;
  Counter answered_;
  Counter nxdomain_;
  Counter malformed_;
};

}  // namespace incod

#endif  // INCOD_SRC_DNS_NSD_SERVER_H_
