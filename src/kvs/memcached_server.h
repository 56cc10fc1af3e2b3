// Software memcached model (host placement of the KVS app family).
//
// Calibration (§4.2): memcached v1.5.1 on the i7-6700K peaks around 1 Mpps
// with all four cores busy. With the kernel stack's 1 µs rx + 0.5 µs tx
// per-packet cost, a 2.5 µs application service time yields 250 Kqps per
// worker thread — 1 Mqps across 4 threads.
#ifndef INCOD_SRC_KVS_MEMCACHED_SERVER_H_
#define INCOD_SRC_KVS_MEMCACHED_SERVER_H_

#include <string>

#include "src/app/app.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/kv_store.h"

namespace incod {

struct MemcachedConfig {
  int threads = 4;
};

class MemcachedServer : public App {
 public:
  static constexpr size_t kCapacityEntries = 1 << 22;  // 4M entries in host DRAM.
  // Application service time per request (§4.2 calibration above).
  static constexpr SimDuration kGetCpuTime = Nanoseconds(2500);
  static constexpr SimDuration kSetCpuTime = Nanoseconds(2800);

  explicit MemcachedServer(MemcachedConfig config = {});

  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "memcached"; }
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kHost;
  }
  HostPlacementProfile HostProfile() const override {
    return HostPlacementProfile{config_.threads, std::nullopt};
  }

  SimDuration CpuTimePerRequest(const Packet& packet) const override;
  void HandlePacket(AppContext& ctx, Packet&& packet) override;

  // App state contract: the authoritative store contents in LRU order.
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }
  uint64_t gets() const { return gets_.value(); }
  uint64_t sets() const { return sets_.value(); }

 private:
  MemcachedConfig config_;
  KvStore store_;
  Counter gets_;
  Counter sets_;
};

}  // namespace incod

#endif  // INCOD_SRC_KVS_MEMCACHED_SERVER_H_
