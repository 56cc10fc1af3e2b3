// NetCache-style key-value cache in the switch ASIC pipeline.
//
// The paper points to NetCache/NetChain (Jin et al.) as proof that caches
// fit a Tofino, and §9.2 argues DNS/KVS responses "fit comfortably within
// the storage limits for values identified in their evaluation". This
// program caches hot keys in switch register arrays: GETs that hit are
// answered at line rate; misses and writes pass through to the server.
// Hot-key detection uses a count-min sketch over the miss stream, and
// cached entries are invalidated by passing SET/DELETEs.
//
// Implemented as a unified App on the switch-ASIC placement: the pipeline
// feeds it through SwitchHostedApp, replies leave via ctx.Reply() and
// pass-through traffic via ctx.Punt().
#ifndef INCOD_SRC_KVS_NETCACHE_H_
#define INCOD_SRC_KVS_NETCACHE_H_

#include <string>

#include "src/app/switch_app.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/kv_store.h"
#include "src/stats/count_min.h"
#include "src/stats/counters.h"

namespace incod {

struct KvSwitchCacheConfig {
  NodeId kvs_service = 0;      // Address of the KVS this cache fronts.
  size_t cache_entries = 65536;  // Register-array budget (NetCache: 64K items).
  // A key becomes cache-worthy after this many estimated accesses.
  uint64_t hot_threshold = 8;
};

class KvSwitchCache : public SwitchHostedApp {
 public:
  static constexpr uint32_t kMaxValueBytes = 128;  // Values above this are not cacheable.
  static constexpr size_t kSketchWidth = 4096;
  static constexpr size_t kSketchDepth = 3;
  // §6-style power accounting relative to L2 forwarding.
  static constexpr double kPowerOverheadAtFullLoad = 0.02;

  explicit KvSwitchCache(KvSwitchCacheConfig config);

  AppProto proto() const override { return AppProto::kKv; }
  std::string AppName() const override { return "netcache-kv"; }
  OffloadPlacementProfile OffloadProfile() const override {
    OffloadPlacementProfile profile;
    profile.switch_power_overhead_at_full_load = kPowerOverheadAtFullLoad;
    return profile;
  }

  // Requests to the fronted service and responses from it (for cache fill).
  bool Matches(const Packet& packet) const override {
    return packet.proto == AppProto::kKv;
  }
  void HandlePacket(AppContext& ctx, Packet&& packet) override;

  // App state contract: the register-array cache contents in LRU order.
  AppState SnapshotState() const override;
  void RestoreState(const AppState& state) override;

  KvStore& cache() { return cache_; }
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses_forwarded() const { return misses_.value(); }
  uint64_t invalidations() const { return invalidations_.value(); }
  uint64_t insertions() const { return insertions_.value(); }
  double HitRatio() const;

 private:
  // Returns true when the GET was answered from the cache.
  bool HandleGet(AppContext& ctx, const Packet& packet, const KvRequest& request);
  void ObserveResponse(const Packet& packet, const KvResponse& response);

  KvSwitchCacheConfig config_;
  KvStore cache_;
  CountMinSketch sketch_;
  Counter hits_;
  Counter misses_;
  Counter invalidations_;
  Counter insertions_;
};

}  // namespace incod

#endif  // INCOD_SRC_KVS_NETCACHE_H_
