#include "src/kvs/netcache.h"

#include <stdexcept>
#include <utility>

#include "src/sim/simulation.h"

namespace incod {

KvSwitchCache::KvSwitchCache(KvSwitchCacheConfig config)
    : config_(config),
      cache_(config.cache_entries),
      sketch_(kSketchWidth, kSketchDepth) {
  if (config_.kvs_service == 0) {
    throw std::invalid_argument("KvSwitchCache: kvs_service required");
  }
}

double KvSwitchCache::HitRatio() const {
  const uint64_t total = hits_.value() + misses_.value();
  return total == 0 ? 0.0 : static_cast<double>(hits_.value()) / static_cast<double>(total);
}

bool KvSwitchCache::HandleGet(AppContext& ctx, const Packet& packet,
                              const KvRequest& request) {
  uint32_t bytes = 0;
  if (cache_.Get(request.key, &bytes)) {
    hits_.Increment();
    KvResponse resp{KvOp::kGet, request.key, true, bytes};
    ctx.Reply(
        MakeKvResponsePacket(packet.dst, packet.src, resp, packet.id, ctx.sim().Now()));
    return true;  // Served at line rate; request terminated in the switch.
  }
  // Miss: count towards hotness and let the server answer (the fill
  // happens when the response passes back through, mirroring NetCache's
  // controller-mediated insertion).
  misses_.Increment();
  sketch_.Increment(request.key);
  return false;
}

void KvSwitchCache::ObserveResponse(const Packet& packet, const KvResponse& response) {
  (void)packet;
  if (response.op != KvOp::kGet || !response.hit) {
    return;
  }
  if (response.value_bytes > kMaxValueBytes) {
    return;  // Does not fit the register-array slot.
  }
  if (sketch_.Estimate(response.key) >= config_.hot_threshold) {
    cache_.Set(response.key, response.value_bytes);
    insertions_.Increment();
  }
}

void KvSwitchCache::HandlePacket(AppContext& ctx, Packet&& packet) {
  if (const KvRequest* request = PayloadIf<KvRequest>(packet);
      request != nullptr && packet.dst == config_.kvs_service) {
    switch (request->op) {
      case KvOp::kGet:
        if (HandleGet(ctx, packet, *request)) {
          return;
        }
        break;
      case KvOp::kSet:
      case KvOp::kDelete:
        // Write-around with invalidation: the server owns the data.
        if (cache_.Delete(request->key)) {
          invalidations_.Increment();
        }
        break;
    }
  } else if (const KvResponse* response = PayloadIf<KvResponse>(packet);
             response != nullptr && packet.src == config_.kvs_service) {
    ObserveResponse(packet, *response);
  }
  // Everything not answered at line rate continues through the pipeline.
  ctx.Punt(std::move(packet));
}

AppState KvSwitchCache::SnapshotState() const {
  KvAppState kv;
  kv.primary = KvEntriesFromPairs(cache_.SnapshotLru());
  return AppState{proto(), AppName(), std::move(kv)};
}

void KvSwitchCache::RestoreState(const AppState& state) {
  const KvAppState* kv = std::get_if<KvAppState>(&state.data);
  if (kv == nullptr) {
    return;
  }
  cache_.RestoreLru(KvPairsFromEntries(kv->primary));
}

}  // namespace incod
