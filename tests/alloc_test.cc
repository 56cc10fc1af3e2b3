// Allocation guard for the per-request hot path.
//
// A counting global operator new (this binary only) measures how many heap
// allocations a steady-state KVS chain makes per client request. The count
// is deterministic for a seed — the simulation is — so this is a test with
// a hard bound, not a benchmark. The per-request state (client request
// window, LRU store, rate windows, link queues, event bodies) is meant to
// recycle its storage: one allocation per request, such as a node-based
// map entry per outstanding request, breaks the bound tenfold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/kvs/kv_protocol.h"
#include "src/scenarios/kvs_testbed.h"
#include "src/workload/arrival.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace incod {
namespace {

struct SteadyState {
  uint64_t requests = 0;
  uint64_t allocations = 0;
  uint64_t replies = 0;
};

// Runs a KVS chain at 200k gets/s over `keys` prefilled keys, warms it up
// for 50 ms (every queue, window and table reaches its working size), then
// counts heap allocations over the next 200 ms.
SteadyState MeasureChain(KvsMode mode, uint64_t keys) {
  Simulation sim(7);
  KvsTestbedOptions options;
  options.mode = mode;
  KvsTestbed testbed(sim, options);
  testbed.Prefill(keys, 64);
  LoadClient& client = testbed.AddClient(
      LoadClientConfig{}, std::make_unique<PoissonArrival>(200000.0),
      [keys](NodeId src, uint64_t id, SimTime now, Rng& rng) {
        const auto key = static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(keys) - 1));
        return MakeKvRequestPacket(src, kTestbedServerNode, KvRequest{KvOp::kGet, key, 0}, id,
                                   now);
      });
  client.Start();
  sim.RunUntil(Milliseconds(50));
  const uint64_t sent_before = client.sent();
  const uint64_t received_before = client.received();
  const uint64_t allocations_before = g_allocations.load();
  sim.RunUntil(Milliseconds(250));
  SteadyState result;
  result.allocations = g_allocations.load() - allocations_before;
  result.requests = client.sent() - sent_before;
  result.replies = client.received() - received_before;
  return result;
}

// LaKe answers from L1 and, past its 4096 entries, from L2 (with promotion).
TEST(AllocationTest, LakeChainAllocatesAlmostNothingPerRequest) {
  const SteadyState s = MeasureChain(KvsMode::kLake, 20000);
  ASSERT_GT(s.requests, 30000u);
  EXPECT_GT(s.replies, 30000u);
  EXPECT_LT(static_cast<double>(s.allocations), 0.1 * static_cast<double>(s.requests))
      << s.allocations << " allocations for " << s.requests << " requests";
}

// The host path: conventional NIC, server worker queues, memcached's store.
TEST(AllocationTest, SoftwareChainAllocatesAlmostNothingPerRequest) {
  const SteadyState s = MeasureChain(KvsMode::kSoftwareOnly, 20000);
  ASSERT_GT(s.requests, 30000u);
  EXPECT_GT(s.replies, 30000u);
  EXPECT_LT(static_cast<double>(s.allocations), 0.1 * static_cast<double>(s.requests))
      << s.allocations << " allocations for " << s.requests << " requests";
}

}  // namespace
}  // namespace incod
