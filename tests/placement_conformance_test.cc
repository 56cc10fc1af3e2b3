// Cross-placement conformance matrix.
//
// The unified App contract promises that *where* an application runs is a
// placement decision, not a behaviour change. This suite enforces that
// exhaustively instead of per-scenario:
//
//   1. The support matrix is *declared*: every AppRegistry name must appear
//      in kDeclaredPlacements with the exact placement set it supports. A
//      family cannot silently opt out of a substrate — adding or removing a
//      placement means editing the declaration here, in the open.
//   2. Identical traces -> identical replies: for every name x supported
//      placement, the same warm state and the same request trace must
//      produce the same reply sequence (summarized field by field).
//   3. The warm-migration invariant: snapshot on placement A, restore onto
//      any other supported placement B, snapshot there, restore back onto a
//      fresh A — the A-side snapshot must SerializeAppState bit-identically
//      to the original. This is what makes orchestrator shifts (and host
//      bounces between targets) lossless for every registered app.
//
// When PLACEMENT_CONFORMANCE_OUT is set, a per-placement summary CSV is
// written there on teardown (uploaded as a CI artifact next to the bench
// results).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/app/app.h"
#include "src/app/app_registry.h"
#include "src/app/app_state.h"
#include "src/dns/dns_message.h"
#include "src/dns/nsd_server.h"
#include "src/dns/zone.h"
#include "src/kvs/kv_protocol.h"
#include "src/kvs/memcached_server.h"
#include "src/paxos/paxos_msg.h"
#include "src/paxos/software_roles.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

constexpr NodeId kService = 200;
constexpr NodeId kClientNode = 100;

const std::vector<PlacementKind> kAllPlacements = {
    PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
    PlacementKind::kSmartNic};

// The declared support matrix (satellite contract: unsupported pairs are
// visible here, not skipped inside loops).
const std::map<std::string, std::set<PlacementKind>>& DeclaredPlacements() {
  static const std::map<std::string, std::set<PlacementKind>> kDeclared = {
      {"kvs",
       {PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
        PlacementKind::kSmartNic}},
      {"dns",
       {PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
        PlacementKind::kSmartNic}},
      {"paxos-leader",
       {PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
        PlacementKind::kSmartNic}},
      {"paxos-acceptor",
       {PlacementKind::kHost, PlacementKind::kFpgaNic, PlacementKind::kSwitchAsic,
        PlacementKind::kSmartNic}},
      // The learner aggregates majority votes in host memory; no hardware
      // deployment exists in the paper or this model.
      {"paxos-learner", {PlacementKind::kHost}},
  };
  return kDeclared;
}

// ---------------------------------------------------------------------------
// CI summary (PLACEMENT_CONFORMANCE_OUT artifact).
// ---------------------------------------------------------------------------

struct ConformanceSummary {
  struct Row {
    std::string family;
    std::string placement;
    size_t trace_replies = 0;
    size_t state_pairs = 0;
  };

  static ConformanceSummary& Instance() {
    static ConformanceSummary summary;
    return summary;
  }

  Row& RowFor(const std::string& family, PlacementKind placement) {
    const std::string key = family + "|" + PlacementKindName(placement);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, rows.size()).first;
      rows.push_back(Row{family, PlacementKindName(placement), 0, 0});
    }
    return rows[it->second];
  }

  std::vector<Row> rows;
  std::map<std::string, size_t> index;
};

class SummaryWriter : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("PLACEMENT_CONFORMANCE_OUT");
    if (path == nullptr || *path == '\0') {
      return;
    }
    std::ofstream out(path);
    out << "family,placement,trace_replies,state_pairs\n";
    for (const auto& row : ConformanceSummary::Instance().rows) {
      out << row.family << "," << row.placement << "," << row.trace_replies << ","
          << row.state_pairs << "\n";
    }
  }
};

const ::testing::Environment* const kSummaryEnv =
    ::testing::AddGlobalTestEnvironment(new SummaryWriter);

// ---------------------------------------------------------------------------
// Trace driver: a recording substrate + per-family canonical state/trace.
// ---------------------------------------------------------------------------

class RecordingContext : public AppContext {
 public:
  RecordingContext(Simulation& sim, PlacementKind placement)
      : sim_(sim), placement_(placement) {}

  Simulation& sim() override { return sim_; }
  PlacementKind placement() const override { return placement_; }
  // Every substrate answers on the service address so reply sources are
  // comparable across placements.
  NodeId self_node() const override { return kService; }
  void Reply(Packet&& packet) override { replies.push_back(std::move(packet)); }
  void Punt(Packet&& packet) override { punts.push_back(std::move(packet)); }

  std::vector<Packet> replies;
  std::vector<Packet> punts;

 private:
  Simulation& sim_;
  PlacementKind placement_;
};

// Shared factory resources, stable across the whole suite.
struct ConformanceEnv {
  ConformanceEnv() {
    // 3-label names stay within every parser's depth budget (the switch
    // pipeline manages 4).
    for (int i = 0; i < 8; ++i) {
      zone.AddRecord(Zone::SyntheticName(static_cast<size_t>(i)),
                     0x0a000000u + static_cast<uint32_t>(i),
                     60 + static_cast<uint32_t>(i));
    }
    group.acceptors = {10, 11, 12};
    group.learners = {30};
    group.leader_service = kService;
  }

  AppFactoryEnv Factory() const {
    AppFactoryEnv env;
    env.zone = &empty_zone;  // Warmth comes from the restored state only.
    env.paxos_group = &group;
    env.service = kService;
    return env;
  }

  Zone zone;
  Zone empty_zone;
  PaxosGroupConfig group;
};

const ConformanceEnv& SharedEnv() {
  static const ConformanceEnv env;
  return env;
}

// Canonical warm state each placement starts from. Sized to fit the
// smallest placement shape (LaKe L1, switch register arrays) so the
// cross-placement round trips are lossless by construction.
AppState CanonicalState(const std::string& family) {
  if (family == "kvs") {
    MemcachedServer host;
    for (uint64_t k = 1; k <= 8; ++k) {
      host.store().Set(k, static_cast<uint32_t>(8 * k));
    }
    uint32_t bytes = 0;
    host.store().Get(3, &bytes);  // LRU order must survive every trip.
    return host.SnapshotState();
  }
  if (family == "dns") {
    NsdServer host(&SharedEnv().zone);
    return host.SnapshotState();
  }
  if (family == "paxos-leader") {
    SoftwareLeader leader(SharedEnv().group, /*ballot=*/3);
    PaxosMessage request;
    request.type = PaxosMsgType::kClientRequest;
    request.value = 77;
    request.client = kClientNode;
    leader.state().HandleMessage(request);
    leader.state().HandleMessage(request);
    return leader.SnapshotState();
  }
  if (family == "paxos-acceptor") {
    SoftwareAcceptor acceptor(SharedEnv().group, /*acceptor_id=*/1);
    for (uint32_t instance = 1; instance <= 3; ++instance) {
      PaxosMessage msg;
      msg.type = PaxosMsgType::kPhase2a;
      msg.instance = instance;
      msg.round = 2;
      msg.value = 500 + instance;
      msg.client = kClientNode;
      acceptor.state().HandleMessage(msg);
    }
    return acceptor.SnapshotState();
  }
  if (family == "paxos-learner") {
    SoftwareLearner learner(SharedEnv().group);
    return learner.SnapshotState();
  }
  throw std::logic_error("no canonical state for " + family);
}

Packet PaxosPacket(const PaxosMessage& msg) {
  return MakePaxosPacket(kClientNode, kService, msg, /*now=*/0);
}

// The identical request trace every placement of the family must answer
// identically. Requests stay within the cross-placement service contract
// (present keys, parseable names, role messages): what a placement merely
// *forwards* — a KVS miss punted to the authoritative host, a deep DNS name
// — is placement policy, not application behaviour.
std::vector<Packet> MakeTrace(const std::string& family) {
  std::vector<Packet> trace;
  if (family == "kvs") {
    uint64_t id = 1;
    for (uint64_t key : {1u, 5u, 3u, 8u, 1u, 2u, 7u, 4u, 6u, 3u}) {
      trace.push_back(MakeKvRequestPacket(kClientNode, kService,
                                          KvRequest{KvOp::kGet, key, 0}, id++, 0));
    }
    return trace;
  }
  if (family == "dns") {
    uint16_t id = 1;
    auto query = [&](const std::string& name) {
      DnsMessage msg;
      msg.id = id;
      msg.questions.push_back(DnsQuestion{name, kDnsTypeA, kDnsClassIn});
      Packet pkt;
      pkt.src = kClientNode;
      pkt.dst = kService;
      pkt.proto = AppProto::kDns;
      pkt.id = id++;
      pkt.payload = std::move(msg);
      return pkt;
    };
    for (size_t i = 0; i < 8; ++i) {
      trace.push_back(query(Zone::SyntheticName(i)));
    }
    // Absent (but parseable) name: every placement answers NXDOMAIN itself.
    trace.push_back(query("missing.bench.example"));
    return trace;
  }
  if (family == "paxos-leader") {
    for (uint64_t value = 1000; value < 1006; ++value) {
      PaxosMessage msg;
      msg.type = PaxosMsgType::kClientRequest;
      msg.value = value;
      msg.client = kClientNode;
      trace.push_back(PaxosPacket(msg));
    }
    return trace;
  }
  if (family == "paxos-acceptor") {
    for (uint32_t instance = 4; instance <= 8; ++instance) {
      PaxosMessage msg;
      msg.type = PaxosMsgType::kPhase2a;
      msg.instance = instance;
      msg.round = 3;
      msg.value = 900 + instance;
      msg.client = kClientNode;
      trace.push_back(PaxosPacket(msg));
    }
    // A re-proposal for a voted instance exercises the promise/NACK path.
    PaxosMessage prepare;
    prepare.type = PaxosMsgType::kPhase1a;
    prepare.instance = 2;
    prepare.round = 1;
    trace.push_back(PaxosPacket(prepare));
    return trace;
  }
  if (family == "paxos-learner") {
    // Majority of phase-2b votes decides the instance -> client response.
    for (uint32_t acceptor : {1u, 2u}) {
      PaxosMessage msg;
      msg.type = PaxosMsgType::kPhase2b;
      msg.instance = 1;
      msg.round = 2;
      msg.value = 501;
      msg.client = kClientNode;
      msg.sender_id = acceptor;
      trace.push_back(PaxosPacket(msg));
    }
    return trace;
  }
  throw std::logic_error("no trace for " + family);
}

std::string SummarizePacket(const Packet& packet) {
  std::ostringstream os;
  os << "src=" << packet.src << " dst=" << packet.dst << " id=" << packet.id
     << " proto=" << static_cast<int>(packet.proto);
  if (const KvResponse* kv = PayloadIf<KvResponse>(packet)) {
    os << " kv op=" << static_cast<int>(kv->op) << " key=" << kv->key
       << " hit=" << kv->hit << " bytes=" << kv->value_bytes;
  } else if (const KvRequest* kvr = PayloadIf<KvRequest>(packet)) {
    os << " kvreq op=" << static_cast<int>(kvr->op) << " key=" << kvr->key;
  } else if (const PaxosMessage* px = PayloadIf<PaxosMessage>(packet)) {
    os << " paxos type=" << PaxosMsgTypeName(px->type) << " inst=" << px->instance
       << " round=" << px->round << " vround=" << px->vround << " value=" << px->value
       << " client=" << px->client << " sender=" << px->sender_id
       << " last_voted=" << px->last_voted_instance;
  } else if (const DnsMessage* dns = PayloadIf<DnsMessage>(packet)) {
    os << " dns id=" << dns->id << " resp=" << dns->is_response
       << " rcode=" << static_cast<int>(dns->rcode) << " aa=" << dns->authoritative
       << " answers=[";
    for (const auto& rr : dns->answers) {
      os << rr.name << "/" << RdataToIpv4(rr.rdata) << "/" << rr.ttl << ";";
    }
    os << "]";
  }
  return os.str();
}

struct DriveResult {
  std::vector<std::string> replies;
  std::vector<std::string> punts;
  std::vector<Packet> reply_packets;
};

// Builds the app on the placement, installs the canonical warm state, and
// plays the family trace through a bare AppContext, draining any delayed
// replies between requests so ordering is well-defined.
DriveResult DriveTrace(const std::string& family, PlacementKind placement) {
  Simulation sim(/*seed=*/1);
  RecordingContext ctx(sim, placement);
  std::unique_ptr<App> app =
      AppRegistry::Global().Create(family, placement, SharedEnv().Factory());
  app->BindContext(&ctx);
  app->RestoreState(CanonicalState(family));
  app->OnActivate();
  for (const Packet& request : MakeTrace(family)) {
    EXPECT_TRUE(app->Matches(request))
        << family << " on " << PlacementKindName(placement)
        << " refused: " << SummarizePacket(request);
    Packet copy = request;
    app->HandlePacket(ctx, std::move(copy));
    sim.RunUntil(sim.Now() + Milliseconds(1));
  }
  DriveResult result;
  for (const Packet& reply : ctx.replies) {
    result.replies.push_back(SummarizePacket(reply));
  }
  for (const Packet& punt : ctx.punts) {
    result.punts.push_back(SummarizePacket(punt));
  }
  result.reply_packets = std::move(ctx.replies);
  return result;
}

// ---------------------------------------------------------------------------
// 1. The declared matrix is the real matrix.
// ---------------------------------------------------------------------------

TEST(PlacementConformanceTest, SupportMatrixIsFullyDeclared) {
  const auto& declared = DeclaredPlacements();
  for (const std::string& name : AppRegistry::Global().Names()) {
    auto it = declared.find(name);
    ASSERT_NE(it, declared.end())
        << "registry app '" << name
        << "' is not in the conformance declaration — declare its placement "
           "matrix (no app opts out silently)";
    const auto placements = AppRegistry::Global().Placements(name);
    const std::set<PlacementKind> actual(placements.begin(), placements.end());
    EXPECT_EQ(actual, it->second) << name << ": declared matrix out of date";
    for (PlacementKind placement : kAllPlacements) {
      EXPECT_EQ(AppRegistry::Global().Supports(name, placement),
                it->second.count(placement) == 1)
          << name << " on " << PlacementKindName(placement);
    }
  }
  // And the declaration names only real apps.
  for (const auto& [name, placements] : declared) {
    EXPECT_TRUE(AppRegistry::Global().Has(name)) << name;
    EXPECT_FALSE(placements.empty()) << name;
  }
}

// ---------------------------------------------------------------------------
// 2. Identical traces, identical replies.
// ---------------------------------------------------------------------------

TEST(PlacementConformanceTest, IdenticalTracesProduceIdenticalReplies) {
  for (const auto& [family, placements] : DeclaredPlacements()) {
    SCOPED_TRACE(family);
    const PlacementKind reference_placement = *placements.begin();
    const DriveResult reference = DriveTrace(family, reference_placement);
    EXPECT_FALSE(reference.replies.empty()) << family << " trace produced no replies";
    EXPECT_TRUE(reference.punts.empty())
        << family << " conformance trace must stay within the service contract";
    ConformanceSummary::Instance().RowFor(family, reference_placement).trace_replies =
        reference.replies.size();
    for (PlacementKind placement : placements) {
      if (placement == reference_placement) {
        continue;
      }
      SCOPED_TRACE(PlacementKindName(placement));
      const DriveResult got = DriveTrace(family, placement);
      EXPECT_EQ(got.replies, reference.replies);
      EXPECT_EQ(got.punts, reference.punts);
      ConformanceSummary::Instance().RowFor(family, placement).trace_replies =
          got.replies.size();
    }
  }
}

// Every DNS placement replies through one builder; a reply must be sized as
// the wire encoding of the message it carries.
TEST(PlacementConformanceTest, DnsRepliesAreSizedLikeTheirPayload) {
  for (PlacementKind placement : DeclaredPlacements().at("dns")) {
    SCOPED_TRACE(PlacementKindName(placement));
    const DriveResult result = DriveTrace("dns", placement);
    ASSERT_EQ(result.reply_packets.size(), MakeTrace("dns").size());
    for (const Packet& reply : result.reply_packets) {
      const DnsMessage* payload = PayloadIf<DnsMessage>(reply);
      ASSERT_NE(payload, nullptr) << SummarizePacket(reply);
      EXPECT_EQ(reply.size_bytes, DnsWireBytes(*payload)) << SummarizePacket(reply);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. The warm-migration invariant, exhaustively.
// ---------------------------------------------------------------------------

TEST(PlacementConformanceTest, StateRoundTripsBitIdenticallyAcrossAllPlacementPairs) {
  for (const auto& [family, placements] : DeclaredPlacements()) {
    SCOPED_TRACE(family);
    const AppState golden = CanonicalState(family);
    const AppFactoryEnv env = SharedEnv().Factory();
    for (PlacementKind from : placements) {
      std::unique_ptr<App> source = AppRegistry::Global().Create(family, from, env);
      source->RestoreState(golden);
      const AppState from_snapshot = source->SnapshotState();
      const std::vector<uint8_t> from_bytes = SerializeAppState(from_snapshot);
      for (PlacementKind to : placements) {
        SCOPED_TRACE(std::string(PlacementKindName(from)) + " -> " +
                     PlacementKindName(to));
        // A -> B: the migrated-to placement reproduces the snapshot ...
        std::unique_ptr<App> dest = AppRegistry::Global().Create(family, to, env);
        dest->RestoreState(from_snapshot);
        const AppState to_snapshot = dest->SnapshotState();
        // ... and B -> A returns bit-identically (the warm shift home).
        std::unique_ptr<App> back = AppRegistry::Global().Create(family, from, env);
        back->RestoreState(to_snapshot);
        EXPECT_EQ(SerializeAppState(back->SnapshotState()), from_bytes);
        ++ConformanceSummary::Instance().RowFor(family, to).state_pairs;
      }
    }
  }
}

}  // namespace
}  // namespace incod
