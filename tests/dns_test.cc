// Tests for DNS wire format, zone, NSD and Emu DNS.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/device/fpga_nic.h"
#include "src/dns/dns_message.h"
#include "src/dns/emu_dns.h"
#include "src/dns/nsd_server.h"
#include "src/dns/zone.h"
#include "src/host/server.h"
#include "src/net/topology.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace incod {
namespace {

TEST(DnsNameTest, Validation) {
  EXPECT_TRUE(IsValidDnsName("example.com"));
  EXPECT_TRUE(IsValidDnsName("a"));
  EXPECT_TRUE(IsValidDnsName("a.b.c.d.e"));
  EXPECT_FALSE(IsValidDnsName(""));
  EXPECT_FALSE(IsValidDnsName(".leading.dot"));
  EXPECT_FALSE(IsValidDnsName("trailing.dot."));
  EXPECT_FALSE(IsValidDnsName("double..dot"));
  EXPECT_FALSE(IsValidDnsName(std::string(64, 'x') + ".com"));  // Label > 63.
  EXPECT_FALSE(IsValidDnsName(std::string(254, 'x')));          // Name > 253.
}

TEST(DnsNameTest, CountLabels) {
  EXPECT_EQ(CountLabels(""), 0);
  EXPECT_EQ(CountLabels("com"), 1);
  EXPECT_EQ(CountLabels("www.example.com"), 3);
}

TEST(DnsIpv4Test, RoundTrip) {
  const uint32_t ip = 0xC0A80101;  // 192.168.1.1
  EXPECT_EQ(Ipv4ToString(ip), "192.168.1.1");
  EXPECT_EQ(ParseIpv4("192.168.1.1"), ip);
  EXPECT_EQ(RdataToIpv4(Ipv4ToRdata(ip)), ip);
  EXPECT_FALSE(ParseIpv4("300.1.1.1").has_value());
  EXPECT_FALSE(ParseIpv4("1.2.3").has_value());
  EXPECT_FALSE(ParseIpv4("1.2.3.4.5").has_value());
  DnsRdata three_bytes;
  three_bytes.push_back(1);
  three_bytes.push_back(2);
  three_bytes.push_back(3);
  EXPECT_THROW(RdataToIpv4(three_bytes), std::invalid_argument);
}

TEST(DnsWireTest, QueryRoundTrip) {
  DnsMessage query;
  query.id = 0xbeef;
  query.recursion_desired = true;
  query.questions.push_back(DnsQuestion{"www.example.com", kDnsTypeA, kDnsClassIn});
  const auto wire = EncodeDnsMessage(query);
  const auto decoded = DecodeDnsMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 0xbeef);
  EXPECT_FALSE(decoded->is_response);
  EXPECT_TRUE(decoded->recursion_desired);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, "www.example.com");
}

TEST(DnsWireTest, ResponseWithAnswerRoundTrip) {
  DnsMessage resp;
  resp.id = 7;
  resp.is_response = true;
  resp.authoritative = true;
  resp.rcode = DnsRcode::kNoError;
  resp.questions.push_back(DnsQuestion{"host.example", kDnsTypeA, kDnsClassIn});
  DnsResourceRecord rr;
  rr.name = "host.example";
  rr.ttl = 600;
  rr.rdata = Ipv4ToRdata(0x0a000001);
  resp.answers.push_back(rr);
  const auto decoded = DecodeDnsMessage(EncodeDnsMessage(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_response);
  EXPECT_TRUE(decoded->authoritative);
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(decoded->answers[0].ttl, 600u);
  EXPECT_EQ(RdataToIpv4(decoded->answers[0].rdata), 0x0a000001u);
}

TEST(DnsWireTest, NxDomainFlagSurvives) {
  DnsMessage resp;
  resp.is_response = true;
  resp.rcode = DnsRcode::kNxDomain;
  const auto decoded = DecodeDnsMessage(EncodeDnsMessage(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rcode, DnsRcode::kNxDomain);
}

TEST(DnsWireTest, MalformedInputsRejected) {
  EXPECT_FALSE(DecodeDnsMessage({}).has_value());
  EXPECT_FALSE(DecodeDnsMessage({0x00, 0x01, 0x02}).has_value());
  // Header claiming a question with no question bytes.
  std::vector<uint8_t> truncated = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeDnsMessage(truncated).has_value());
  // Compression pointer (0xc0) is unsupported by the Emu parser model.
  std::vector<uint8_t> pointer = {0, 1, 0, 0, 0, 1, 0, 0, 0,    0,
                                  0, 0, 0xc0, 0x0c, 0, 1, 0, 1};
  EXPECT_FALSE(DecodeDnsMessage(pointer).has_value());
}

TEST(DnsWireTest, EncodeRejectsInvalidName) {
  DnsMessage query;
  query.questions.push_back(DnsQuestion{"bad..name", kDnsTypeA, kDnsClassIn});
  EXPECT_THROW(EncodeDnsMessage(query), std::invalid_argument);
}

// Round-trip property over generated names.
class DnsRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(DnsRoundTripTest, RandomNamesSurviveRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 200; ++iter) {
    const int labels = static_cast<int>(rng.UniformInt(1, 6));
    std::string name;
    for (int l = 0; l < labels; ++l) {
      if (l > 0) {
        name.push_back('.');
      }
      const int len = static_cast<int>(rng.UniformInt(1, 20));
      for (int c = 0; c < len; ++c) {
        name.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
      }
    }
    DnsMessage query;
    query.id = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    query.questions.push_back(DnsQuestion{name, kDnsTypeA, kDnsClassIn});
    const auto decoded = DecodeDnsMessage(EncodeDnsMessage(query));
    ASSERT_TRUE(decoded.has_value()) << name;
    EXPECT_EQ(decoded->questions[0].name, name);
    EXPECT_EQ(decoded->id, query.id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsRoundTripTest, ::testing::Values(1, 2, 3, 4));

TEST(ZoneTest, AddLookupRemove) {
  Zone zone;
  EXPECT_TRUE(zone.AddRecord("a.example", 0x01020304));
  const auto rec = zone.Lookup("a.example");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ipv4, 0x01020304u);
  EXPECT_FALSE(zone.Lookup("b.example").has_value());
  EXPECT_TRUE(zone.Remove("a.example"));
  EXPECT_FALSE(zone.Remove("a.example"));
  EXPECT_FALSE(zone.AddRecord("bad..name", 1));
}

TEST(ZoneTest, LoadZoneText) {
  Zone zone;
  const int n = zone.LoadZoneText(
      "# comment\n"
      "www.example A 10.0.0.1\n"
      "mail.example 600 A 10.0.0.2  ; with ttl\n"
      "\n");
  EXPECT_EQ(n, 2);
  EXPECT_EQ(zone.Lookup("www.example")->ipv4, 0x0a000001u);
  EXPECT_EQ(zone.Lookup("mail.example")->ttl, 600u);
}

TEST(ZoneTest, LoadZoneTextRejectsMalformed) {
  Zone zone;
  EXPECT_EQ(zone.LoadZoneText("www.example MX 10.0.0.1\n"), -1);
  EXPECT_EQ(zone.LoadZoneText("www.example A not-an-ip\n"), -1);
  EXPECT_EQ(zone.LoadZoneText("lonely-token\n"), -1);
  // TTLs that do not fit in 32 bits are malformed, not wrapped or thrown.
  EXPECT_EQ(zone.LoadZoneText("www.example 99999999999999999999999 A 10.0.0.1\n"), -1);
  EXPECT_EQ(zone.LoadZoneText("www.example 4294967296 A 10.0.0.1\n"), -1);
  EXPECT_EQ(zone.LoadZoneText("www.example 4294967295 A 10.0.0.1\n"), 1);
  EXPECT_EQ(zone.Lookup("www.example")->ttl, 4294967295u);
}

TEST(ZoneTest, FillSynthetic) {
  Zone zone;
  zone.FillSynthetic(100);
  EXPECT_EQ(zone.size(), 100u);
  EXPECT_TRUE(zone.Lookup(Zone::SyntheticName(42)).has_value());
}

// The hash is defined by its little-endian word loads, not by the platform:
// these values hold on every compiler, standard library and byte order. A
// name shorter than a word, one of exactly two words, and one of 19 bytes
// whose last word overlaps the one before.
TEST(ZoneTest, NameHashIsPinned) {
  EXPECT_EQ(Zone::NameHash("a"), 0x238b9b9301d32792ull);
  EXPECT_EQ(Zone::NameHash("host1234.example"), 0x97fed0127505b425ull);
  EXPECT_EQ(Zone::NameHash("host0.bench.example"), 0x5d2403fdbb8b1689ull);
}

// Differential check: over seeded random adds, replacements, removals,
// re-adds and lookups (present, removed and never-added names), the flat
// table answers exactly like a std::map, and SortedRecords matches the
// map's order.
class ZoneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZoneDifferentialTest, MatchesReferenceMap) {
  Rng rng(GetParam());
  Zone zone;
  std::map<std::string, Zone::Record> reference;
  auto random_name = [&] {
    switch (rng.UniformInt(0, 3)) {
      case 0:  // Synthetic names share long common suffixes.
        return Zone::SyntheticName(static_cast<size_t>(rng.UniformInt(0, 400)));
      case 1:
        return "n" + std::to_string(rng.UniformInt(0, 400)) + ".example";
      case 2:  // Invalid: never added.
        return std::string("bad..") + std::to_string(rng.UniformInt(0, 9));
      default:
        return "absent" + std::to_string(rng.UniformInt(0, 400)) + ".example";
    }
  };
  for (int step = 0; step < 30000; ++step) {
    const std::string name = random_name();
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 45 && name.rfind("absent", 0) != 0) {
      const auto ipv4 = static_cast<uint32_t>(rng.NextU64());
      const auto ttl = static_cast<uint32_t>(rng.UniformInt(1, 86400));
      const bool valid = IsValidDnsName(name);
      ASSERT_EQ(zone.AddRecord(name, ipv4, ttl), valid) << name;
      if (valid) {
        reference[name] = Zone::Record{ipv4, ttl};
      }
    } else if (op < 65) {
      ASSERT_EQ(zone.Remove(name), reference.erase(name) == 1) << name;
    } else if (op < 66) {
      zone.Clear();
      reference.clear();
    } else {
      const auto got = zone.Lookup(name);
      const auto want = reference.find(name);
      ASSERT_EQ(got.has_value(), want != reference.end()) << name;
      if (got.has_value()) {
        ASSERT_EQ(got->ipv4, want->second.ipv4) << name;
        ASSERT_EQ(got->ttl, want->second.ttl) << name;
      }
    }
    ASSERT_EQ(zone.size(), reference.size()) << "step " << step;
    if (step % 1000 == 0) {
      const auto sorted = zone.SortedRecords();
      ASSERT_EQ(sorted.size(), reference.size());
      size_t i = 0;
      for (const auto& [ref_name, record] : reference) {
        ASSERT_EQ(sorted[i].first, ref_name);
        ASSERT_EQ(sorted[i].second.ipv4, record.ipv4);
        ASSERT_EQ(sorted[i].second.ttl, record.ttl);
        ++i;
      }
    }
  }
  // Every surviving record still resolves after all the shifting.
  for (const auto& [name, record] : reference) {
    ASSERT_EQ(zone.Lookup(name)->ipv4, record.ipv4) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneDifferentialTest, ::testing::Values(9u, 10u, 11u));

TEST(NsdResolveTest, AnswersFromZone) {
  Zone zone;
  zone.AddRecord("host.example", 0x0a000001, 123);
  DnsMessage query;
  query.id = 5;
  query.questions.push_back(DnsQuestion{"host.example", kDnsTypeA, kDnsClassIn});
  const DnsMessage resp = NsdServer::Resolve(zone, query);
  EXPECT_TRUE(resp.is_response);
  EXPECT_TRUE(resp.authoritative);
  EXPECT_EQ(resp.rcode, DnsRcode::kNoError);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(RdataToIpv4(resp.answers[0].rdata), 0x0a000001u);
  EXPECT_EQ(resp.answers[0].ttl, 123u);
  EXPECT_EQ(resp.id, 5);
}

TEST(NsdResolveTest, NxDomainForAbsentName) {
  Zone zone;
  DnsMessage query;
  query.questions.push_back(DnsQuestion{"missing.example", kDnsTypeA, kDnsClassIn});
  EXPECT_EQ(NsdServer::Resolve(zone, query).rcode, DnsRcode::kNxDomain);
}

TEST(NsdResolveTest, NotImpForUnsupportedType) {
  Zone zone;
  zone.AddRecord("host.example", 1);
  DnsMessage query;
  query.questions.push_back(DnsQuestion{"host.example", kDnsTypeAaaa, kDnsClassIn});
  EXPECT_EQ(NsdServer::Resolve(zone, query).rcode, DnsRcode::kNotImp);
}

TEST(NsdResolveTest, FormErrForEmptyQuestion) {
  Zone zone;
  EXPECT_EQ(NsdServer::Resolve(zone, DnsMessage{}).rcode, DnsRcode::kFormErr);
}

TEST(NsdServerTest, RejectsNullZone) {
  EXPECT_THROW(NsdServer(nullptr), std::invalid_argument);
}

// ---- Emu DNS on the FPGA ----

struct EmuHarness {
  EmuHarness() : sim(), topo(sim) {
    zone.FillSynthetic(16);
    emu = std::make_unique<EmuDns>(&zone);
    FpgaNicConfig config;
    config.host_node = 1;
    config.device_node = 50;
    fpga = std::make_unique<FpgaNic>(sim, config);
    fpga->InstallApp(emu.get());
    net_link = topo.Connect(&client_side, fpga.get());
    fpga->SetNetworkLink(net_link);
    host_link = topo.Connect(fpga.get(), &host_side);
    fpga->SetHostLink(host_link);
    fpga->SetAppActive(true);
  }
  Packet Query(const std::string& name, uint64_t id = 1) {
    DnsMessage query;
    query.id = static_cast<uint16_t>(id);
    query.questions.push_back(DnsQuestion{name, kDnsTypeA, kDnsClassIn});
    Packet pkt;
    pkt.src = 100;
    pkt.dst = 1;
    pkt.proto = AppProto::kDns;
    pkt.size_bytes = DnsWireBytes(query);
    pkt.id = id;
    pkt.payload = query;
    return pkt;
  }
  struct Collector : PacketSink {
    void Receive(Packet packet) override { packets.push_back(std::move(packet)); }
    std::string SinkName() const override { return "side"; }
    std::vector<Packet> packets;
  };
  Simulation sim;
  Topology topo;
  Zone zone;
  Collector client_side;
  Collector host_side;
  std::unique_ptr<EmuDns> emu;
  std::unique_ptr<FpgaNic> fpga;
  Link* net_link;
  Link* host_link;
};

TEST(EmuDnsTest, AnswersKnownName) {
  EmuHarness h;
  h.fpga->Receive(h.Query(Zone::SyntheticName(3)));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 1u);
  const auto& resp = PayloadAs<DnsMessage>(h.client_side.packets[0]);
  EXPECT_EQ(resp.rcode, DnsRcode::kNoError);
  EXPECT_EQ(h.emu->answered(), 1u);
}

TEST(EmuDnsTest, NxDomainForUnknownName) {
  EmuHarness h;
  h.fpga->Receive(h.Query("unknown.absent.example"));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 1u);
  EXPECT_EQ(PayloadAs<DnsMessage>(h.client_side.packets[0]).rcode, DnsRcode::kNxDomain);
  EXPECT_EQ(h.emu->nxdomain(), 1u);
}

TEST(EmuDnsTest, DeepNamesPuntToHost) {
  EmuHarness h;
  h.fpga->Receive(h.Query("a.b.c.d.e.f.g.h.i.j.k"));  // 11 labels > 8 budget.
  h.sim.Run();
  EXPECT_EQ(h.emu->punted_to_host(), 1u);
  EXPECT_EQ(h.host_side.packets.size(), 1u);
  EXPECT_TRUE(h.client_side.packets.empty());
}

TEST(EmuDnsTest, MatchesHardwareAndSoftwareAnswers) {
  // The §9.2 requirement: the shift is invisible — HW and SW produce the
  // same resolution result.
  EmuHarness h;
  DnsMessage query;
  query.id = 9;
  query.questions.push_back(
      DnsQuestion{Zone::SyntheticName(5), kDnsTypeA, kDnsClassIn});
  const DnsMessage sw = NsdServer::Resolve(h.zone, query);
  h.fpga->Receive(h.Query(Zone::SyntheticName(5), 9));
  h.sim.Run();
  ASSERT_EQ(h.client_side.packets.size(), 1u);
  const auto& hw = PayloadAs<DnsMessage>(h.client_side.packets[0]);
  EXPECT_EQ(hw.rcode, sw.rcode);
  ASSERT_EQ(hw.answers.size(), sw.answers.size());
  EXPECT_EQ(RdataToIpv4(hw.answers[0].rdata), RdataToIpv4(sw.answers[0].rdata));
}

TEST(EmuDnsTest, NonPipelinedCapacityIsAboutOneMqps) {
  EmuHarness h;
  // Offer 2 Mqps for 10 ms: ~1 M served per second means ~10 K responses.
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    h.sim.Schedule(i * 500, [&h, i] {
      h.fpga->Receive(h.Query(Zone::SyntheticName(i % 16), i + 1));
    });
  }
  h.sim.RunUntil(Milliseconds(11));
  const double rate = static_cast<double>(h.client_side.packets.size()) / 0.011;
  EXPECT_GT(rate, 0.8e6);
  EXPECT_LT(rate, 1.2e6);
}

TEST(EmuDnsTest, PowerModulesTotalOnePointFive) {
  EmuHarness h;
  double watts = 0;
  for (const auto& m : h.emu->PowerModules()) {
    watts += m.active_watts;
  }
  EXPECT_NEAR(watts, 1.5, 1e-9);
}

TEST(EmuDnsTest, RejectsNullZone) {
  EXPECT_THROW(EmuDns(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace incod
