// Tests for arrival processes, the load client, ETC, and trace synthesis.
#include <gtest/gtest.h>

#include <memory>

#include "src/net/topology.h"
#include "src/sim/simulation.h"
#include "src/workload/arrival.h"
#include "src/workload/client.h"
#include "src/workload/dns_workload.h"
#include "src/workload/dynamo.h"
#include "src/workload/etc_workload.h"
#include "src/workload/google_trace.h"

namespace incod {
namespace {

TEST(ArrivalTest, ConstantGapsAreEven) {
  Rng rng(1);
  ConstantArrival arrival(1000.0);  // 1 ms gaps.
  EXPECT_EQ(arrival.NextGap(rng), Milliseconds(1));
  EXPECT_EQ(arrival.NextGap(rng), Milliseconds(1));
  EXPECT_DOUBLE_EQ(arrival.TargetRate(), 1000.0);
  arrival.SetRate(2000.0);
  EXPECT_EQ(arrival.NextGap(rng), Microseconds(500));
}

TEST(ArrivalTest, PoissonMeanGapMatchesRate) {
  Rng rng(2);
  PoissonArrival arrival(10000.0);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(arrival.NextGap(rng));
  }
  EXPECT_NEAR(sum / n, 100000.0, 2000.0);  // 100 us mean gap.
}

TEST(ArrivalTest, RejectsNonPositiveRates) {
  EXPECT_THROW(ConstantArrival(0), std::invalid_argument);
  EXPECT_THROW(PoissonArrival(-5), std::invalid_argument);
  EXPECT_THROW(OnOffArrival(0, 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(OnOffArrival(1, 1, 0, 1), std::invalid_argument);
}

TEST(ArrivalTest, OnOffAlternatesPhases) {
  Rng rng(3);
  OnOffArrival arrival(1e6, 1e3, Milliseconds(10), Milliseconds(10));
  EXPECT_DOUBLE_EQ(arrival.TargetRate(), 1e6);
  // Drain more than one phase worth of gaps.
  SimDuration elapsed = 0;
  bool saw_off = false;
  for (int i = 0; i < 100000 && !saw_off; ++i) {
    elapsed += arrival.NextGap(rng);
    if (arrival.TargetRate() == 1e3) {
      saw_off = true;
    }
  }
  EXPECT_TRUE(saw_off);
}

// Echo service for the load client.
class EchoService : public PacketSink {
 public:
  explicit EchoService(Simulation& sim) : sim_(sim) {}
  void SetLink(Link* link) { link_ = link; }
  void Receive(Packet packet) override {
    ++requests;
    if (drop_next > 0) {
      --drop_next;
      return;
    }
    Packet reply;
    reply.src = packet.dst;
    reply.dst = packet.src;
    reply.proto = packet.proto;
    reply.id = packet.id;
    sim_.Schedule(Microseconds(5), [this, reply] { link_->Send(this, reply); });
  }
  std::string SinkName() const override { return "echo"; }
  int requests = 0;
  int drop_next = 0;

 private:
  Simulation& sim_;
  Link* link_ = nullptr;
};

RequestFactory RawFactory(NodeId dst) {
  return [dst](NodeId src, uint64_t id, SimTime now, Rng&) {
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.proto = AppProto::kRaw;
    pkt.id = id;
    pkt.created_at = now;
    return pkt;
  };
}

TEST(LoadClientTest, SendsAtConfiguredRateAndMeasuresLatency) {
  Simulation sim;
  Topology topo(sim);
  EchoService echo(sim);
  LoadClientConfig config;
  config.node = 100;
  LoadClient client(sim, config, std::make_unique<ConstantArrival>(10000.0),
                    RawFactory(1));
  Link* link = topo.Connect(&client, &echo);
  client.SetUplink(link);
  echo.SetLink(link);
  client.Start();
  sim.RunUntil(Milliseconds(100));
  EXPECT_NEAR(static_cast<double>(client.sent()), 1000.0, 10.0);
  EXPECT_EQ(client.received(),
            client.sent() - client.lost() - client.outstanding());
}

TEST(LoadClientTest, LostRepliesCountedAfterTimeout) {
  Simulation sim;
  Topology topo(sim);
  EchoService echo(sim);
  echo.drop_next = 5;
  LoadClientConfig config;
  config.loss_timeout = Milliseconds(100);
  LoadClient client(sim, config, std::make_unique<ConstantArrival>(1000.0),
                    RawFactory(1));
  Link* link = topo.Connect(&client, &echo);
  client.SetUplink(link);
  echo.SetLink(link);
  client.Start();
  sim.RunUntil(Milliseconds(500));
  EXPECT_EQ(client.lost(), 5u);
  EXPECT_GT(client.LossFraction(), 0.0);
}

TEST(LoadClientTest, LatencyHistogramPopulated) {
  Simulation sim;
  Topology topo(sim);
  EchoService echo(sim);
  LoadClient client(sim, LoadClientConfig{}, std::make_unique<ConstantArrival>(1000.0),
                    RawFactory(1));
  Link* link = topo.Connect(&client, &echo);
  client.SetUplink(link);
  echo.SetLink(link);
  client.Start();
  sim.RunUntil(Milliseconds(100));
  EXPECT_GT(client.latency().count(), 0u);
  // Echo adds 5 us; link adds serialization+propagation each way.
  EXPECT_GT(client.latency().P50(), static_cast<uint64_t>(Microseconds(5)));
  EXPECT_LT(client.latency().P50(), static_cast<uint64_t>(Microseconds(20)));
}

TEST(LoadClientTest, ResetStatsClears) {
  Simulation sim;
  Topology topo(sim);
  EchoService echo(sim);
  LoadClient client(sim, LoadClientConfig{}, std::make_unique<ConstantArrival>(1000.0),
                    RawFactory(1));
  Link* link = topo.Connect(&client, &echo);
  client.SetUplink(link);
  echo.SetLink(link);
  client.Start();
  sim.RunUntil(Milliseconds(50));
  client.ResetStats();
  EXPECT_EQ(client.sent(), 0u);
  EXPECT_EQ(client.latency().count(), 0u);
}

TEST(LoadClientTest, RejectsNullPieces) {
  Simulation sim;
  EXPECT_THROW(LoadClient(sim, LoadClientConfig{}, nullptr, RawFactory(1)),
               std::invalid_argument);
  EXPECT_THROW(LoadClient(sim, LoadClientConfig{},
                          std::make_unique<ConstantArrival>(1000.0), nullptr),
               std::invalid_argument);
}

TEST(EtcWorkloadTest, GetFractionRespected) {
  EtcWorkloadConfig config;
  config.kvs_service = 1;
  config.get_fraction = 0.97;
  EtcWorkload etc(config);
  Rng rng(5);
  int gets = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (etc.NextRequest(rng).op == KvOp::kGet) {
      ++gets;
    }
  }
  EXPECT_NEAR(static_cast<double>(gets) / n, 0.97, 0.005);
}

TEST(EtcWorkloadTest, KeyPopularityIsSkewed) {
  EtcWorkloadConfig config;
  config.kvs_service = 1;
  config.key_population = 100000;
  EtcWorkload etc(config);
  Rng rng(6);
  int top100 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (etc.NextRequest(rng).key < 100) {
      ++top100;
    }
  }
  EXPECT_GT(top100, n / 4);  // Zipf 0.99: heavy head.
}

TEST(EtcWorkloadTest, ValueSizesMostlySmall) {
  EtcWorkloadConfig config;
  config.kvs_service = 1;
  EtcWorkload etc(config);
  Rng rng(7);
  int small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint32_t bytes = etc.SampleValueBytes(rng);
    EXPECT_GE(bytes, 2u);
    EXPECT_LE(bytes, 4096u);
    if (bytes <= 500) {
      ++small;
    }
  }
  EXPECT_GT(static_cast<double>(small) / n, 0.8);  // ETC: bulk under 500 B.
}

TEST(EtcWorkloadTest, FactoryProducesKvPackets) {
  EtcWorkloadConfig config;
  config.kvs_service = 42;
  EtcWorkload etc(config);
  Rng rng(8);
  const Packet pkt = etc.MakeFactory()(100, 7, 123, rng);
  EXPECT_EQ(pkt.proto, AppProto::kKv);
  EXPECT_EQ(pkt.dst, 42u);
  EXPECT_TRUE(PayloadIs<KvRequest>(pkt));
}

TEST(EtcWorkloadTest, RejectsBadConfig) {
  EtcWorkloadConfig config;  // Missing service address.
  EXPECT_THROW(EtcWorkload{config}, std::invalid_argument);
  config.kvs_service = 1;
  config.get_fraction = 1.5;
  EXPECT_THROW(EtcWorkload{config}, std::invalid_argument);
}

TEST(DnsWorkloadTest, FactoryProducesValidQueries) {
  DnsWorkloadConfig config;
  config.dns_service = 9;
  config.zone_size = 100;
  auto factory = MakeDnsRequestFactory(config);
  Rng rng(9);
  const Packet pkt = factory(100, 1, 0, rng);
  EXPECT_EQ(pkt.proto, AppProto::kDns);
  const auto& query = PayloadAs<DnsMessage>(pkt);
  ASSERT_EQ(query.questions.size(), 1u);
  EXPECT_TRUE(IsValidDnsName(query.questions[0].name));
}

TEST(DnsWorkloadTest, MissFractionGeneratesAbsentNames) {
  DnsWorkloadConfig config;
  config.dns_service = 9;
  config.miss_fraction = 1.0;
  auto factory = MakeDnsRequestFactory(config);
  Rng rng(10);
  const Packet pkt = factory(100, 1, 0, rng);
  const auto& query = PayloadAs<DnsMessage>(pkt);
  EXPECT_NE(query.questions[0].name.find("absent"), std::string::npos);
}

TEST(GoogleTraceTest, LongJobsDriveUtilization) {
  Rng rng(11);
  GoogleTraceConfig config;
  config.num_tasks = 50000;
  const auto tasks = SynthesizeGoogleTrace(config, rng);
  EXPECT_EQ(tasks.size(), 50000u);
  // ~90 % of core-seconds from jobs >= 2 h (§9.3).
  const double share = LongJobUtilizationShare(tasks, 2 * 3600);
  EXPECT_GT(share, 0.80);
  EXPECT_LT(share, 0.98);
}

TEST(GoogleTraceTest, OffloadCandidateAnalysis) {
  Rng rng(12);
  GoogleTraceConfig config;
  config.num_tasks = 50000;
  config.num_nodes = 500;
  const auto tasks = SynthesizeGoogleTrace(config, rng);
  const auto stats = AnalyzeOffloadCandidates(tasks, config.num_nodes);
  EXPECT_GT(stats.candidate_tasks, 0u);
  EXPECT_GT(stats.utilization_share, 0.5);
  EXPECT_GT(stats.mean_candidate_cores_per_node, 0.0);
  // Candidates are a minority of tasks but the bulk of utilization.
  EXPECT_LT(stats.candidate_fraction, 0.5);
}

TEST(GoogleTraceTest, DiurnalAmplitudeShapesStartDensity) {
  GoogleTraceConfig config;
  config.num_tasks = 50000;
  config.diurnal_amplitude = 0.8;
  // Density bottoms at the day start (phase -pi/2) and peaks mid-day.
  EXPECT_NEAR(DiurnalDensity(config, 0), 0.2, 1e-9);
  EXPECT_NEAR(DiurnalDensity(config, kTraceHorizonSeconds / 2), 1.8, 1e-9);
  Rng rng(15);
  const auto tasks = SynthesizeGoogleTrace(config, rng);
  uint64_t first_quarter = 0, mid_half = 0;
  for (const TraceTask& task : tasks) {
    if (task.start_seconds < kTraceHorizonSeconds / 4) {
      ++first_quarter;
    }
    if (task.start_seconds >= kTraceHorizonSeconds / 4 &&
        task.start_seconds < 3 * kTraceHorizonSeconds / 4) {
      ++mid_half;
    }
  }
  // Starts pile mid-day: the middle half draws far more than the off-peak
  // first quarter (a uniform trace would put ~25 % in each quarter).
  EXPECT_GT(mid_half, 2 * first_quarter);
}

TEST(GoogleTraceTest, ZeroAmplitudeKeepsHistoricalStream) {
  GoogleTraceConfig config;
  config.num_tasks = 2000;
  {
    // Amplitude 0 must be draw-for-draw the historical uniform stream.
    Rng a(16), b(16);
    const auto uniform = SynthesizeGoogleTrace(config, a);
    GoogleTraceConfig flat = config;
    flat.diurnal_amplitude = 0;
    const auto same = SynthesizeGoogleTrace(flat, b);
    ASSERT_EQ(uniform.size(), same.size());
    for (size_t i = 0; i < uniform.size(); ++i) {
      EXPECT_EQ(uniform[i].start_seconds, same[i].start_seconds) << "task " << i;
      EXPECT_EQ(uniform[i].node, same[i].node) << "task " << i;
    }
  }
  GoogleTraceConfig bad = config;
  bad.diurnal_amplitude = 1.5;
  Rng rng(17);
  EXPECT_THROW(SynthesizeGoogleTrace(bad, rng), std::invalid_argument);
}

TEST(GoogleTraceTest, EmptyInputsHandled) {
  const auto stats = AnalyzeOffloadCandidates({}, 10);
  EXPECT_EQ(stats.candidate_tasks, 0u);
  Rng rng(13);
  GoogleTraceConfig config;
  config.num_tasks = 0;
  EXPECT_THROW(SynthesizeGoogleTrace(config, rng), std::invalid_argument);
}

TEST(DynamoTest, TraceHasConfiguredMean) {
  Rng rng(14);
  PowerTraceConfig config;
  config.mean_watts = 500;
  config.sigma_watts = 10;
  config.num_samples = 5000;
  const auto trace = SynthesizePowerTrace(config, rng);
  double sum = 0;
  for (double w : trace) {
    sum += w;
  }
  EXPECT_NEAR(sum / static_cast<double>(trace.size()), 500.0, 25.0);
}

TEST(DynamoTest, WebTierVariesMoreThanCaching) {
  // §9.3: web 37.2 % median variation vs caching 9.2 % over 60 s.
  Rng rng1(15);
  Rng rng2(15);
  const auto caching = SynthesizePowerTrace(DynamoCachingTraceConfig(), rng1);
  const auto web = SynthesizePowerTrace(DynamoWebTraceConfig(), rng2);
  const auto caching_stats = AnalyzePowerVariation(caching, 1.0, 60.0);
  const auto web_stats = AnalyzePowerVariation(web, 1.0, 60.0);
  EXPECT_GT(web_stats.median, caching_stats.median);
  EXPECT_GT(web_stats.p99, caching_stats.p99);
}

TEST(DynamoTest, LongerWindowsVaryMore) {
  // Dynamo: 12.8 % p99 over 3 s but 26.6 % over 30 s.
  Rng rng(16);
  const auto trace = SynthesizePowerTrace(DynamoCachingTraceConfig(), rng);
  const auto short_window = AnalyzePowerVariation(trace, 1.0, 3.0);
  const auto long_window = AnalyzePowerVariation(trace, 1.0, 30.0);
  EXPECT_GT(long_window.p99, short_window.p99);
}

TEST(DynamoTest, SafetyRule) {
  PowerVariationStats low{0.05, 0.12};
  PowerVariationStats high{0.37, 0.62};
  EXPECT_TRUE(SafeForInNetworkPlacement(low));
  EXPECT_FALSE(SafeForInNetworkPlacement(high));
}

TEST(DynamoTest, DegenerateInputs) {
  EXPECT_EQ(AnalyzePowerVariation({}, 1.0, 3.0).p99, 0.0);
  EXPECT_EQ(AnalyzePowerVariation({1.0}, 1.0, 30.0).p99, 0.0);
  Rng rng(17);
  PowerTraceConfig config;
  config.num_samples = 0;
  EXPECT_THROW(SynthesizePowerTrace(config, rng), std::invalid_argument);
  config.num_samples = 10;
  config.ar1_coefficient = 1.5;
  EXPECT_THROW(SynthesizePowerTrace(config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace incod
