// Paxos client: open-loop request generator with the §9.2 retry behaviour.
//
// "The clients resend requests after a time-out period if the learner has
// not acknowledged." During a leader shift the throughput drops to zero for
// about the client timeout (100 ms in Fig 7) and recovers when retries reach
// the new leader.
#ifndef INCOD_SRC_PAXOS_PAXOS_CLIENT_H_
#define INCOD_SRC_PAXOS_PAXOS_CLIENT_H_

#include <string>

#include "src/net/link.h"
#include "src/paxos/paxos_msg.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/stats/request_window.h"
#include "src/stats/timeseries.h"

namespace incod {

struct PaxosClientConfig {
  NodeId node = 100;
  NodeId leader_service = 0;
  double requests_per_second = 10000;  // Constant spacing (OSNT-like).
  SimDuration retry_timeout = Milliseconds(100);  // Fig 7's client timeout.
  int max_retries = 20;
  // Completed-request rate series bucket (for the Fig 7 timeline).
  SimDuration rate_bucket = Milliseconds(100);
};

class PaxosClient : public PacketSink {
 public:
  PaxosClient(Simulation& sim, PaxosClientConfig config);

  void SetUplink(Link* link) { uplink_ = link; }

  // Starts issuing requests at `config.requests_per_second` until StopAt.
  void Start();
  void StopAt(SimTime at) { stop_at_ = at; }

  void Receive(Packet packet) override;
  std::string SinkName() const override { return "paxos-client"; }

  uint64_t sent() const { return sent_.value(); }
  uint64_t completed() const { return completed_.value(); }
  uint64_t retries() const { return retries_.value(); }
  uint64_t timeouts_abandoned() const { return abandoned_.value(); }
  size_t outstanding() const { return window_.outstanding(); }

  // End-to-end request latency (first send to response), nanoseconds.
  const Histogram& latency() const { return latency_; }
  // Completed requests per second over time (bucketed).
  const TimeSeries& completion_rate() const { return completion_series_; }
  Histogram& mutable_latency() { return latency_; }

 private:
  void SendNext();
  // Sends attempt number `attempt` (1: the first send) of request `seq`.
  void SendRequest(uint64_t seq, int attempt);
  void ArmTimeout(uint64_t seq, int attempts);
  void RollBucket();

  Simulation& sim_;
  PaxosClientConfig config_;
  Link* uplink_ = nullptr;
  SimTime stop_at_ = INT64_MAX;
  // Outstanding requests by sequence number (the low 32 bits of their
  // value), with their first send time.
  RequestWindow window_;
  Counter sent_;
  Counter completed_;
  Counter retries_;
  Counter abandoned_;
  Histogram latency_;
  TimeSeries completion_series_{"paxos_completions_per_sec"};
  uint64_t bucket_completions_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_PAXOS_PAXOS_CLIENT_H_
