// Generic open-loop load client (OSNT / mutilate stand-in).
//
// Sends application requests produced by a RequestFactory at the configured
// arrival process, matches responses by request id, and records end-to-end
// latency and completion-rate time series. Used for the KVS and DNS sweeps;
// Paxos has its own client with retry semantics (paxos/paxos_client.h).
#ifndef INCOD_SRC_WORKLOAD_CLIENT_H_
#define INCOD_SRC_WORKLOAD_CLIENT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/net/flow_control.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/stats/request_window.h"
#include "src/stats/timeseries.h"
#include "src/workload/arrival.h"

namespace incod {

// Builds the next request packet. `id` is the unique request id the client
// uses for matching; implementations must store it in packet.id.
using RequestFactory = std::function<Packet(NodeId src, uint64_t id, SimTime now, Rng& rng)>;

struct LoadClientConfig {
  std::string name = "client";
  NodeId node = 100;
  SimDuration rate_bucket = Milliseconds(100);  // Completion-series bucket.
  // Outstanding requests are abandoned (counted as lost) after this long.
  SimDuration loss_timeout = Seconds(1);
  // DCQCN sender rate control: requests are still *generated* on the
  // arrival schedule (RNG stream identity is preserved), but transmission
  // is paced by the rate machine, which reacts to CNPs from receivers and
  // holds while the uplink is PFC-congested. Queueing at the source shows
  // up as end-to-end latency — overload becomes slowdown, not loss.
  DcqcnConfig dcqcn;
};

class LoadClient : public PacketSink, public FlowListener {
 public:
  LoadClient(Simulation& sim, LoadClientConfig config, std::unique_ptr<ArrivalProcess> arrival,
             RequestFactory factory);

  void SetUplink(Link* link) {
    uplink_ = link;
    if (dcqcn_ != nullptr) {
      dcqcn_->AttachUplink(link, this);
    }
    if (link != nullptr && link->config().flow.pfc) {
      link->SetFlowListener(this, this);
    }
  }

  void Start();
  void StopAt(SimTime at) { stop_at_ = at; }

  void Receive(Packet packet) override;
  std::string SinkName() const override { return config_.name; }

  // FlowListener: our own uplink's transmit backlog crossed a watermark.
  // Holds/releases the DCQCN pacer so the source queues instead of piling
  // into the paused link queue.
  void OnLinkCongestion(Link* link, bool congested) override;

  // The DCQCN rate machine (nullptr unless config.dcqcn.enabled).
  const DcqcnRateController* dcqcn() const { return dcqcn_.get(); }

  uint64_t sent() const { return sent_.value(); }
  uint64_t received() const { return received_.value(); }
  uint64_t lost() const { return lost_.value(); }
  size_t outstanding() const { return window_.outstanding(); }
  double LossFraction() const;

  const Histogram& latency() const { return latency_; }
  // Mutable access for windowed sampling (benches reset it per interval).
  Histogram& mutable_latency() { return latency_; }
  const TimeSeries& completion_rate() const { return completion_series_; }
  ArrivalProcess& arrival() { return *arrival_; }

  // Resets measurement state (latency, counters) without stopping traffic;
  // used after warm-up phases.
  void ResetStats();

 private:
  void SendNext();
  void RollBucket();
  void SweepTimeouts();

  Simulation& sim_;
  LoadClientConfig config_;
  std::unique_ptr<ArrivalProcess> arrival_;
  RequestFactory factory_;
  Link* uplink_ = nullptr;
  SimTime stop_at_ = INT64_MAX;
  RequestWindow window_;  // Outstanding requests by id.
  Counter sent_;
  Counter received_;
  Counter lost_;
  Histogram latency_;
  TimeSeries completion_series_{"completions_per_sec"};
  uint64_t bucket_completions_ = 0;
  Rng rng_;
  std::unique_ptr<DcqcnRateController> dcqcn_;
};

}  // namespace incod

#endif  // INCOD_SRC_WORKLOAD_CLIENT_H_
