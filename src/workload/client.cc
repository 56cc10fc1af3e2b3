#include "src/workload/client.h"

#include <optional>
#include <stdexcept>
#include <utility>

namespace incod {

LoadClient::LoadClient(Simulation& sim, LoadClientConfig config,
                       std::unique_ptr<ArrivalProcess> arrival, RequestFactory factory)
    : sim_(sim),
      config_(std::move(config)),
      arrival_(std::move(arrival)),
      factory_(std::move(factory)),
      rng_(sim.rng().Fork()) {
  if (arrival_ == nullptr) {
    throw std::invalid_argument("LoadClient: null arrival process");
  }
  if (factory_ == nullptr) {
    throw std::invalid_argument("LoadClient: null request factory");
  }
  if (config_.dcqcn.enabled) {
    dcqcn_ = std::make_unique<DcqcnRateController>(sim_, config_.dcqcn);
  }
}

void LoadClient::Start() {
  SendNext();
  RollBucket();
  SweepTimeouts();
}

void LoadClient::SendNext() {
  if (sim_.Now() >= stop_at_) {
    return;
  }
  sim_.Schedule(arrival_->NextGap(rng_), [this] {
    if (sim_.Now() >= stop_at_) {
      return;
    }
    const uint64_t id = window_.Open(sim_.Now());
    Packet pkt = factory_(config_.node, id, sim_.Now(), rng_);
    pkt.src = config_.node;
    pkt.id = id;
    pkt.created_at = sim_.Now();
    sent_.Increment();
    if (uplink_ == nullptr) {
      throw std::logic_error("LoadClient: no uplink");
    }
    if (dcqcn_ != nullptr) {
      dcqcn_->Submit(std::move(pkt));
    } else {
      uplink_->Send(this, std::move(pkt));
    }
    SendNext();
  });
}

void LoadClient::RollBucket() {
  sim_.Schedule(config_.rate_bucket, [this] {
    completion_series_.Append(
        sim_.Now(),
        static_cast<double>(bucket_completions_) / ToSeconds(config_.rate_bucket));
    bucket_completions_ = 0;
    if (sim_.Now() < stop_at_) {
      RollBucket();
    }
  });
}

void LoadClient::SweepTimeouts() {
  sim_.Schedule(config_.loss_timeout, [this] {
    lost_.Increment(window_.ExpireBefore(sim_.Now() - config_.loss_timeout));
    if (sim_.Now() < stop_at_) {
      SweepTimeouts();
    }
  });
}

void LoadClient::Receive(Packet packet) {
  if (const auto* ctrl = PayloadIf<ControlMessage>(packet)) {
    if (ctrl->kind == ControlMessage::Kind::kCongestion) {
      // CNP from a receiver: not a response, feed the rate machine.
      if (dcqcn_ != nullptr) {
        dcqcn_->OnCnp();
      }
      return;
    }
  }
  const std::optional<SimTime> sent_at = window_.Close(packet.id);
  if (!sent_at.has_value()) {
    return;  // Late or duplicate response.
  }
  received_.Increment();
  ++bucket_completions_;
  latency_.Record(static_cast<uint64_t>(sim_.Now() - *sent_at));
}

void LoadClient::OnLinkCongestion(Link* link, bool congested) {
  (void)link;
  if (dcqcn_ != nullptr) {
    dcqcn_->SetUplinkCongested(congested);
  }
}

double LoadClient::LossFraction() const {
  const uint64_t total = sent_.value();
  return total == 0 ? 0.0 : static_cast<double>(lost_.value()) / static_cast<double>(total);
}

void LoadClient::ResetStats() {
  sent_.Reset();
  received_.Reset();
  lost_.Reset();
  latency_.Reset();
  bucket_completions_ = 0;
}

}  // namespace incod
