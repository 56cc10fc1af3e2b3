#include "src/paxos/paxos_client.h"

#include <stdexcept>
#include <utility>

namespace incod {

PaxosClient::PaxosClient(Simulation& sim, PaxosClientConfig config)
    : sim_(sim), config_(std::move(config)) {
  // The client draws nothing, but its fork of the root stream stays: every
  // component built after it forks from the stream this advances.
  sim.rng().Fork();
  if (config_.requests_per_second <= 0) {
    throw std::invalid_argument("PaxosClient: rate must be > 0");
  }
  if (config_.leader_service == 0) {
    throw std::invalid_argument("PaxosClient: leader_service required");
  }
}

void PaxosClient::Start() {
  SendNext();
  RollBucket();
}

void PaxosClient::RollBucket() {
  sim_.Schedule(config_.rate_bucket, [this] {
    const double rate =
        static_cast<double>(bucket_completions_) / ToSeconds(config_.rate_bucket);
    completion_series_.Append(sim_.Now(), rate);
    bucket_completions_ = 0;
    if (sim_.Now() < stop_at_) {
      RollBucket();
    }
  });
}

void PaxosClient::SendNext() {
  if (sim_.Now() >= stop_at_) {
    return;
  }
  sim_.Schedule(SecondsF(1.0 / config_.requests_per_second), [this] {
    if (sim_.Now() >= stop_at_) {
      return;
    }
    // Value ids are globally unique and non-zero: node in the top bits.
    const PaxosValue value =
        (static_cast<PaxosValue>(config_.node) << 32) | next_seq_++;
    outstanding_[value] = Pending{sim_.Now(), 0};
    SendRequest(value, /*is_retry=*/false);
    SendNext();
  });
}

void PaxosClient::SendRequest(PaxosValue value, bool is_retry) {
  auto it = outstanding_.find(value);
  if (it == outstanding_.end()) {
    return;
  }
  ++it->second.attempts;
  if (is_retry) {
    retries_.Increment();
  } else {
    sent_.Increment();
  }
  PaxosMessage msg;
  msg.type = PaxosMsgType::kClientRequest;
  msg.value = value;
  msg.client = config_.node;
  if (uplink_ == nullptr) {
    throw std::logic_error("PaxosClient: no uplink");
  }
  uplink_->Send(this, MakePaxosPacket(config_.node, config_.leader_service, msg,
                                      sim_.Now()));
  ArmTimeout(value);
}

void PaxosClient::ArmTimeout(PaxosValue value) {
  sim_.Schedule(config_.retry_timeout, [this, value] {
    auto it = outstanding_.find(value);
    if (it == outstanding_.end()) {
      return;  // Completed meanwhile.
    }
    if (it->second.attempts > config_.max_retries) {
      abandoned_.Increment();
      outstanding_.erase(it);
      return;
    }
    SendRequest(value, /*is_retry=*/true);
  });
}

void PaxosClient::Receive(Packet packet) {
  const PaxosMessage* msg_if = PayloadIf<PaxosMessage>(packet);
  if (msg_if == nullptr) {
    return;
  }
  const PaxosMessage& msg = *msg_if;
  if (msg.type != PaxosMsgType::kClientResponse) {
    return;
  }
  auto it = outstanding_.find(msg.value);
  if (it == outstanding_.end()) {
    return;  // Duplicate response (e.g. re-proposed during migration).
  }
  completed_.Increment();
  ++bucket_completions_;
  latency_.Record(static_cast<uint64_t>(sim_.Now() - it->second.first_sent));
  outstanding_.erase(it);
}

}  // namespace incod
