#include "src/paxos/paxos_client.h"

#include <optional>
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
    SendRequest(window_.Open(sim_.Now()), /*attempt=*/1);
    SendNext();
  });
}

void PaxosClient::SendRequest(uint64_t seq, int attempt) {
  if (attempt > 1) {
    retries_.Increment();
  } else {
    sent_.Increment();
  }
  PaxosMessage msg;
  msg.type = PaxosMsgType::kClientRequest;
  // Value ids are globally unique and non-zero: node in the top bits.
  msg.value = (static_cast<PaxosValue>(config_.node) << 32) | seq;
  msg.client = config_.node;
  if (uplink_ == nullptr) {
    throw std::logic_error("PaxosClient: no uplink");
  }
  uplink_->Send(this, MakePaxosPacket(config_.node, config_.leader_service, msg,
                                      sim_.Now()));
  ArmTimeout(seq, attempt);
}

void PaxosClient::ArmTimeout(uint64_t seq, int attempts) {
  sim_.Schedule(config_.retry_timeout, [this, seq, attempts] {
    if (!window_.IsOpen(seq)) {
      return;  // Completed meanwhile.
    }
    if (attempts > config_.max_retries) {
      abandoned_.Increment();
      window_.Close(seq);
      return;
    }
    SendRequest(seq, attempts + 1);
  });
}

void PaxosClient::Receive(Packet packet) {
  const PaxosMessage* msg_if = PayloadIf<PaxosMessage>(packet);
  if (msg_if == nullptr) {
    return;
  }
  const PaxosMessage& msg = *msg_if;
  if (msg.type != PaxosMsgType::kClientResponse ||
      msg.value >> 32 != static_cast<PaxosValue>(config_.node)) {
    return;
  }
  const std::optional<SimTime> first_sent = window_.Close(msg.value & 0xffffffffu);
  if (!first_sent.has_value()) {
    return;  // Duplicate response (e.g. re-proposed during migration).
  }
  completed_.Increment();
  ++bucket_completions_;
  latency_.Record(static_cast<uint64_t>(sim_.Now() - *first_sent));
}

}  // namespace incod
