#include "src/device/offload_nic.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

OffloadNic::OffloadNic(Simulation& sim, std::string name, NodeId host_node,
                       NodeId device_node, SimDuration classifier_latency)
    : sim_(sim),
      name_(std::move(name)),
      host_node_(host_node),
      device_node_(device_node),
      classifier_latency_(classifier_latency) {}

void OffloadNic::AddApp(InstalledApp installed) {
  installed.app->BindContext(this);
  apps_.push_back(installed);
  if (app_active_) {
    installed.app->OnActivate();
  }
}

void OffloadNic::SetAppActive(bool active) {
  if (active && apps_.empty()) {
    throw std::logic_error(name_ + ": no app installed");
  }
  if (app_active_ == active) {
    return;
  }
  app_active_ = active;
  for (InstalledApp& installed : apps_) {
    if (active) {
      installed.app->OnActivate();
    } else {
      installed.app->OnDeactivate();
    }
  }
  OnParkStateChanged();
}

void OffloadNic::SetClockGating(bool enabled) {
  clock_gating_ = enabled;
  OnParkStateChanged();
}

void OffloadNic::SetMemoryReset(bool enabled) {
  const bool entering_reset = enabled && !memory_reset_;
  memory_reset_ = enabled;
  OnParkStateChanged();
  if (entering_reset) {
    for (InstalledApp& installed : apps_) {
      installed.app->OnMemoryReset();
    }
  }
}

void OffloadNic::SetReprogramming(bool reprogramming) {
  if (reprogramming && !Traits().supports_reprogramming) {
    return;  // Fixed-function engine: nothing to reprogram.
  }
  reprogramming_ = reprogramming;
}

int OffloadNic::ClaimingApp(const Packet& packet) const {
  for (size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].app->Matches(packet)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void OffloadNic::Receive(Packet packet) {
  if (reprogramming_) {
    dropped_.Increment();
    return;
  }
  if (packet.src == host_node_) {
    // Host egress: active apps observe their protocol on the way out
    // (LaKe-style fill from host replies after a miss).
    if (app_active_ && !engine_dead()) {
      for (InstalledApp& installed : apps_) {
        if (installed.app->Matches(packet)) {
          installed.app->OnHostEgress(*this, packet);
        }
      }
    }
    TransmitToNetwork(std::move(packet));
    return;
  }
  const int claimed = ClaimingApp(packet);
  if (claimed >= 0) {
    app_ingress_.Increment();
    app_ingress_rate_.RecordEvent(sim_.Now());
    if (app_active_) {
      if (engine_dead()) {
        // The classifier still steers into the dead engine: the packet is
        // lost, neither serviced nor punted, until recovery flips the
        // classifier and the host placement is authoritative again.
        dead_dropped_.Increment();
        return;
      }
      const auto index = static_cast<size_t>(claimed);
      if (classifier_latency_ > 0) {
        sim_.Schedule(classifier_latency_,
                      [this, index, pkt = std::move(packet)]() mutable {
                        Admit(index, std::move(pkt));
                      });
      } else {
        Admit(index, std::move(packet));
      }
      return;
    }
  }
  DeliverToHost(std::move(packet));
}

void OffloadNic::Admit(size_t app_index, Packet&& packet) {
  if (engine_dead()) {
    dead_dropped_.Increment();
    return;
  }
  const InstalledApp& installed = apps_[app_index];
  const SimTime now = sim_.Now();
  // The worker that frees up first (the input arbiter).
  SimTime& worker = *std::min_element(busy_until_.begin(), busy_until_.end());
  const SimTime start = std::max(now, worker);
  const double backlog = static_cast<double>(start - now) /
                         static_cast<double>(std::max<SimDuration>(installed.service, 1));
  if (backlog > static_cast<double>(installed.queue_capacity)) {
    dropped_.Increment();
    return;
  }
  worker = start + installed.service;
  auto complete = [this, app_index, pkt = std::move(packet)]() mutable {
    if (engine_dead()) {
      // Killed while this packet sat in the engine: the completion must not
      // run app code against dead hardware.
      dead_dropped_.Increment();
      return;
    }
    processed_.Increment();
    processed_rate_.RecordEvent(sim_.Now());
    apps_[app_index].app->HandlePacket(*this, std::move(pkt));
  };
  static_assert(sizeof(complete) <= InlineEvent::kInlineCapacity,
                "offload engine completions must stay inline");
  sim_.ScheduleAt(start + installed.service + installed.latency, std::move(complete));
}

void OffloadNic::TransmitToNetwork(Packet&& packet) {
  if (net_link_ == nullptr) {
    throw std::logic_error(name_ + ": no network link");
  }
  net_link_->Send(this, std::move(packet));
}

void OffloadNic::DeliverToHost(Packet&& packet) {
  if (host_link_ == nullptr) {
    dropped_.Increment();
    return;
  }
  to_host_.Increment();
  host_link_->Send(this, std::move(packet));
}

double OffloadNic::ProcessedRatePerSecond() const {
  return processed_rate_.RatePerSecond(sim_.Now());
}

double OffloadNic::AppIngressRatePerSecond() const {
  return app_ingress_rate_.RatePerSecond(sim_.Now());
}

double OffloadNic::Utilization() const {
  const double capacity = OffloadCapacityPps();
  if (capacity <= 0) {
    return 0;
  }
  return std::min(1.0, ProcessedRatePerSecond() / capacity);
}

}  // namespace incod
