#include "src/host/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace incod {

Server::Server(Simulation& sim, ServerConfig config)
    : sim_(sim),
      config_(std::move(config)),
      cpu_power_(config_.name + "/cpu", config_.num_cores, config_.power_curve) {
  if (config_.num_cores < 1) {
    throw std::invalid_argument("Server: num_cores must be >= 1");
  }
  if (config_.flow.pfc && config_.flow.pause_low_watermark >= config_.flow.pause_high_watermark) {
    // The ingress-pause latch would clear right after it sets: a
    // pause/resume pair per packet instead of holding the uplink.
    throw std::invalid_argument("Server " + config_.name +
                                ": PFC pause_low_watermark must be < pause_high_watermark");
  }
  last_sample_at_ = sim_.Now();
}

void Server::BindApp(App* app) {
  if (app == nullptr) {
    throw std::invalid_argument("Server::BindApp: null app");
  }
  if (!app->SupportsPlacement(PlacementKind::kHost)) {
    throw std::invalid_argument("Server::BindApp: " + app->AppName() +
                                " does not support the host placement");
  }
  const HostPlacementProfile profile = app->HostProfile();
  for (const auto& existing : apps_) {
    if (existing->app->proto() == app->proto() &&
        existing->service_address == profile.service_address) {
      throw std::invalid_argument("Server::BindApp: protocol/service already bound");
    }
  }
  auto bound = std::make_unique<BoundApp>();
  bound->app = app;
  bound->service_address = profile.service_address;
  const int threads = std::max(1, std::min(profile.num_threads, config_.num_cores));
  bound->threads.resize(static_cast<size_t>(threads));
  apps_.push_back(std::move(bound));
  app->BindContext(this);
}

App* Server::AppFor(AppProto proto) const {
  for (const auto& bound : apps_) {
    if (bound->app->proto() == proto) {
      return bound->app;
    }
  }
  return nullptr;
}

Server::BoundApp* Server::FindBound(const Packet& packet) {
  BoundApp* fallback = nullptr;
  for (const auto& bound : apps_) {
    if (bound->app->proto() != packet.proto) {
      continue;
    }
    const auto& service = bound->service_address;
    if (service.has_value()) {
      if (*service == packet.dst) {
        return bound.get();
      }
    } else if (fallback == nullptr) {
      fallback = bound.get();
    }
  }
  return fallback;
}

void Server::Receive(Packet packet) {
  received_.Increment();
  BoundApp* found = FindBound(packet);
  if (found == nullptr) {
    // No application for this packet: host OS drops it.
    dropped_no_app_.Increment();
    return;
  }
  if (config_.flow.cnp && packet.ecn) {
    // The packet crossed a congested queue on the way here: DCQCN
    // notification point, CNP back to the sender (rate-limited per source).
    MaybeSendCnp(packet);
  }
  BoundApp& bound = *found;
  const size_t index = PickThread(bound, packet);
  WorkerThread& thread = bound.threads[index];
  if (thread.queue.size() >= config_.rx_queue_capacity) {
    dropped_overflow_.Increment();
    return;
  }
  thread.queue.push_back(std::move(packet));
  ++rx_queued_;
  MaybeUpdateIngressPause();
  if (!thread.busy) {
    StartService(bound, index);
  }
}

size_t Server::PickThread(const BoundApp& bound, const Packet& packet) const {
  if (config_.dispatch == HostDispatch::kRssHash) {
    // RSS steering: the flow hash pins a flow to one worker (the same hash
    // the mechanistic NIC uses for its rx queues). Collisions mean real
    // imbalance — the price of hardware dispatch over the ideal below.
    return static_cast<size_t>(FlowHash(packet) % bound.threads.size());
  }
  // Idealized least-loaded dispatch (shortest queue wins).
  size_t best = 0;
  size_t best_depth = SIZE_MAX;
  for (size_t i = 0; i < bound.threads.size(); ++i) {
    const size_t depth = bound.threads[i].queue.size() + (bound.threads[i].busy ? 1 : 0);
    if (depth < best_depth) {
      best_depth = depth;
      best = i;
    }
  }
  return best;
}

void Server::MaybeUpdateIngressPause() {
  if (!config_.flow.pfc || uplink_ == nullptr || !uplink_->config().flow.pfc) {
    return;
  }
  if (!ingress_paused_ && rx_queued_ >= config_.flow.pause_high_watermark) {
    ingress_paused_ = true;
    pauses_sent_.Increment();
    uplink_->PauseUpstream(this, true);
  } else if (ingress_paused_ && rx_queued_ <= config_.flow.pause_low_watermark) {
    ingress_paused_ = false;
    uplink_->PauseUpstream(this, false);
  }
}

void Server::MaybeSendCnp(const Packet& packet) {
  const SimTime now = sim_.Now();
  auto [it, first] = last_cnp_at_.try_emplace(packet.src, now);
  if (!first) {
    if (now - it->second < kCnpMinInterval) {
      return;
    }
    it->second = now;
  }
  ControlMessage msg;
  msg.kind = ControlMessage::Kind::kCongestion;
  msg.target_proto = packet.proto;
  cnps_sent_.Increment();
  Transmit(MakeControlPacket(config_.node, packet.src, msg, 0, now));
}

void Server::StartService(BoundApp& bound, size_t thread_index) {
  WorkerThread& thread = bound.threads[thread_index];
  if (thread.queue.empty()) {
    thread.busy = false;
    return;
  }
  thread.busy = true;
  Packet pkt = std::move(thread.queue.front());
  thread.queue.pop_front();
  --rx_queued_;
  MaybeUpdateIngressPause();
  // Per-packet stack cost follows the stack type: the kernel's socket path
  // vs the DPDK poll-mode fast path (the kDpdk "low per-packet cost"
  // contract above).
  const SimDuration rx_cost = config_.stack == NetStackType::kDpdk
                                  ? kDpdkStackRxCost
                                  : config_.stack_rx_cost;
  SimDuration service =
      rx_cost + bound.app->CpuTimePerRequest(pkt) + config_.stack_tx_cost;
  if (pkt.irq && config_.stack == NetStackType::kKernel) {
    // First packet of an interrupt batch: the irq handler runs on this
    // core before the request is serviced.
    irqs_serviced_.Increment();
    service += config_.interrupt_cpu_cost;
  }
  auto complete = [this, &bound, thread_index, service, pkt = std::move(pkt)]() mutable {
    bound.threads[thread_index].cumulative_busy += service;
    completed_.Increment();
    bound.app->HandlePacket(*this, std::move(pkt));
    StartService(bound, thread_index);
  };
  // The per-request completion event is the largest hot capture in the
  // simulator; it must not spill the event engine's inline buffer.
  static_assert(sizeof(complete) <= InlineEvent::kInlineCapacity,
                "Server completion events must stay inline");
  sim_.Schedule(service, std::move(complete));
}

void Server::Punt(Packet&& packet) {
  (void)packet;
  // An OS-level drop of a packet no app claimed; count it as received so
  // the received == completed + dropped (+ queued) invariant spans punts.
  received_.Increment();
  dropped_no_app_.Increment();
}

void Server::Transmit(Packet&& packet) {
  packet.src = config_.node;
  if (uplink_ == nullptr) {
    throw std::logic_error("Server::Transmit with no uplink on " + config_.name);
  }
  uplink_->Send(this, std::move(packet));
}

void Server::SetBackgroundUtilization(double cores_busy) {
  background_utilization_ = std::max(0.0, cores_busy);
  // Close the current sampling window so the new load takes effect at the
  // next read rather than being averaged away.
  MaybeSampleUtilization();
  last_sample_at_ = sim_.Now();
}

double Server::TotalUtilization() const {
  MaybeSampleUtilization();
  return cpu_power_.utilization();
}

double Server::PowerWatts() const {
  MaybeSampleUtilization();
  return cpu_power_.PowerWatts();
}

double Server::AppCpuUsage(AppProto proto) const {
  MaybeSampleUtilization();
  size_t busy = 0;
  size_t threads = 0;
  for (const auto& bound : apps_) {
    if (bound->app->proto() != proto) {
      continue;
    }
    threads += bound->threads.size();
    for (const auto& t : bound->threads) {
      if (t.busy) {
        ++busy;
      }
    }
  }
  if (threads == 0) {
    return 0;
  }
  const double instantaneous = static_cast<double>(busy) / static_cast<double>(threads);
  // Blend with the last sampled utilization for stability.
  const double sampled =
      std::min(1.0, last_app_utilization_ / static_cast<double>(threads));
  return 0.5 * instantaneous + 0.5 * sampled;
}

double Server::RaplPackageWatts() const {
  MaybeSampleUtilization();
  const double idle_wall = cpu_power_.IdleWatts();
  const double dynamic = std::max(0.0, cpu_power_.PowerWatts() - idle_wall);
  // RAPL sees the package: most of the dynamic draw plus a package floor.
  return 8.0 + 0.9 * dynamic;
}

void Server::MaybeSampleUtilization() const {
  const SimTime now = sim_.Now();
  const SimDuration dt = now - last_sample_at_;
  if (dt < kUtilizationSamplePeriod) {
    return;
  }
  SimDuration busy = 0;
  for (const auto& bound : apps_) {
    for (const auto& t : bound->threads) {
      busy += t.cumulative_busy;
    }
  }
  const SimDuration delta_busy = busy - last_sample_busy_;
  last_sample_busy_ = busy;
  last_sample_at_ = now;
  double app_util = static_cast<double>(delta_busy) / static_cast<double>(dt);
  last_app_utilization_ = app_util;
  double total = app_util + background_utilization_;
  if (config_.stack == NetStackType::kDpdk) {
    // Poll cores are pinned at 100 % regardless of load; app work runs on
    // those same cores, so take the max rather than the sum.
    total = std::max(total, static_cast<double>(config_.dpdk_poll_cores)) +
            background_utilization_;
  }
  cpu_power_.SetUtilization(total);
}

BackgroundLoad::BackgroundLoad(Simulation& sim, Server& server, double cores_busy)
    : sim_(sim), server_(server), cores_busy_(cores_busy) {}

void BackgroundLoad::StartAt(SimTime at) {
  sim_.ScheduleAt(at, [this] {
    active_ = true;
    server_.SetBackgroundUtilization(server_.background_utilization() + cores_busy_);
  });
}

void BackgroundLoad::StopAt(SimTime at) {
  sim_.ScheduleAt(at, [this] {
    active_ = false;
    server_.SetBackgroundUtilization(
        std::max(0.0, server_.background_utilization() - cores_busy_));
  });
}

}  // namespace incod
