#include "src/net/flow_control.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/net/link.h"

namespace incod {

DcqcnRateController::DcqcnRateController(Simulation& sim, DcqcnConfig config)
    : sim_(sim),
      config_(config),
      rate_(config.line_rate_pps),
      target_rate_(config.line_rate_pps),
      alpha_(1.0) {
  if (config_.line_rate_pps <= 0) {
    throw std::invalid_argument("DcqcnRateController: line rate must be > 0");
  }
  if (kMinRatePps > config_.line_rate_pps) {
    throw std::invalid_argument("DcqcnRateController: min rate above line rate");
  }
}

void DcqcnRateController::AttachUplink(Link* link, PacketSink* sender) {
  uplink_ = link;
  sender_ = sender;
}

void DcqcnRateController::Submit(Packet&& packet) {
  if (uplink_ == nullptr || sender_ == nullptr) {
    throw std::logic_error("DcqcnRateController: Submit before AttachUplink");
  }
  if (!config_.enabled) {
    uplink_->Send(sender_, std::move(packet));
    return;
  }
  if (queue_.size() >= config_.pacer_capacity) {
    ++pacer_dropped_;
    return;
  }
  queue_.push_back(std::move(packet));
  SchedulePump();
}

void DcqcnRateController::SchedulePump() {
  if (pump_scheduled_ || uplink_congested_ || queue_.empty()) {
    return;
  }
  pump_scheduled_ = true;
  const SimTime at = std::max(sim_.Now(), next_tx_);
  sim_.ScheduleAt(at, [this] { Pump(); });
}

void DcqcnRateController::Pump() {
  pump_scheduled_ = false;
  if (uplink_congested_ || queue_.empty()) {
    return;  // Re-armed by SetUplinkCongested(false) / the next Submit.
  }
  Packet pkt = std::move(queue_.front());
  queue_.pop_front();
  ++paced_sent_;
  uplink_->Send(sender_, std::move(pkt));
  next_tx_ = sim_.Now() + SecondsF(1.0 / rate_);
  SchedulePump();
}

void DcqcnRateController::OnCnp() {
  ++cnps_;
  target_rate_ = rate_;
  rate_ = std::max(kMinRatePps, rate_ * (1.0 - alpha_ / 2.0));
  alpha_ = (1.0 - kAlphaGain) * alpha_ + kAlphaGain;
  rounds_ = 0;
  EnsureRecoveryTimer();
}

void DcqcnRateController::SetUplinkCongested(bool congested) {
  uplink_congested_ = congested;
  if (!congested) {
    SchedulePump();
  }
}

void DcqcnRateController::EnsureRecoveryTimer() {
  if (recovery_scheduled_ || rate_ >= config_.line_rate_pps) {
    return;
  }
  recovery_scheduled_ = true;
  sim_.Schedule(kRecoveryPeriod, [this] { RecoveryTick(); });
}

void DcqcnRateController::RecoveryTick() {
  recovery_scheduled_ = false;
  alpha_ *= (1.0 - kAlphaGain);
  ++rounds_;
  // Target rate climbs additively each period, hyper-additively once the
  // sender has been CNP-free long enough; the current rate closes half the
  // gap to the target per period (DCQCN fast recovery).
  target_rate_ = std::min(config_.line_rate_pps, target_rate_ + kAdditiveStepPps);
  if (rounds_ > kHyperAfterRounds) {
    target_rate_ = std::min(config_.line_rate_pps, target_rate_ + kHyperStepPps);
  }
  rate_ = std::min(config_.line_rate_pps, 0.5 * (rate_ + target_rate_));
  if (rate_ >= 0.999 * config_.line_rate_pps) {
    // Fully recovered: stop the timer so idle simulations drain and stop.
    rate_ = config_.line_rate_pps;
    target_rate_ = config_.line_rate_pps;
    return;
  }
  EnsureRecoveryTimer();
}

}  // namespace incod
