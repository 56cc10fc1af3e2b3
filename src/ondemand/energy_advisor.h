// Placement advisor: §8's "When to Use In-Network Computing" made executable.
//
// Builds rate->power functions for deployments (server curves + service
// times; device ledgers + dynamic watts) and answers the two questions of
// §8: should a standard network device be replaced with a programmable one,
// and at what rate should a workload shift into the network. Also covers
// the §9.4 ToR-switch analysis, where the shared forwarding power makes the
// tipping point approach zero.
#ifndef INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_
#define INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_

#include <functional>
#include <optional>
#include <string>

#include "src/power/cpu_power.h"
#include "src/power/energy_model.h"
#include "src/sim/time.h"

namespace incod {

struct SmartNicPreset;  // device/smartnic.h; this header stays device-free.

// rate (pps) -> wall watts.
using RatePowerFn = std::function<double(double)>;

// Server running a software app: utilization = rate * core-seconds/request
// spread across `threads` workers; watts from the calibrated curve. Rates
// beyond saturation clamp at peak utilization.
RatePowerFn MakeServerRatePower(PiecewiseLinearCurve utilization_to_watts,
                                SimDuration core_time_per_request, int threads);

// Host + FPGA NIC deployment: host idle watts plus board power with a linear
// dynamic term up to `capacity_pps`.
RatePowerFn MakeFpgaRatePower(double host_idle_watts, double board_idle_watts,
                              double dynamic_watts_at_capacity, double capacity_pps);

// The LaKe deployment's §8 models, shared by every builder that orchestrates
// a LaKe member: memcached's per-request host service time, and host + LaKe
// board watts (35 W host idle, 24 W board idle, 1 W dynamic up to 13 Mpps).
inline constexpr SimDuration kMemcachedServiceTime = Microseconds(4);
RatePowerFn MakeLakeRatePower();

// Programmable switch already forwarding traffic: only the in-network
// program's marginal power counts (§9.4). `forwarding_watts` is shared by
// both placements and excluded.
RatePowerFn MakeSwitchMarginalPower(double program_overhead_fraction,
                                    double max_power_watts, double line_rate_pps);

// Host + SmartNIC deployment (§10 presets): host idle watts plus board
// power scaling linearly from idle to max at `capacity_pps` (the preset's
// peak_mpps). Same shape the behavioral SmartNic device reports live.
RatePowerFn MakeSmartNicRatePower(double host_idle_watts, double board_idle_watts,
                                  double board_max_watts, double capacity_pps);

// Convenience over a §10 preset hosting a specific app firmware: the
// capacity is the preset's peak scaled by the app's per-arch Mpps fraction
// (the same ceiling the behavioral SmartNic enforces for a hosted App).
RatePowerFn MakeSmartNicRatePower(double host_idle_watts, const SmartNicPreset& preset,
                                  double app_mpps_fraction = 1.0);

struct PlacementAdvice {
  // Rate at/above which the network deployment draws no more power.
  std::optional<double> tipping_rate_pps;
  // Network never wins below this sweep bound.
  bool network_never_wins = false;
  // Network wins even at (near) zero rate.
  bool network_always_wins = false;
};

PlacementAdvice AdvisePlacement(const RatePowerFn& software, const RatePowerFn& network,
                                double max_rate_pps);

// Energy (joules) of serving `total_packets` at `rate`, then idling the
// remainder of `period_seconds` — convenience over §8's eq. 1 for comparing
// placements over a scheduling period.
double PeriodEnergyJoules(const RatePowerFn& power, double idle_watts,
                          double total_packets, double rate, double period_seconds);

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_ENERGY_ADVISOR_H_
