// On-demand offload controller (§9.1).
//
// The paper's two proof-of-concept controllers decide when to shift a
// workload between host and network, each with a mirrored parameter pair
// for hysteresis. They differ only in the signals they read, so one loop
// runs both: every check it samples each signal into a windowed mean (one
// mean per direction), enforces `min_dwell`, and shifts when every gate of
// the current direction holds over a full window. A shift clears the other
// direction's means.
//
//  * Network-controlled — runs "within the FPGA's classifier" (40 lines in
//    the paper's prototype). Signal: average application message rate over
//    a sliding averaging window. Pros: reacts early, offloads the host.
//    Cons: cannot see host power ("it only has access to the packet rate").
//
//  * Host-controlled — runs on the host (204 lines, 0.3 % CPU in the paper,
//    "mainly for performing RAPL reads"). Signals: the application's CPU
//    usage and RAPL package power, inspected over time to avoid "harsh
//    decisions based on spikes and outliers"; shifting back additionally
//    requires rate feedback from the network device.
//
// Both read their device signals through the OffloadTarget interface, so
// the same decision code runs against an FPGA NIC, a SmartNIC, or a switch
// ASIC program. The §9.1 "more sophisticated algorithms" — placement by the
// §8 predicted saving, across many apps, targets and a power budget — live
// in RackOrchestrator, not here: these threshold rules read RAPL and per-app
// CPU signals the orchestrator's app specs do not carry.
#ifndef INCOD_SRC_ONDEMAND_CONTROLLER_H_
#define INCOD_SRC_ONDEMAND_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/device/offload_target.h"
#include "src/host/server.h"
#include "src/ondemand/migrator.h"
#include "src/power/meter.h"
#include "src/sim/simulation.h"
#include "src/stats/timeseries.h"

namespace incod {

struct NetworkControllerConfig {
  // Shift host -> network when the average app message rate over
  // `up_window` is at least `up_rate_pps`.
  double up_rate_pps = 150000;
  SimDuration up_window = Seconds(1);
  // Mirrored pair for network -> host.
  double down_rate_pps = 50000;
  SimDuration down_window = Seconds(3);
  // Decision cadence.
  SimDuration check_period = Milliseconds(100);
  // Minimum dwell after any shift (additional back-and-forth damping).
  SimDuration min_dwell = Seconds(1);
};

struct HostControllerConfig {
  // Shift host -> network when RAPL power exceeds `up_power_watts` AND the
  // app's CPU usage exceeds `up_cpu_usage`, both sustained over `up_window`
  // (Fig 6 uses three seconds of sustained high load).
  double up_power_watts = 25.0;
  double up_cpu_usage = 0.5;
  SimDuration up_window = Seconds(3);
  // Shift network -> host when the device-reported processed rate falls
  // below `down_rate_pps` AND RAPL power is below `down_power_watts` over
  // `down_window` (rate feedback prevents inefficient bounce-back, §9.1).
  double down_rate_pps = 50000;
  double down_power_watts = 20.0;
  SimDuration down_window = Seconds(3);
  SimDuration check_period = Milliseconds(100);
  SimDuration min_dwell = Seconds(1);
};

class OnDemandController {
 public:
  // Network-controlled: the target's classifier-visible message rate.
  OnDemandController(Simulation& sim, OffloadTarget& target, Migrator& migrator,
                     NetworkControllerConfig config = {});
  // Host-controlled: RAPL package watts and `app`'s CPU usage going up; the
  // target's processed rate and RAPL watts coming back down.
  OnDemandController(Simulation& sim, Server& server, AppProto app, RaplCounter& rapl,
                     OffloadTarget& target, Migrator& migrator,
                     HostControllerConfig config = {});
  // The periodic check holds `this`.
  OnDemandController(const OnDemandController&) = delete;
  OnDemandController& operator=(const OnDemandController&) = delete;

  void Start();

 private:
  // One threshold on one signal's windowed mean. The signal is either a
  // cumulative `counter`, sampled as its per-second rate over the check
  // interval in units of `counter_unit`, or an instantaneous `level`.
  struct Gate {
    std::function<uint64_t()> counter{};
    double counter_unit = 1;
    std::function<double()> level{};
    bool at_least = true;  // Holds when mean >= threshold (else <=).
    double threshold = 0;
    SlidingWindowMean mean;
    uint64_t last_count = 0;

    // The signal's value for the `dt` since the previous check.
    double Read(SimDuration dt);
  };

  OnDemandController(Simulation& sim, Migrator& migrator, SimDuration check_period,
                     SimDuration min_dwell);
  void Tick();

  Simulation& sim_;
  Migrator& migrator_;
  SimDuration check_period_;
  SimDuration min_dwell_;
  std::vector<Gate> up_;    // host -> network
  std::vector<Gate> down_;  // network -> host
  SimTime last_tick_ = 0;
  SimTime last_shift_ = 0;
  bool started_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_ONDEMAND_CONTROLLER_H_
