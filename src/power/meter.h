// Power metering and energy integration.
//
// WallPowerMeter plays the role of the SHW-3A watt-hour meter in the paper's
// testbed: it samples a set of PowerSources on a fixed period, records the
// time series, and integrates energy trapezoidally. RaplCounter emulates the
// CPU's running-average-power-limit energy MSRs that the host-controlled
// on-demand controller reads (§9.1).
#ifndef INCOD_SRC_POWER_METER_H_
#define INCOD_SRC_POWER_METER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/power/power_source.h"
#include "src/sim/simulation.h"
#include "src/stats/timeseries.h"

namespace incod {

class WallPowerMeter {
 public:
  // Samples every `period` once Start() is called.
  WallPowerMeter(Simulation& sim, SimDuration period = Milliseconds(1));
  // Cancels the pending self-rescheduled sample so a meter can be
  // destroyed while its simulation keeps running.
  ~WallPowerMeter();

  // Attaches a source. Not owned; must outlive the meter.
  void Attach(const PowerSource* source);

  // Starts periodic sampling (idempotent).
  void Start();
  void Stop();

  // Total watts across attached sources right now.
  double InstantWatts() const;

  // Integrated energy in joules since Start() (trapezoidal rule).
  double EnergyJoules() const { return energy_joules_; }

  // Mean power between two times, from the recorded series.
  double MeanWatts(SimTime from, SimTime to) const;

  const TimeSeries& series() const { return series_; }

 private:
  void Sample();

  Simulation& sim_;
  SimDuration period_;
  std::vector<const PowerSource*> sources_;
  TimeSeries series_{"wall_watts"};
  bool running_ = false;
  bool stop_requested_ = false;
  uint64_t pending_sample_ = 0;  // Event id of the next Sample (0: none).
  double energy_joules_ = 0;
  double last_watts_ = 0;
  SimTime last_sample_at_ = 0;
  bool has_sample_ = false;
};

// Emulated RAPL package-energy counter. Reads an arbitrary watts callback
// (typically the CPU package part of a server's power model) and exposes a
// monotonically increasing energy count in microjoules, like
// /sys/class/powercap/intel-rapl.
class RaplCounter {
 public:
  RaplCounter(Simulation& sim, std::function<double()> package_watts,
              SimDuration update_period = Milliseconds(1));

  void Start();

  // Monotonic energy counter in microjoules (as of the last update tick).
  uint64_t EnergyMicrojoules() const { return energy_uj_; }

  // Average watts between two counter reads taken `interval` apart.
  double AverageWattsSince(uint64_t prior_energy_uj, SimDuration interval) const;

 private:
  void Tick();

  Simulation& sim_;
  std::function<double()> package_watts_;
  SimDuration period_;
  bool running_ = false;
  uint64_t energy_uj_ = 0;
  SimTime last_tick_ = 0;
  double last_watts_ = 0;
  bool has_tick_ = false;
};

}  // namespace incod

#endif  // INCOD_SRC_POWER_METER_H_
