// Tofino-like programmable switch ASIC model (§6 of the paper).
//
// The switch always forwards at line rate; loading an additional in-network
// computing program changes power only marginally. Power is reported both in
// absolute watts and normalized to the device maximum, because the paper
// only publishes normalized numbers ("Due to the large variance in power
// between different ASICs and ASIC vendors, we only report normalized power
// consumption").
//
// Model (calibrated to §6):
//   P(rate) = Pmax * (idle_frac + (1 - idle_frac) * rate/line_rate)
//             * (1 + program_overhead * rate/line_rate)
// with idle_frac = 0.84 (min-to-max spread < 20 %), program overheads:
// L2 forwarding 0, +P4xos <= 2 %, diag.p4 4.8 %.
#ifndef INCOD_SRC_DEVICE_SWITCH_ASIC_H_
#define INCOD_SRC_DEVICE_SWITCH_ASIC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/switch.h"
#include "src/power/power_source.h"
#include "src/sim/simulation.h"
#include "src/stats/counters.h"
#include "src/stats/timeseries.h"

namespace incod {

class SwitchAsic;

// A data-plane program compiled into the switch pipeline (beyond plain L2
// forwarding, which is always present). Programs inspect packets at line
// rate; consuming a packet terminates it in the switch (request in, reply
// out — the paper notes this halves application packets through the switch).
class SwitchProgram {
 public:
  virtual ~SwitchProgram() = default;

  virtual std::string ProgramName() const = 0;

  // Fractional power overhead at full load relative to L2 forwarding.
  virtual double PowerOverheadAtFullLoad() const = 0;

  // Returns true if the packet was consumed by the program.
  virtual bool Process(SwitchAsic& sw, Packet& packet) = 0;
};

// Built-in diagnostic program (diag.p4): consumes nothing, burns power.
class DiagProgram : public SwitchProgram {
 public:
  std::string ProgramName() const override { return "diag.p4"; }
  double PowerOverheadAtFullLoad() const override { return 0.048; }
  bool Process(SwitchAsic& sw, Packet& packet) override;
};

struct SwitchAsicConfig {
  std::string name = "tofino";
  SimDuration rate_window = Milliseconds(100);
};

class SwitchAsic : public L2Switch, public PowerSource {
 public:
  static constexpr int kNumPorts = 32;
  static constexpr double kPortGbps = 40.0;           // 32 x 40G = 1.28 Tbps (§6).
  static constexpr double kMaxPowerWatts = 350.0;     // Absolute scale (vendor-typical).
  static constexpr double kIdlePowerFraction = 0.84;  // Min-max spread < 20 % (§6).
  static constexpr SimDuration kPipelineLatency = Nanoseconds(400);
  static constexpr uint32_t kReferencePacketBytes = 64;  // Line-rate pps basis.

  SwitchAsic(Simulation& sim, SwitchAsicConfig config);

  // Loads an additional program (not owned). Multiple programs stack (the
  // paper combines Paxos with L2 forwarding).
  void LoadProgram(SwitchProgram* program);
  void UnloadProgram(const std::string& name);
  std::vector<std::string> LoadedPrograms() const;

  // Sends a reply out of the pipeline (line-rate, no host involved).
  void TransmitFromPipeline(Packet&& packet);

  // Line-rate capacity in packets/second at the reference packet size.
  double LineRatePps() const;

  // Observed total packet rate over the trailing window.
  double ObservedPps() const;
  double UtilizationFraction() const;

  // Per-protocol pipeline observation. Ingress counts every packet of the
  // protocol traversing the pipeline — whether or not a program claims it —
  // so offload adapters see the §9.1 classifier signal even while parked.
  // With a filter installed, only packets addressed to the service count:
  // without it, replies (host-originated or program-emitted) crossing the
  // switch would double the apparent request rate.
  void SetProtoIngressFilter(AppProto proto, NodeId service_dst);
  uint64_t ProtoIngressPackets(AppProto proto) const;
  double ProtoIngressRatePerSecond(AppProto proto) const;
  uint64_t ProtoConsumedPackets(AppProto proto) const;
  double ProtoConsumedRatePerSecond(AppProto proto) const;

  double PowerWatts() const override;
  double NormalizedPower() const { return PowerWatts() / kMaxPowerWatts; }
  // Power of the same load with L2 forwarding only (for §6 comparisons).
  double ForwardingOnlyWatts() const;

  std::string PowerName() const override { return config_.name; }

  uint64_t consumed_in_pipeline() const { return consumed_.value(); }

 protected:
  bool ProcessInPipeline(Packet& packet) override;

 private:
  double BaseWatts(double utilization) const;
  double ProgramOverheadFraction() const;

  SwitchAsicConfig config_;
  std::vector<SwitchProgram*> programs_;
  mutable SlidingWindowRate observed_rate_;
  Counter consumed_;
  std::vector<std::optional<NodeId>> proto_filter_;
  std::vector<Counter> proto_ingress_;
  std::vector<Counter> proto_consumed_;
  mutable std::vector<SlidingWindowRate> proto_ingress_rate_;
  mutable std::vector<SlidingWindowRate> proto_consumed_rate_;
};

}  // namespace incod

#endif  // INCOD_SRC_DEVICE_SWITCH_ASIC_H_
