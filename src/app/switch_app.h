// Hosting a unified App in the switch-ASIC pipeline.
//
// SwitchHostedApp adapts incod::App onto the SwitchProgram surface the
// Tofino model executes (§6): the pipeline hands every packet to Process();
// the adapter builds a pipeline AppContext and runs the app's HandlePacket.
// Context semantics on this substrate:
//   * Reply — transmitted from the pipeline at line rate (the packet
//     terminates in the switch; the paper notes this halves application
//     packets through the switch);
//   * Punt  — the packet continues through L2 forwarding unchanged (the
//     "fallback placement" is whatever host the route points at).
// A packet the app neither replies to nor punts is consumed (dropped in
// the pipeline). Non-matching packets never enter the app.
#ifndef INCOD_SRC_APP_SWITCH_APP_H_
#define INCOD_SRC_APP_SWITCH_APP_H_

#include <optional>
#include <string>

#include "src/app/app.h"
#include "src/device/switch_asic.h"

namespace incod {

class SwitchHostedApp : public App, public SwitchProgram {
 public:
  // --- SwitchProgram surface (implemented once, for every app) ---
  std::string ProgramName() const override { return AppName(); }
  double PowerOverheadAtFullLoad() const override {
    if (!switch_overhead_.has_value()) {
      switch_overhead_ = OffloadProfile().switch_power_overhead_at_full_load;
    }
    return *switch_overhead_;
  }
  bool Process(SwitchAsic& sw, Packet& packet) final;

  // --- App surface defaults for this substrate ---
  bool SupportsPlacement(PlacementKind placement) const override {
    return placement == PlacementKind::kSwitchAsic;
  }

 private:
  class PipelineContext : public AppContext {
   public:
    Simulation& sim() override;
    PlacementKind placement() const override { return PlacementKind::kSwitchAsic; }
    void Reply(Packet&& packet) override;
    void Punt(Packet&& packet) override;

    SwitchAsic* asic = nullptr;
    Packet* slot = nullptr;  // The pipeline's packet, valid during Process().
    bool punted = false;
  };

  PipelineContext ctx_;
  mutable std::optional<double> switch_overhead_;
};

}  // namespace incod

#endif  // INCOD_SRC_APP_SWITCH_APP_H_
