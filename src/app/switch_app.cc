#include "src/app/switch_app.h"

#include <stdexcept>
#include <utility>

namespace incod {

Simulation& SwitchHostedApp::PipelineContext::sim() {
  if (asic == nullptr) {
    throw std::logic_error("SwitchHostedApp: context used before first packet");
  }
  return asic->sim();
}

void SwitchHostedApp::PipelineContext::Reply(Packet&& packet) {
  asic->TransmitFromPipeline(std::move(packet));
}

void SwitchHostedApp::PipelineContext::Punt(Packet&& packet) {
  if (slot == nullptr) {
    // Punt outside Process() (e.g. from a delayed event): nothing to hand
    // back to the pipeline — forward explicitly through the switch.
    asic->Receive(std::move(packet));
    return;
  }
  punted = true;
  if (&packet != slot) {  // Apps usually punt the pipeline's packet itself.
    *slot = std::move(packet);
  }
}

bool SwitchHostedApp::Process(SwitchAsic& sw, Packet& packet) {
  if (!Matches(packet)) {
    return false;
  }
  ctx_.asic = &sw;
  if (context() != &ctx_) {
    BindContext(&ctx_);
  }
  // Reply() can synchronously re-enter this program (TransmitFromPipeline
  // runs the emitted packet through the pipeline again), so the per-packet
  // context fields must be saved and restored around the call — the inner
  // pass must not clobber this pass's punt verdict.
  Packet* const prev_slot = ctx_.slot;
  const bool prev_punted = ctx_.punted;
  ctx_.slot = &packet;
  ctx_.punted = false;
  HandlePacket(ctx_, std::move(packet));
  const bool punted = ctx_.punted;
  ctx_.slot = prev_slot;
  ctx_.punted = prev_punted;
  // Consumed unless the app explicitly passed the packet through.
  return !punted;
}

}  // namespace incod
