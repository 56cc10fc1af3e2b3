#include "src/stats/request_window.h"

namespace incod {

uint64_t RequestWindow::Open(SimTime at) {
  sent_.push_back(at);
  ++outstanding_;
  return front_id_ + sent_.size() - 1;
}

bool RequestWindow::IsOpen(uint64_t id) const {
  return id >= front_id_ && id - front_id_ < sent_.size() && sent_[id - front_id_] != kClosed;
}

std::optional<SimTime> RequestWindow::Close(uint64_t id) {
  if (!IsOpen(id)) {
    return std::nullopt;
  }
  SimTime& slot = sent_[id - front_id_];
  const SimTime at = slot;
  slot = kClosed;
  --outstanding_;
  PopClosed();
  return at;
}

uint64_t RequestWindow::ExpireBefore(SimTime cutoff) {
  // Send times only grow with the id, so the expired requests are a prefix.
  uint64_t expired = 0;
  while (!sent_.empty() && (sent_.front() == kClosed || sent_.front() < cutoff)) {
    if (sent_.front() != kClosed) {
      ++expired;
      --outstanding_;
    }
    sent_.pop_front();
    ++front_id_;
  }
  return expired;
}

void RequestWindow::PopClosed() {
  while (!sent_.empty() && sent_.front() == kClosed) {
    sent_.pop_front();
    ++front_id_;
  }
}

}  // namespace incod
