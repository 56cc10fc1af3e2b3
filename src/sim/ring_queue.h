// Growable ring-buffer FIFO with indexed access.
//
// The simulator keeps a FIFO per link direction, worker thread, NIC ring and
// rate window, and one per client for its in-flight requests: packets,
// timestamps, send times. std::deque allocates and frees a block every 512
// bytes of traffic through it (every four Packets); RingQueue keeps one
// power-of-two buffer that only grows, so a steady-state FIFO allocates
// nothing. Elements are indexed from the front: q[0] is the oldest. A popped
// element stays in the buffer, moved-from, until its slot is reused.
#ifndef INCOD_SRC_SIM_RING_QUEUE_H_
#define INCOD_SRC_SIM_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace incod {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  // Keeps the buffer for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    std::vector<T> grown(buf_.empty() ? 16 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move((*this)[i]);
    }
    buf_ = std::move(grown);
    mask_ = buf_.size() - 1;
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace incod

#endif  // INCOD_SRC_SIM_RING_QUEUE_H_
