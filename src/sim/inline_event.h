// Small-buffer-optimized event callable.
//
// The simulator schedules hundreds of millions of events per run; with
// std::function every capture list larger than the implementation's tiny
// inline buffer (16 bytes on libstdc++) costs a heap allocation and a
// virtual-ish dispatch through RTTI-adjacent machinery. InlineEvent stores
// the callable in a fixed in-object buffer sized for the hot capture lists
// (a moved-in Packet plus a couple of pointers — see the static_asserts in
// net/link.h, host/server.cc and device/offload_nic.cc) and only falls back
// to the heap for oversized or throwing-move captures. Move-only. The
// Simulation constructs each one in its slot-pool entry (Emplace) and runs
// it there, so a scheduled callable is never moved.
#ifndef INCOD_SRC_SIM_INLINE_EVENT_H_
#define INCOD_SRC_SIM_INLINE_EVENT_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace incod {

class InlineEvent {
 public:
  // Sized so the largest hot-path capture (host/server.cc: this + app ref +
  // thread index + service duration + a Packet with variant payload) stays
  // inline. Revisit alongside sizeof(Packet) when payload types grow.
  static constexpr size_t kInlineCapacity = 144;

  InlineEvent() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineEvent(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  // Replaces the held callable with `f`, constructed in place: a pooled
  // InlineEvent (sim/simulation.h) takes its callable with no temporary and
  // no relocation.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void Emplace(F&& f) {
    Reset();
    Construct(std::forward<F>(f));
  }

  InlineEvent(InlineEvent&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Destroys the held callable (and its captures) now; leaves it empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `dst` from `src` storage, then destroys `src`.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineCapacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* src, void* dst) noexcept {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**std::launder(reinterpret_cast<D**>(s)))(); },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<D**>(dst) = *std::launder(reinterpret_cast<D**>(src));
      },
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<D**>(s)); },
  };

  template <typename F>
  void Construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace incod

#endif  // INCOD_SRC_SIM_INLINE_EVENT_H_
