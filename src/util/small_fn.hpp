// Move-only callable wrapper with inline storage.
//
// std::function heap-allocates any closure larger than its small-buffer
// optimisation (16 bytes in libstdc++) — and the simulator schedules millions
// of closures that capture [this, alive, endpoint]-sized state. SmallFn keeps
// closures up to `Capacity` bytes inline in the event entry itself and falls
// back to the heap for larger captures, silently. A hot call site that must
// not allocate checks `fits_inline<Closure>` in a static_assert, so a capture
// that outgrows the storage fails the build instead. Unlike std::function it
// requires only movable callables, which also lets handlers own move-only
// resources.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace wp2p::util {

template <std::size_t Capacity>
class SmallFn {
 public:
  // Whether a closure of type F is stored inline rather than on the heap.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t);

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vt_ = vtable<Fn, /*Inline=*/true>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = vtable<Fn, /*Inline=*/false>();
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() {
    WP2P_ASSERT_MSG(vt_ != nullptr, "calling an empty SmallFn");
    vt_->invoke(storage_);
  }

  explicit operator bool() const { return vt_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* self);
  };

  template <typename Fn, bool Inline>
  static const VTable* vtable() {
    static constexpr VTable table{
        /*invoke=*/[](void* self) {
          if constexpr (Inline) {
            (*std::launder(reinterpret_cast<Fn*>(self)))();
          } else {
            (**std::launder(reinterpret_cast<Fn**>(self)))();
          }
        },
        /*relocate=*/[](void* dst, void* src) {
          if constexpr (Inline) {
            Fn* from = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          } else {
            ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
          }
        },
        /*destroy=*/[](void* self) {
          if constexpr (Inline) {
            std::launder(reinterpret_cast<Fn*>(self))->~Fn();
          } else {
            delete *std::launder(reinterpret_cast<Fn**>(self));
          }
        },
    };
    return &table;
  }

  void move_from(SmallFn& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(storage_, other.storage_);
      other.vt_ = nullptr;
    }
  }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const VTable* vt_ = nullptr;
};

}  // namespace wp2p::util
