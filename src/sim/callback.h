#ifndef GTPL_SIM_CALLBACK_H_
#define GTPL_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gtpl::sim {

/// A move-only `void()` callable stored inline: scheduling an event or
/// parking a message never allocates. The capture lives in a fixed buffer
/// of kCapacity bytes with no heap fallback, so a capture that does not fit
/// fails to compile at the call site that builds it (move part of it into
/// engine state, or capture a pointer). 64 bytes holds every engine
/// closure; the largest carry a std::vector or a g-2PL data reply.
class Callback {
 public:
  static constexpr std::size_t kCapacity = 64;
  static constexpr std::size_t kAlignment = alignof(void*);

  Callback() noexcept = default;

  /// Wraps any callable `f` (a lambda, usually) that fits the buffer.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Callback(F&& f) noexcept(std::is_nothrow_constructible_v<Fn, F&&>) {
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture exceeds sim::Callback's inline buffer");
    static_assert(alignof(Fn) <= kAlignment,
                  "capture is over-aligned for sim::Callback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "sim::Callback captures must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
        ops_ = std::exchange(other.ops_, nullptr);
      }
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  /// Runs the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  /// The callable living in a buffer that placement-new constructed it in.
  template <typename Fn>
  static Fn* As(void* storage) noexcept {
    return std::launder(static_cast<Fn*>(storage));
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*As<Fn>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = As<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { As<Fn>(self)->~Fn(); },
  };

  void Reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(kAlignment) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace gtpl::sim

#endif  // GTPL_SIM_CALLBACK_H_
