// SmallFn: a move-only, type-erased void() callable with small-buffer
// storage, built for the event hot path.
//
// Every simulated event used to carry a std::function<void()>, whose
// small-object buffer (16 bytes in libstdc++) is too small for the
// delivery closures, so the steady-state event loop heap-allocated once
// per event. SmallFn inlines up to kInlineBytes of capture — sized so
// every in-tree closure (the largest is the MAC delivery closure: this +
// a pooled packet handle + two node ids) fits without allocating. A
// callable that does not fit falls back to a fixed-size block from a
// SpillPool freelist, so even oversized captures stop allocating once
// the pool has warmed up; only captures beyond SpillPool::kBlockBytes
// ever reach operator new, and the pool counts them.
//
// Lifetime contract: a spilled SmallFn borrows its block from the pool it
// was created with, so the pool must outlive every SmallFn built on it.
// The EventQueue owns one SpillPool and destroys all pending events
// before it; popped events are executed and dropped inside the run loop,
// never stored.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/stats.h"

namespace jtp::sim {

// Freelist of fixed-size callback blocks. Single-threaded, like
// everything else hanging off one Simulator.
class SpillPool {
 public:
  static constexpr std::size_t kBlockBytes = 256;

  SpillPool() = default;
  SpillPool(const SpillPool&) = delete;
  SpillPool& operator=(const SpillPool&) = delete;
  ~SpillPool() {
    assert(stats_.in_use == 0 && "spilled callbacks outlived their pool");
    while (free_ != nullptr) {
      Block* b = free_->next;
      ::operator delete(free_);
      free_ = b;
    }
  }

  void* acquire(std::size_t bytes) {
    if (bytes > kBlockBytes) {
      // Pass-through: the pool never owns oversize blocks, so they are
      // excluded from capacity/in_use/high_water (which describe pool
      // blocks only) and recorded as escapes instead.
      ++stats_.oversize_allocs;
      return ::operator new(bytes);
    }
    ++stats_.in_use;
    if (stats_.in_use > stats_.high_water) stats_.high_water = stats_.in_use;
    if (free_ != nullptr) {
      Block* b = free_;
      free_ = b->next;
      ++stats_.reuses;
      return b;
    }
    ++stats_.heap_allocs;
    ++stats_.capacity;
    return ::operator new(kBlockBytes);
  }

  void release(void* p, std::size_t bytes) {
    if (bytes > kBlockBytes) {
      ::operator delete(p);
      return;
    }
    assert(stats_.in_use > 0);
    --stats_.in_use;
    Block* b = static_cast<Block*>(p);
    b->next = free_;
    free_ = b;
  }

  const PoolStats& stats() const { return stats_; }

 private:
  struct Block {
    Block* next;
  };
  Block* free_ = nullptr;
  PoolStats stats_;
};

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept {}

  template <typename F>
  SmallFn(F&& f, SpillPool& pool) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "SmallFn callable must be invocable as void()");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    if constexpr (sizeof(D) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      vt_ = &inline_vtable<D>;
    } else {
      void* mem = pool.acquire(sizeof(D));
      ::new (mem) D(std::forward<F>(f));
      spill_ = mem;
      pool_ = &pool;
      vt_ = &spill_vtable<D>;
    }
  }

  SmallFn(SmallFn&& o) noexcept { steal(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ != nullptr);
    vt_->invoke(target());
  }

  // Destroys the held callable (returning any spill block to its pool)
  // and leaves the SmallFn empty.
  void reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(target());
    if (pool_ != nullptr) pool_->release(spill_, vt_->size);
    vt_ = nullptr;
    pool_ = nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Move-construct the callable from `src` storage into `dst` storage
    // and destroy the source (inline storage only; spilled callables
    // move by pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;
  };

  template <typename D>
  static constexpr VTable inline_vtable = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      sizeof(D)};

  template <typename D>
  static constexpr VTable spill_vtable = {
      [](void* p) { (*static_cast<D*>(p))(); },
      nullptr,  // spilled callables relocate by pointer swap
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      sizeof(D)};

  void* target() { return pool_ != nullptr ? spill_ : buf_; }

  void steal(SmallFn& o) noexcept {
    vt_ = o.vt_;
    pool_ = o.pool_;
    if (vt_ == nullptr) return;
    if (pool_ != nullptr) {
      spill_ = o.spill_;
    } else {
      vt_->relocate(buf_, o.buf_);
    }
    o.vt_ = nullptr;
    o.pool_ = nullptr;
  }

  const VTable* vt_ = nullptr;
  SpillPool* pool_ = nullptr;  // non-null iff the callable is spilled
  union {
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void* spill_;
  };
};

}  // namespace jtp::sim
