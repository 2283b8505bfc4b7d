// Slab free-list store for type-erased event callbacks: the one callback
// store of both event engines (event_sim.h, shard_sim.h).
//
// A callback event's callable lives in a 64-byte slot: the two function
// pointers that run and destroy it, and 48 bytes of storage.  Captures
// that fit the storage (with alignment <= max_align_t and a nothrow
// move) are constructed in place; larger ones fall back to one heap
// allocation, counted by `heap_allocations()` and never hit by in-tree
// code.  Slots are carved from 256-slot chunks that never move, so a
// callable runs in place even while it stores new callbacks (which may
// carve a new chunk), and a run slot returns to a LIFO free list, so
// steady-state traffic performs no allocation (`slots_created()` is the
// high-water mark tests pin this with).
//
// A slot is live from `store` until its callable has run; the slab
// destroys every still-live callable when it is destroyed, so an engine
// torn down with events pending (run_until, or a handler that threw)
// releases their captures without walking its queue.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"

namespace lhg::flooding {

/// Stores callables invocable as `void(Args...)` and hands out dense
/// slot ids for them.
template <typename... Args>
class CallbackSlab {
 public:
  /// Captures up to this size are stored inline in the slot.
  static constexpr std::size_t kInlineCapacity = 48;

  CallbackSlab() = default;
  ~CallbackSlab() {
    for (std::int64_t id = 0; id < slots_created_; ++id) {
      Slot& s = slot(static_cast<std::int32_t>(id));
      if (s.destroy != nullptr) s.destroy(s.storage);
    }
  }

  // Slots are referenced by id from queued events, and their callables
  // by address while they run.
  CallbackSlab(const CallbackSlab&) = delete;
  CallbackSlab& operator=(const CallbackSlab&) = delete;

  /// Stores `fn` and returns its slot id.  Fails a contract on an empty
  /// std::function.
  template <typename F>
  std::int32_t store(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (IsStdFunction<Fn>::value) {
      LHG_CHECK(static_cast<bool>(fn), "CallbackSlab: empty callback");
    }
    const std::int32_t id = alloc_slot();
    Slot& s = slot(id);
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.invoke = [](void* p, Args... args) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        (*f)(args...);
        f->~Fn();
      };
      s.destroy = [](void* p) {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      ++heap_allocations_;
      Fn* owned = new Fn(std::forward<F>(fn));
      std::memcpy(s.storage, &owned, sizeof owned);
      s.invoke = [](void* p, Args... args) {
        Fn* f = *reinterpret_cast<Fn**>(p);
        (*f)(args...);
        delete f;
      };
      s.destroy = [](void* p) { delete *reinterpret_cast<Fn**>(p); };
    }
    return id;
  }

  /// Runs the callable in slot `id` once, destroys it and frees the
  /// slot.  If the callable throws, it stays live (and is destroyed
  /// with the slab).
  void invoke(std::int32_t id, Args... args) {
    Slot& s = slot(id);
    s.invoke(s.storage, args...);
    s.destroy = nullptr;
    s.next_free = free_head_;
    free_head_ = id;
  }

  /// Slots ever carved: the storage high-water mark.
  std::int64_t slots_created() const { return slots_created_; }

  /// Callables whose captures exceeded kInlineCapacity and were
  /// heap-allocated instead.
  std::int64_t heap_allocations() const { return heap_allocations_; }

 private:
  /// One 64-byte slot; `destroy` is null while the slot is free, and
  /// `next_free` threads the free list through the vacant storage.
  struct Slot {
    void (*invoke)(void* storage, Args... args);  // run, then destroy
    void (*destroy)(void* storage);                // destroy only
    union {
      alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
      std::int32_t next_free;
    };
  };
  static_assert(sizeof(Slot) <= 64, "callback slot should stay one cache line");

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename R, typename... A>
  struct IsStdFunction<std::function<R(A...)>> : std::true_type {};

  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::int32_t id) {
    const auto u = static_cast<std::uint32_t>(id);
    return chunks_[u >> kChunkShift][u & (kChunkSize - 1)];
  }

  std::int32_t alloc_slot() {
    if (free_head_ >= 0) {
      const std::int32_t id = free_head_;
      free_head_ = slot(id).next_free;
      return id;
    }
    const auto id = static_cast<std::int32_t>(slots_created_);
    if ((static_cast<std::uint32_t>(id) & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++slots_created_;
    return id;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::int32_t free_head_ = -1;
  std::int64_t slots_created_ = 0;
  std::int64_t heap_allocations_ = 0;
};

}  // namespace lhg::flooding
