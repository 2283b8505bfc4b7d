// Allocation-free typed-event discrete-event simulator.
//
// The flooding experiments need virtual time (message latencies, crash
// times) without wall-clock nondeterminism, at millions of events per
// trial.  The engine therefore avoids the classic
// std::function-per-event design (one heap allocation and one indirect
// call per message) in favour of typed events over pooled storage:
//
//   * Two event kinds.  A *deliver* event — the per-message hot path —
//     is a plain (sink, from, to, link, message) record dispatched
//     straight into the registered DeliverSink (the Network), with no
//     type erasure at all.  Its payload is stored inline in the event
//     queue, so scheduling and executing a message performs no
//     allocation and chases no pointers.
//
//   * Slab free-list callback storage.  Everything else (crashes, link
//     failures, timers, protocol bootstraps) is a *callback* event
//     whose callable is stored inline in a pooled 64-byte slot when its
//     captures fit in kInlineCallbackCapacity bytes; only oversized
//     captures fall back to the heap (counted, and never hit by in-tree
//     code).  Slots are carved from chunked slabs with stable addresses
//     and recycle through a free list, so steady-state traffic performs
//     zero allocations per event (`slots_created()` exposes the
//     high-water mark for tests to pin this).
//
//   * Radix time queue.  Pending events live in the monotone radix
//     queue of time_queue.h, keyed by the bits of their time: a push is
//     an append to one of 65 buckets, and a bucket is re-filed only
//     when it holds the minimum.  Simulated protocols schedule in long
//     runs of equal timestamps (every hop of a fixed-latency flood lands
//     on the same instant); such a run moves to the front with one swap.
//     Workloads with all-distinct timestamps (per-link or per-send
//     jitter) pay a few re-filings per event.  A queued event is 32
//     bytes: its time key and an inline (message, from, to, link, sink
//     index) payload.
//
// Determinism contract (unchanged from the std::function engine):
// events execute in (time, insertion) order, a total order, so a run is
// a pure function of its inputs — two runs with the same seed produce
// identical traces, which the golden-trace regression tests pin down to
// the exact (time, event) sequence.  Every radix bucket keeps its items
// in push order and equal times always share a bucket, so the front run
// of one timestamp is exactly its events in insertion order
// (time_queue.h has the argument).
//
// Monotone time.  Events may only be scheduled at or after now(); the
// check is always on for callbacks and debug-only (LHG_DCHECK) on the
// per-message deliver path.  run_until(d) leaves the queue's current
// time at the last executed timestamp, so later scheduling anywhere in
// [d, next pending time) stays legal.  -0.0 is treated as +0.0.

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
#include "flooding/time_queue.h"
#include "obs/obs.h"

namespace lhg::flooding {

class Simulator {
 public:
  /// Captures up to this size (and alignment <= max_align_t) are stored
  /// inline in the event slot; larger callables heap-allocate (counted
  /// by `callback_heap_allocations()`).
  static constexpr std::size_t kInlineCallbackCapacity = 48;

  /// Legacy alias; any callable (not just std::function) can be
  /// scheduled.
  using Callback = std::function<void()>;

  /// Receiver of first-class deliver events.  `link` is whatever the
  /// scheduler passed (the Network uses Graph::edge_index ids).
  class DeliverSink {
   public:
    virtual void on_deliver(std::int32_t from, std::int32_t to,
                            std::int32_t link, std::int64_t message) = 0;

   protected:
    ~DeliverSink() = default;
  };

  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.  Starts at 0.
  double now() const { return now_; }

  /// Observability tap (may be null; default).  Counts executed events
  /// by kind and the events run at each drained timestamp; recording never
  /// reorders or perturbs the event stream.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

  /// Schedules `fn` (any callable) to run at absolute virtual time
  /// `time` (>= now()).  Fails a contract on times in the past or NaN,
  /// or on an empty std::function.
  template <typename F>
  void schedule_at(double time, F&& fn) {
    check_time(time);
    using Fn = std::decay_t<F>;
    if constexpr (IsStdFunction<Fn>::value) {
      LHG_CHECK(static_cast<bool>(fn), "Simulator::schedule_at: empty callback");
    }
    const std::int32_t id = alloc_slot();
    CallbackPayload& cb = slot(static_cast<std::uint32_t>(id)).callback;
    if constexpr (sizeof(Fn) <= kInlineCallbackCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(cb.storage)) Fn(std::forward<F>(fn));
      cb.invoke = [](void* p) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        (*f)();
        f->~Fn();
      };
      cb.destroy = [](void* p) {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      ++callback_heap_allocations_;
      Fn* owned = new Fn(std::forward<F>(fn));
      std::memcpy(cb.storage, &owned, sizeof owned);
      cb.invoke = [](void* p) {
        Fn* f = *reinterpret_cast<Fn**>(p);
        (*f)();
        delete f;
      };
      cb.destroy = [](void* p) { delete *reinterpret_cast<Fn**>(p); };
    }
    Event ev;
    ev.message = 0;
    ev.from = 0;
    ev.to = 0;
    ev.link = id;
    ev.sink = kCallbackSink;
    queue_.push(Queue::key_of(time), ev);
  }

  /// Schedules `fn` to run `delay` (>= 0) after now().
  template <typename F>
  void schedule_in(double delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules delivery of `message` from `from` to `to` over `link` at
  /// absolute time `time`; at that instant `sink->on_deliver` runs with
  /// exactly these arguments.  This is the allocation-free per-message
  /// path: an inline queue record, no slab, no type erasure.  Its time
  /// contract is debug-only (LHG_DCHECK).
  void schedule_deliver_at(double time, DeliverSink* sink, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    LHG_DCHECK(time >= now_, "Simulator: time {} is NaN or before now {}",
               time, now_);
    LHG_DCHECK(sink != nullptr, "Simulator::schedule_deliver_at: null sink");
    Event ev;
    ev.message = message;
    ev.from = from;
    ev.to = to;
    ev.link = link;
    ev.sink = sink == last_sink_ ? last_sink_index_ : intern_sink(sink);
    queue_.push(Queue::key_of(time), ev);
  }

  void schedule_deliver_in(double delay, DeliverSink* sink, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    schedule_deliver_at(now_ + delay, sink, from, to, link, message);
  }

  /// Runs events in (time, insertion) order until the queue drains,
  /// then checks that every queue bucket is empty.
  void run();

  /// Runs events with time <= `deadline` (not NaN); later events stay
  /// queued and now() ends at max(now, deadline-capped last executed
  /// time).
  void run_until(double deadline);

  /// Number of events executed so far (deliver + callback).
  std::int64_t events_processed() const { return processed_; }

  /// Number of events still queued.
  std::size_t pending() const { return queue_.size(); }

  /// Callback slots ever carved from the slab — the storage high-water
  /// mark.  Deliver events never touch the slab (their payload rides in
  /// the time queue), and steady-state callback traffic recycles
  /// slots through the free list, so this stays flat while events flow;
  /// tests hook it to prove the hot paths perform zero allocations per
  /// event.
  std::int64_t slots_created() const { return slots_created_; }

  /// Callbacks whose captures exceeded kInlineCallbackCapacity and fell
  /// back to an individual heap allocation.
  std::int64_t callback_heap_allocations() const {
    return callback_heap_allocations_;
  }

 private:
  struct CallbackPayload {
    void (*invoke)(void* storage);   // call the callable, then destroy it
    void (*destroy)(void* storage);  // destroy only (queue teardown)
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackCapacity];
  };

  /// One 64-byte callback slot; `next_free` threads the free list
  /// through vacant slots.
  struct Slot {
    union {
      CallbackPayload callback;
      std::int32_t next_free;
    };
  };
  static_assert(sizeof(Slot) <= 64, "event slot should stay one cache line");

  /// Sink index of callback events.
  static constexpr std::uint32_t kCallbackSink = 0xffffffffu;

  /// Payload of one queued event.  Deliver events carry their whole
  /// payload here, with the sink as an index into `sinks_`; callback
  /// events use `link` as the slab slot id and zero the rest.
  struct Event {
    std::int64_t message;
    std::int32_t from;
    std::int32_t to;
    std::int32_t link;  // deliver: link id; callback: slab slot id
    std::uint32_t sink;  // index into sinks_, or kCallbackSink
  };
  using Queue = TimeQueue<Event>;
  static_assert(sizeof(Queue::Item) <= 32, "queued event should stay compact");

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename R, typename... Args>
  struct IsStdFunction<std::function<R(Args...)>> : std::true_type {};

  void check_time(double time) const {
    LHG_CHECK(time == time && time >= now_,
              "Simulator: time {} is NaN or before now {}", time, now_);
  }

  /// Registers a new deliver sink (or finds a known one) and caches it
  /// as the last one used.
  std::uint32_t intern_sink(DeliverSink* sink);

  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::uint32_t id) {
    return chunks_[id >> kChunkShift][id & (kChunkSize - 1)];
  }

  std::int32_t alloc_slot() {
    if (free_head_ >= 0) {
      const std::int32_t id = free_head_;
      free_head_ = slot(static_cast<std::uint32_t>(id)).next_free;
      return id;
    }
    const auto id = static_cast<std::int32_t>(slots_created_);
    if ((static_cast<std::uint32_t>(id) & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    ++slots_created_;
    return id;
  }

  void free_slot(std::uint32_t id) {
    slot(id).next_free = free_head_;
    free_head_ = static_cast<std::int32_t>(id);
  }

  void drain(std::uint64_t limit);  // run events with key <= limit
  void dispatch(const Event& ev);  // execute exactly one event

  Queue queue_;
  std::vector<DeliverSink*> sinks_;  // deliver sinks seen, by index
  DeliverSink* last_sink_ = nullptr;
  std::uint32_t last_sink_index_ = 0;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::int32_t free_head_ = -1;
  std::int64_t slots_created_ = 0;
  std::int64_t callback_heap_allocations_ = 0;
  double now_ = 0.0;
  std::int64_t processed_ = 0;
  const obs::SimObs* obs_ = nullptr;
};

}  // namespace lhg::flooding
