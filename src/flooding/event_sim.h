// Allocation-free typed-event discrete-event simulator.
//
// The flooding experiments need virtual time (message latencies, crash
// times) without wall-clock nondeterminism, at millions of events per
// trial.  The engine therefore avoids the classic
// std::function-per-event design (one heap allocation and one indirect
// call per message) in favour of typed events over pooled storage:
//
//   * Two event kinds.  A *deliver* event — the per-message hot path —
//     is a plain (from, to, link, message) record dispatched straight
//     into the simulator's one DeliverSink (the Network), with no type
//     erasure at all.  Its payload is stored inline in the event queue,
//     so scheduling and executing a message performs no allocation and
//     chases no pointers.
//
//   * Slab free-list callback storage.  Everything else (crashes, link
//     failures, timers, protocol bootstraps) is a *callback* event
//     whose callable lives in a 64-byte slot of the engine's
//     CallbackSlab (callback_slab.h, shared with the sharded engine):
//     inline when its captures fit in kInlineCallbackCapacity bytes,
//     recycled through a free list, so steady-state traffic performs
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
//     bytes: its time key and an inline (message, from, to, link, kind)
//     payload.
//
// Determinism contract (unchanged from the std::function engine):
// events execute in (time, insertion) order, a total order, so a run is
// a pure function of its inputs — two runs with the same seed produce
// identical traces, which the golden-trace regression tests pin down to
// the exact (time, event) sequence.  Every radix bucket keeps its items
// in push order and equal times always share a bucket, so the front run
// of one timestamp is exactly its events in insertion order
// (time_queue.h has the argument).  An event scheduled at the current
// time appends behind everything queued, so a timestamp runs
// breadth-first: (time, generation, insertion).  The sharded engine
// keeps (time, generation) and orders only each node's events of a
// generation, by canonical key (shard_sim.h).
//
// Monotone time.  Events may only be scheduled at or after now(); the
// check is always on for callbacks and debug-only (LHG_DCHECK) on the
// per-message deliver path.  run_until(d) leaves the queue's current
// time at the last executed timestamp, so later scheduling anywhere in
// [d, next pending time) stays legal.  -0.0 is treated as +0.0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/check.h"
#include "flooding/callback_slab.h"
#include "flooding/time_queue.h"
#include "obs/obs.h"

namespace lhg::flooding {

class Simulator {
 public:
  /// Captures up to this size (and alignment <= max_align_t) are stored
  /// inline in the event slot; larger callables heap-allocate (counted
  /// by `callback_heap_allocations()`).
  static constexpr std::size_t kInlineCallbackCapacity =
      CallbackSlab<>::kInlineCapacity;

  /// Receiver of first-class deliver events.  `link` is whatever the
  /// scheduler passed (the Network uses Graph::edge_index ids).  A
  /// simulator has one: the first schedule_deliver_* call latches it.
  class DeliverSink {
   public:
    virtual void on_deliver(std::int32_t from, std::int32_t to,
                            std::int32_t link, std::int64_t message) = 0;

   protected:
    ~DeliverSink() = default;
  };

  Simulator() = default;

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
    Event ev;
    ev.message = 0;
    ev.from = 0;
    ev.to = 0;
    ev.link = callbacks_.store(std::forward<F>(fn));
    ev.kind = kCallback;
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
  /// contract is debug-only (LHG_DCHECK).  `sink` must be the same on
  /// every call (LHG_CHECK).
  void schedule_deliver_at(double time, DeliverSink* sink, std::int32_t from,
                           std::int32_t to, std::int32_t link,
                           std::int64_t message) {
    LHG_DCHECK(time >= now_, "Simulator: time {} is NaN or before now {}",
               time, now_);
    LHG_DCHECK(sink != nullptr, "Simulator::schedule_deliver_at: null sink");
    if (sink != sink_) latch_sink(sink);
    Event ev;
    ev.message = message;
    ev.from = from;
    ev.to = to;
    ev.link = link;
    ev.kind = kDeliver;
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

  /// Deliver events still queued: the copies in flight after a
  /// run_until.  Walks the whole queue; meant for end-of-run checks.
  std::int64_t pending_deliveries() const;

  /// Callback slots ever carved from the slab — the storage high-water
  /// mark.  Deliver events never touch the slab (their payload rides in
  /// the time queue), and steady-state callback traffic recycles
  /// slots through the free list, so this stays flat while events flow;
  /// tests hook it to prove the hot paths perform zero allocations per
  /// event.
  std::int64_t slots_created() const { return callbacks_.slots_created(); }

  /// Callbacks whose captures exceeded kInlineCallbackCapacity and fell
  /// back to an individual heap allocation.
  std::int64_t callback_heap_allocations() const {
    return callbacks_.heap_allocations();
  }

 private:
  enum Kind : std::uint32_t { kDeliver = 0, kCallback = 1 };

  /// Payload of one queued event.  Deliver events carry their whole
  /// payload here; callback events use `link` as the slab slot id and
  /// zero the rest.
  struct Event {
    std::int64_t message;
    std::int32_t from;
    std::int32_t to;
    std::int32_t link;  // deliver: link id; callback: slab slot id
    std::uint32_t kind;
  };
  using Queue = TimeQueue<Event>;
  static_assert(sizeof(Queue::Item) <= 32, "queued event should stay compact");

  void check_time(double time) const {
    LHG_CHECK(time == time && time >= now_,
              "Simulator: time {} is NaN or before now {}", time, now_);
  }

  /// Makes `sink` the deliver sink; fails a contract if one is set.
  void latch_sink(DeliverSink* sink);

  void drain(std::uint64_t limit);  // run events with key <= limit
  void dispatch(const Event& ev);  // execute exactly one event

  Queue queue_;
  DeliverSink* sink_ = nullptr;

  CallbackSlab<> callbacks_;
  double now_ = 0.0;
  std::int64_t processed_ = 0;
  const obs::SimObs* obs_ = nullptr;
};

}  // namespace lhg::flooding
