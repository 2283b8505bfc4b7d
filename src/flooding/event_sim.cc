#include "flooding/event_sim.h"

namespace lhg::flooding {

void Simulator::latch_sink(DeliverSink* sink) {
  LHG_CHECK(sink_ == nullptr,
            "Simulator::schedule_deliver_at: a second deliver sink (a "
            "simulator delivers to one)");
  sink_ = sink;
}

std::int64_t Simulator::pending_deliveries() const {
  std::int64_t count = 0;
  queue_.for_each_pending([&count](const Queue::Item& item) {
    count += item.payload.kind == kDeliver ? 1 : 0;
  });
  return count;
}

void Simulator::dispatch(const Event& ev) {
  ++processed_;
  const bool deliver = ev.kind == kDeliver;
  if (obs_ != nullptr) {
    obs_->add(deliver ? obs_->sim_deliver_events : obs_->sim_callback_events);
  }
  if (deliver) {
    // The whole payload is in `ev` — copied off the queue, so the sink
    // is free to schedule follow-up events.
    sink_->on_deliver(ev.from, ev.to, ev.link, ev.message);
  } else {
    callbacks_.invoke(ev.link);
  }
}

void Simulator::drain(std::uint64_t limit) {
  // One timestamp per pass: the front run holds its events in insertion
  // order, and events a handler schedules at the same time append to
  // it.  Each event is copied off the queue before it runs, since
  // scheduling may reallocate the front run.
  while (queue_.advance(limit)) {
    now_ = Queue::time_of(queue_.current_key());
    while (!queue_.front_empty()) dispatch(queue_.pop_front().payload);
    if (obs_ != nullptr) {
      obs_->observe(obs_->sim_bucket_events,
                    static_cast<std::int64_t>(queue_.front_taken()));
    }
  }
}

void Simulator::run() {
  drain(Queue::kNoKey);
  LHG_CHECK(pending() == 0 && queue_.empty(),
            "Simulator::run: {} events left queued after the drain",
            pending());
}

void Simulator::run_until(double deadline) {
  LHG_CHECK(deadline == deadline, "Simulator::run_until: NaN deadline");
  if (deadline < 0.0) return;  // every event time is >= 0
  drain(Queue::key_of(deadline));
  if (now_ < deadline) now_ = deadline;
}

}  // namespace lhg::flooding
