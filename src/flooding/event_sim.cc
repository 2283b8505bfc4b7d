#include "flooding/event_sim.h"

#include <algorithm>

namespace lhg::flooding {

std::uint32_t Simulator::intern_sink(DeliverSink* sink) {
  const auto index = static_cast<std::uint32_t>(
      std::find(sinks_.begin(), sinks_.end(), sink) - sinks_.begin());
  if (index == sinks_.size()) sinks_.push_back(sink);
  last_sink_ = sink;
  last_sink_index_ = index;
  return index;
}

void Simulator::dispatch(const Event& ev) {
  ++processed_;
  const bool deliver = ev.sink != kCallbackSink;
  if (obs_ != nullptr) {
    obs_->add(deliver ? obs_->sim_deliver_events : obs_->sim_callback_events);
  }
  if (deliver) {
    // The whole payload is in `ev` — copied off the queue, so the sink
    // is free to schedule follow-up events.
    sinks_[ev.sink]->on_deliver(ev.from, ev.to, ev.link, ev.message);
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
