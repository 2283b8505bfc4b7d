#include "flooding/reliable_link.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace lhg::flooding {

using core::NodeId;

namespace {

constexpr std::int32_t kWindow = ReliableLink::kWindow;
constexpr std::size_t kSeqWords = static_cast<std::size_t>(kWindow) / 64;
constexpr std::int64_t kSeqMask = 0xFFFF;  // bits 2..17 of the wire word

constexpr std::int64_t kData = 0;
constexpr std::int64_t kAck = 1;
constexpr std::int64_t kRaw = 2;

constexpr std::int64_t encode_data(std::uint16_t seq, std::int64_t payload) {
  return (payload << 18) | (static_cast<std::int64_t>(seq) << 2) | kData;
}
constexpr std::int64_t encode_ack(std::uint16_t seq) {
  return (static_cast<std::int64_t>(seq) << 2) | kAck;
}
constexpr std::int64_t encode_raw(std::int64_t payload) {
  return (payload << 2) | kRaw;
}
constexpr std::int64_t type_of(std::int64_t wire) { return wire & 3; }
constexpr std::uint16_t seq_of(std::int64_t wire) {
  return static_cast<std::uint16_t>((wire >> 2) & kSeqMask);
}
constexpr std::int64_t payload_of(std::int64_t wire) { return wire >> 18; }
constexpr std::int64_t raw_payload_of(std::int64_t wire) { return wire >> 2; }

// RFC 1982-style serial-number order: how far `seq` sits ahead of
// `base` in the wrapping 16-bit space, as a signed distance.  Valid
// while live traffic on one arc spans < 2^15 seqs — with a 1024-seq
// window and bounded retry lifetimes that holds by construction.
constexpr std::int32_t seq_ahead(std::uint16_t seq, std::uint16_t base) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(seq - base));
}

// Window bitmaps: one bit per slot, slot = seq % kWindow.  A slot is
// only trusted for seqs inside the owning window, so reusing it for
// seq + kWindow requires clearing first (see the call sites).
bool test_bit(const std::vector<std::uint64_t>& bits, std::int32_t arc,
              std::uint16_t seq) {
  const std::int32_t slot = seq % kWindow;
  return (bits[static_cast<std::size_t>(arc) * kSeqWords +
               static_cast<std::size_t>(slot / 64)] &
          (std::uint64_t{1} << (slot % 64))) != 0;
}

void set_bit(std::vector<std::uint64_t>& bits, std::int32_t arc,
             std::uint16_t seq) {
  const std::int32_t slot = seq % kWindow;
  bits[static_cast<std::size_t>(arc) * kSeqWords +
       static_cast<std::size_t>(slot / 64)] |= std::uint64_t{1} << (slot % 64);
}

void clear_bit(std::vector<std::uint64_t>& bits, std::int32_t arc,
               std::uint16_t seq) {
  const std::int32_t slot = seq % kWindow;
  bits[static_cast<std::size_t>(arc) * kSeqWords +
       static_cast<std::size_t>(slot / 64)] &=
      ~(std::uint64_t{1} << (slot % 64));
}

void clear_arc(std::vector<std::uint64_t>& bits, std::int32_t arc) {
  std::fill_n(bits.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(arc) * kSeqWords),
              kSeqWords, std::uint64_t{0});
}

}  // namespace

double BackoffPolicy::delay(std::int32_t attempt) const {
  const double d = base * std::pow(factor, static_cast<double>(attempt));
  return max > 0.0 ? std::min(d, max) : d;
}

ReliableLink::ReliableLink(Network& net, const BackoffPolicy& backoff)
    : net_(&net), backoff_(backoff) {
  LHG_CHECK(backoff.base > 0.0 && backoff.factor >= 1.0 &&
                backoff.max >= 0.0 && backoff.max_retries >= 0,
            "reliable_link: bad backoff (base={}, factor={}, max={}, "
            "retries={})",
            backoff.base, backoff.factor, backoff.max, backoff.max_retries);
  const auto arcs = static_cast<std::size_t>(net.topology().num_arcs());
  next_seq_.assign(arcs, 0);
  send_base_.assign(arcs, 0);
  recv_base_.assign(arcs, 0);
  acked_.assign(arcs * kSeqWords, 0);
  delivered_.assign(arcs * kSeqWords, 0);
  net.set_receive_handler([this](NodeId self, NodeId from, std::int64_t wire) {
    on_receive(self, from, wire);
  });
}

bool ReliableLink::send(NodeId from, NodeId to, std::int64_t payload) {
  const std::int32_t arc = net_->topology().arc_index(from, to);
  LHG_CHECK(arc >= 0, "reliable_link: send {} -> {}: not an overlay edge",
            from, to);
  return send_arc(from, to, arc, payload);
}

void ReliableLink::advance_send_base(std::size_t arc) {
  const auto a = static_cast<std::int32_t>(arc);
  while (send_base_[arc] != next_seq_[arc] &&
         test_bit(acked_, a, send_base_[arc])) {
    ++send_base_[arc];  // wraps
  }
}

bool ReliableLink::send_arc(NodeId from, NodeId to, std::int32_t arc,
                            std::int64_t payload) {
  LHG_DCHECK(payload >= 0 && (payload >> 45) == 0,
             "reliable_link: payload {} does not fit in 45 bits", payload);
  const auto a = static_cast<std::size_t>(arc);
  std::int32_t span = seq_ahead(next_seq_[a], send_base_[a]);
  if (span == kWindow) {
    // kWindow unACKed frames in flight on this arc: abandon the oldest
    // (its slot is the one the new seq needs) and keep going instead of
    // aborting the run.  Callers that must not lose frames pace their
    // sends so retry lifetimes fit inside the window.
    ++window_overflows_;
    ++send_base_[a];
    advance_send_base(a);
    span = seq_ahead(next_seq_[a], send_base_[a]);
  }
  const std::uint16_t seq = next_seq_[a]++;
  // The slot last belonged to seq - kWindow, now out of the window;
  // for never-wrapped arcs this clears an already-clear bit.
  clear_bit(acked_, arc, seq);
  if (obs_ != nullptr) {
    obs_->add(obs_->link_data);
    obs_->observe(obs_->link_inflight, span + 1);
  }
  const bool accepted =
      net_->send_link(from, to, net_->topology().edge_of_arc(arc),
                      encode_data(seq, payload));
  if (!accepted && !backoff_.persist_when_blocked) return false;
  if (backoff_.max_retries > 0) {
    net_->simulator().schedule_in(
        backoff_.delay(0),
        [this, from, to, arc, seq, payload] {
          transmit(from, to, arc, seq, payload, 1);
        });
  }
  return true;
}

void ReliableLink::transmit(NodeId from, NodeId to, std::int32_t arc,
                            std::uint16_t seq, std::int64_t payload,
                            std::int32_t attempt) {
  // A seq behind the send window is finished: ACKed (base advanced past
  // it) or abandoned by a window overflow.  Either way its bitmap slot
  // now belongs to a newer seq and must not be read.
  if (seq_ahead(seq, send_base_[static_cast<std::size_t>(arc)]) < 0) return;
  if (test_bit(acked_, arc, seq)) return;
  const bool accepted =
      net_->send_link(from, to, net_->topology().edge_of_arc(arc),
                      encode_data(seq, payload));
  if (accepted) {
    ++retransmissions_;
    if (obs_ != nullptr) {
      obs_->add(obs_->link_retransmits);
      obs_->event(net_->simulator().now(), obs::TraceKind::kRetransmit, from,
                  to, seq);
    }
  } else if (!backoff_.persist_when_blocked) {
    return;
  }
  if (attempt >= backoff_.max_retries) return;
  net_->simulator().schedule_in(
      backoff_.delay(attempt),
      [this, from, to, arc, seq, payload, attempt] {
        transmit(from, to, arc, seq, payload, attempt + 1);
      });
}

bool ReliableLink::send_raw_arc(NodeId from, NodeId to, std::int32_t arc,
                                std::int64_t payload) {
  LHG_DCHECK(payload >= 0 && (payload >> 61) == 0,
             "reliable_link: raw payload {} does not fit in 62 bits", payload);
  return net_->send_link(from, to, net_->topology().edge_of_arc(arc),
                         encode_raw(payload));
}

void ReliableLink::on_receive(NodeId self, NodeId from, std::int64_t wire) {
  if (type_of(wire) == kRaw) {
    if (on_raw_) on_raw_(self, from, raw_payload_of(wire));
    return;
  }
  // Both directions key their state off the arc self→from: for an ACK
  // that is the arc the DATA went out on; for DATA it is the reverse of
  // the travel arc — still a unique (sender, receiver) key, and the arc
  // the ACK must be sent on, so one lookup serves both.
  const std::int32_t arc = net_->topology().arc_index(self, from);
  const auto a = static_cast<std::size_t>(arc);
  const std::uint16_t seq = seq_of(wire);
  if (type_of(wire) == kAck) {
    // Ignore ACKs for seqs behind the send window (a duplicate ACK for
    // a frame the base already passed, or for an abandoned frame) —
    // their slot belongs to a newer seq now.
    if (seq_ahead(seq, send_base_[a]) < 0) {
      if (obs_ != nullptr) obs_->add(obs_->link_stale);
      return;
    }
    set_bit(acked_, arc, seq);
    advance_send_base(a);
    return;
  }
  // Always (re-)ACK DATA — the previous ACK may have been lost.
  if (net_->send_link(self, from, net_->topology().edge_of_arc(arc),
                      encode_ack(seq))) {
    ++acks_sent_;
    if (obs_ != nullptr) obs_->add(obs_->link_acks);
  }
  const std::int32_t ahead = seq_ahead(seq, recv_base_[a]);
  if (ahead < 0) {
    // Behind the dedup window: this seq was only deliverable while the
    // window covered it, so it was either delivered then or superseded.
    ++duplicates_suppressed_;
    if (obs_ != nullptr) obs_->add(obs_->link_duplicates);
    return;
  }
  if (ahead >= kWindow) {
    // Ahead of the window: slide it so `seq` becomes the newest slot,
    // retiring the oldest seqs (their slots are reused from here on).
    const auto new_base = static_cast<std::uint16_t>(seq - kWindow + 1);
    if (ahead - kWindow + 1 >= kWindow) {
      clear_arc(delivered_, arc);
    } else {
      for (std::uint16_t s = recv_base_[a]; s != new_base; ++s) {
        clear_bit(delivered_, arc, s);
      }
    }
    recv_base_[a] = new_base;
  }
  if (test_bit(delivered_, arc, seq)) {
    ++duplicates_suppressed_;
    if (obs_ != nullptr) obs_->add(obs_->link_duplicates);
    return;
  }
  set_bit(delivered_, arc, seq);
  if (on_deliver_) on_deliver_(self, from, payload_of(wire));
}

}  // namespace lhg::flooding
