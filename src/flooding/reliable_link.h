// Per-link reliable delivery: ACK / retransmit / exponential backoff.
//
// Network gives at-most-once, unordered, lossy link transmission.  This
// layer upgrades any overlay arc to at-least-once delivery with
// duplicate suppression, the way real dissemination stacks do:
//
//   * every DATA copy carries a per-arc sequence number and is ACKed by
//     the receiver (ACKs can be lost too);
//   * the sender retransmits an unACKed copy on a timeout that backs
//     off exponentially (base * factor^attempt, capped) until
//     `max_retries` is exhausted;
//   * duplicate DATA is re-ACKed (the previous ACK may have dropped)
//     but handed to the application exactly once.
//
// A third frame type, RAW, shares the handler but bypasses the
// reliability machinery entirely (no seq, no ACK, no dedup) — it is how
// periodic traffic like heartbeats rides the same Network without
// burning sequence numbers; see `send_raw_arc`.
//
// Wire format inside the Network's int64 message: bits 0..1 are the
// type (0 = DATA, 1 = ACK, 2 = RAW), bits 2..17 a 16-bit wrapping
// sequence number (DATA/ACK), and the remaining bits the caller's
// payload (up to 45 bits).
//
// Sequence numbers wrap modulo 2^16 and both endpoints track a sliding
// window of the most recent `kWindow` = 1024 seqs per directed arc
// (fixed 16-word bitmaps, 128 bytes per direction, allocated once in
// the constructor — the steady state allocates nothing).  Window order
// is decided by RFC 1982-style serial-number arithmetic (the signed
// 16-bit difference), so an unbounded stream of frames reuses the same
// fixed state instead of exhausting it; earlier revisions capped each
// arc at 1024 seqs outright and LHG_CHECK-aborted soak-length runs.
//
//   * Sender: `send_base_` is the oldest possibly-unACKed seq; the
//     invariant next_seq - send_base <= kWindow bounds the bitmap.  If
//     a send would exceed it (> 1024 frames in flight on one arc, i.e.
//     the peer is not ACKing as fast as the caller is pushing), the
//     oldest unACKed frame is abandoned and counted in
//     `window_overflows()` — at-least-once holds for every frame whose
//     retry lifetime fits inside the window, which is the contract
//     callers pace against (DESIGN.md §12).
//   * Receiver: the dedup bitmap covers [recv_base, recv_base + 1024);
//     frames behind the window are suppressed as duplicates (they were
//     deliverable only inside it), frames ahead slide it forward.
//
// Runs that stay under 1024 seqs per arc never wrap, never slide, and
// take the exact code path of the pre-window implementation: golden
// traces are byte-identical.
//
// Retry timers capture {this, endpoints, arc, seq, payload, attempt} —
// 36 bytes, inside the Simulator's 48-byte inline callback capture, so
// the retransmit path is allocation-free too.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/graph.h"
#include "flooding/network.h"
#include "obs/obs.h"

namespace lhg::flooding {

/// Retry schedule: attempt i (0-based) is retried after
/// min(base * factor^i, max).  Deterministic: it draws from no Rng.
/// `max == 0` means "no cap".
struct BackoffPolicy {
  double base = 3.0;     ///< delay before the first retransmission
  double factor = 2.0;   ///< multiplier per further attempt
  double max = 60.0;     ///< delay ceiling; 0 disables the cap
  std::int32_t max_retries = 5;  ///< retransmissions after the first send

  /// Whether a send refused by the Network (sender crashed, link down,
  /// partition) keeps its retry timer alive.  Off, a refused attempt
  /// abandons the message (the classic fail-stop reading); on, retries
  /// persist through down windows — what crash-recovery repair needs to
  /// reach a neighbor that is rebooting.
  bool persist_when_blocked = false;

  /// The classic fixed-interval schedule (factor 1, no cap).
  static BackoffPolicy fixed(double interval, std::int32_t retries) {
    return {interval, 1.0, 0.0, retries, false};
  }

  /// Delay before retransmission number `attempt + 1`.
  double delay(std::int32_t attempt) const;
};

/// Reliable transmission over a Network's overlay arcs.  Installs
/// itself as the Network's receive handler; applications register a
/// deliver handler here instead and see each (arc, seq) exactly once
/// within the dedup window.
class ReliableLink {
 public:
  /// Dedup window: seqs per arc tracked on both ends.  Also the bound
  /// on unACKed frames in flight per arc before the sender abandons
  /// the oldest (see `window_overflows`).
  static constexpr std::int32_t kWindow = 1024;

  /// (receiver, sender, payload) — payload is the caller's value, with
  /// the seq/type bits already stripped.
  using DeliverHandler =
      std::function<void(core::NodeId, core::NodeId, std::int64_t)>;

  /// `net` must outlive the ReliableLink.  Takes over the Network's
  /// receive handler.
  ReliableLink(Network& net, const BackoffPolicy& backoff);

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  void set_deliver_handler(DeliverHandler handler) {
    on_deliver_ = std::move(handler);
  }

  /// Handler for RAW frames (heartbeats etc.) — fire-and-forget, no
  /// dedup, delivered in arrival order.
  void set_raw_handler(DeliverHandler handler) {
    on_raw_ = std::move(handler);
  }

  /// Observability tap (may be null; default).  Recording never draws
  /// from an Rng or schedules events, so it cannot perturb the run.
  void set_obs(const obs::SimObs* obs) { obs_ = obs; }

  /// Sends `payload` reliably from `from` to its overlay neighbor `to`.
  /// Payload must be non-negative and fit in 45 bits.  Returns false if
  /// the first transmission was refused by the Network *and* the policy
  /// does not persist through blocked sends.  Fails a contract if `to`
  /// is not a neighbor of `from`.
  bool send(core::NodeId from, core::NodeId to, std::int64_t payload);

  /// Fast path for callers already holding the CSR arc id of from→to.
  bool send_arc(core::NodeId from, core::NodeId to, std::int32_t arc,
                std::int64_t payload);

  /// Unreliable single-shot frame on the same wire (no seq, no ACK, no
  /// retry).  Returns whether the Network accepted the transmission.
  bool send_raw_arc(core::NodeId from, core::NodeId to, std::int32_t arc,
                    std::int64_t payload);

  std::int64_t retransmissions() const { return retransmissions_; }
  std::int64_t acks_sent() const { return acks_sent_; }
  std::int64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  /// Frames abandoned because an arc had kWindow unACKed seqs in
  /// flight.  Nonzero means a caller outpaced its peer's ACKs; the
  /// link.inflight_span histogram shows the approach.
  std::int64_t window_overflows() const { return window_overflows_; }

 private:
  void on_receive(core::NodeId self, core::NodeId from, std::int64_t wire);
  void transmit(core::NodeId from, core::NodeId to, std::int32_t arc,
                std::uint16_t seq, std::int64_t payload, std::int32_t attempt);
  void advance_send_base(std::size_t arc);

  Network* net_;
  BackoffPolicy backoff_;
  DeliverHandler on_deliver_;
  DeliverHandler on_raw_;
  const obs::SimObs* obs_ = nullptr;

  // Per directed arc, all uint16 and wrapping: next seq to assign and
  // the oldest possibly-unACKed seq (sender side, indexed by the DATA
  // arc), plus the base of the receive dedup window (receiver side,
  // indexed by the *reverse* arc — the one the receiver uses to ACK,
  // which it computes once per receive anyway).  The bitmaps hold one
  // bit per window slot (seq % kWindow).
  std::vector<std::uint16_t> next_seq_;
  std::vector<std::uint16_t> send_base_;
  std::vector<std::uint16_t> recv_base_;
  std::vector<std::uint64_t> acked_;
  std::vector<std::uint64_t> delivered_;

  std::int64_t retransmissions_ = 0;
  std::int64_t acks_sent_ = 0;
  std::int64_t duplicates_suppressed_ = 0;
  std::int64_t window_overflows_ = 0;
};

}  // namespace lhg::flooding
