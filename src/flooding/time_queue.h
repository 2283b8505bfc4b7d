// Monotone radix time queue: the one pending-event queue of both event
// engines (event_sim.h, shard_sim.h).
//
// A discrete-event simulator never schedules into its own past, so the
// queue only has to serve keys >= the key it last advanced to.  That is
// the setting of the radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990):
//
//   * Keys.  A time t >= 0 becomes the 64-bit key of its IEEE-754 bit
//     pattern, which orders exactly like the doubles themselves (-0.0
//     is mapped to +0.0 first, so the two zeros share one key).
//
//   * Buckets.  An item with key k sits in bucket bit_width(k ^ current),
//     i.e. it is filed by the highest bit in which it differs from the
//     current key.  Bucket 0 -- the *front run* -- holds the items AT
//     the current key; bucket b >= 1 holds keys that agree with the
//     current key above bit b-1 and exceed it in that bit.  A push is
//     one XOR, one bit_width and an append; a push at the same time as
//     the previous one skips even that and appends to the same bucket.
//
//   * Advance.  When the front run is used up, the lowest non-empty
//     bucket holds the smallest pending key (its minimum is tracked per
//     bucket, so finding it never scans).  That minimum becomes the new
//     current key and the bucket's items are re-filed: each lands in a
//     strictly lower bucket, so an item moves at most 64 times over its
//     life, and the common case costs far less.  A bucket whose keys are
//     all equal (every hop of a fixed-latency flood) becomes the front
//     run whole, with a swap.
//
// Insertion order.  Every bucket is a subsequence of push order: pushes
// append; a re-filed bucket is walked front to back and appends into
// lower buckets, which are empty at that moment because it was the
// lowest non-empty one; and anything pushed later is newer than
// everything already queued.  Items with equal keys always share a
// bucket, so the front run lists the items of one key in exactly the
// order they were pushed, and a push at the current key appends to it.
// Both engines drain a timestamp generation by generation: the untaken
// front run is one generation, and what its handlers push at the same
// time lands behind it as the next.  The single-queue engine pops each
// generation in push order.  The sharded engine runs each node's events
// of a generation together, in key order, instead: it reads the
// generation by position (front_at), links positions through the items'
// key words (front_word), and marks the generation taken when done
// (take_front); the items themselves never move.
//
// Contract.  push(key) requires key >= current_key() (a DCHECK here; the
// engines check their own, stronger, time contracts on every path that
// is not the per-message one).  advance(limit) never moves the current
// key past `limit`, and min_key() never moves it at all, so a caller that
// stops at a deadline can still push any key >= the current one later.
//
// Memory.  Buckets are chains of fixed-size segments, each one block
// of the process-wide SegmentPool (segment_pool.h), drawn through one
// SegmentCache per queue.  A bucket that empties (re-filed, or a front
// run used up) returns its segments to the cache at once, and a
// re-filed bucket returns each segment as soon as it has been walked,
// so the queue holds about its live items plus one partial segment per
// bucket.  Nothing grows by doubling or is copied to grow, no
// allocation is larger than one segment, and a destroyed queue hands
// every segment back to the pool, so a steady workload allocates
// nothing and the next queue of the process reuses memory that is
// already resident.  The trade: the pool keeps the largest segment
// footprint the process has held at once, for the process's life.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "flooding/segment_pool.h"

namespace lhg::flooding {

template <typename Payload>
class TimeQueue {
 public:
  struct Item {
    std::uint64_t key;
    Payload payload;
  };
  static_assert(std::is_trivially_copyable_v<Item>,
                "queued items are copied as raw records");
  static_assert(alignof(Item) <= SegmentPool::kBlockAlign);

  /// Items per segment: one pool block's worth.
  static constexpr std::size_t kSegmentItems =
      SegmentPool::kBlockBytes / sizeof(Item);

  TimeQueue() = default;
  TimeQueue(const TimeQueue&) = delete;
  TimeQueue& operator=(const TimeQueue&) = delete;
  /// Hands every segment back to the pool.
  ~TimeQueue() {
    for (Bucket& bucket : buckets_) {
      for (Item* segment : bucket.segments) release_segment(segment);
    }
  }

  /// Returned by min_key() on an empty queue; above every time's key.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  /// Order-preserving key of a time >= 0.  Adding +0.0 maps -0.0 to
  /// +0.0 and leaves every other value unchanged.
  static std::uint64_t key_of(double time) {
    return std::bit_cast<std::uint64_t>(time + 0.0);
  }
  static double time_of(std::uint64_t key) {
    return std::bit_cast<double>(key);
  }

  /// The key of the front run: the last key advanced to (0 initially).
  std::uint64_t current_key() const { return current_; }

  void push(std::uint64_t key, const Payload& payload) {
    push(Item{key, payload});
  }
  void push(const Item& item) {
    LHG_DCHECK(item.key >= current_,
               "TimeQueue: time {} is before the current time {}",
               time_of(item.key), time_of(current_));
    if (item.key == last_key_) {
      // Same time as the previous push: same bucket, whose bounds and
      // occupancy bit already cover this key.
      append(buckets_[last_bucket_], item);
      return;
    }
    last_key_ = item.key;
    last_bucket_ = bucket_of(item.key);
    place(last_bucket_, item);
  }

  /// Smallest pending key (kNoKey if none).  Changes nothing.
  std::uint64_t min_key() const {
    if (!front_empty()) return current_;
    if (occupied_ == 0) return kNoKey;
    return buckets_[lowest_occupied()].lo;
  }

  /// Makes the smallest pending key current, with its items as the
  /// front run, provided that key is <= `limit`.  Returns false, and
  /// leaves the current key where it was, when nothing pending is
  /// <= `limit`.  Items of the front run not yet taken count as pending.
  bool advance(std::uint64_t limit) {
    if (!front_empty()) return current_ <= limit;
    release_front();
    if (occupied_ == 0) return false;
    const int b = lowest_occupied();
    Bucket& src = buckets_[b];
    if (src.lo > limit) return false;
    current_ = src.lo;
    last_key_ = kNoKey;  // bucket indices are relative to the current key
    if (src.lo == src.hi) {
      std::swap(buckets_[0].segments, src.segments);
      std::swap(buckets_[0].tail, src.tail);
      std::swap(buckets_[0].tail_end, src.tail_end);
    } else {
      refile(src);
    }
    src.lo = kNoKey;
    src.hi = 0;
    occupied_ &= ~(std::uint64_t{1} << (b - 1));
    return true;
  }

  /// Front run: the items at the current key, in push order (pushes at
  /// the current key append to it, also while it is being taken).
  bool front_empty() const { return read_ == buckets_[0].tail; }
  const Item& front() {
    if (read_ == read_end_) enter_next_segment();
    return *read_;
  }
  Item pop_front() {
    if (read_ == read_end_) enter_next_segment();
    return *read_++;
  }
  /// Items taken from the front run since the current key was reached.
  std::size_t front_taken() const {
    if (next_segment_ == 0) return 0;
    const Item* segment = buckets_[0].segments[next_segment_ - 1];
    return (next_segment_ - 1) * kSegmentItems +
           static_cast<std::size_t>(read_ - segment);
  }

  /// Items of the front run, taken or not: positions [front_taken(),
  /// front_size()) are the untaken ones, in push order.
  std::size_t front_size() const { return buckets_[0].size(); }
  /// The front-run item at position `i` < front_size().
  const Item& front_at(std::size_t i) const {
    LHG_DCHECK(i < front_size(), "TimeQueue: front position {} of {}", i,
               front_size());
    return buckets_[0].at(i);
  }
  /// The key word of front-run item `i`, as scratch for a caller that
  /// reads the run through front_at() and marks it taken: every
  /// front-run key is current_key(), so the queue never reads the word.
  std::uint64_t& front_word(std::size_t i) {
    LHG_DCHECK(i < front_size(), "TimeQueue: front position {} of {}", i,
               front_size());
    return buckets_[0].segments[i / kSegmentItems][i % kSegmentItems].key;
  }
  /// Marks front-run positions below `end` <= front_size() taken, for a
  /// caller that read them through front_at().  Items at `end` and
  /// beyond (pushed at the current key while the caller read) stay
  /// untaken and are read by pop_front() as usual.
  void take_front(std::size_t end) {
    LHG_DCHECK(end >= front_taken() && end <= front_size(),
               "TimeQueue: take_front({}) outside [{}, {}]", end,
               front_taken(), front_size());
    if (end == 0) return;
    next_segment_ = (end - 1) / kSegmentItems + 1;
    read_end_ = buckets_[0].segments[next_segment_ - 1] + kSegmentItems;
    read_ = read_end_ - (next_segment_ * kSegmentItems - end);
  }

  /// Calls `fn(item)` on every pending item (a cold walk of the whole
  /// queue, for end-of-run accounting).
  template <typename F>
  void for_each_pending(F&& fn) const {
    for (int b = 0; b < kBuckets; ++b) {
      const Bucket& bucket = buckets_[b];
      const std::size_t first = b == 0 ? front_taken() : 0;
      for (std::size_t i = first; i < bucket.size(); ++i) fn(bucket.at(i));
    }
  }

  /// Pending items, counted bucket by bucket.
  std::size_t size() const {
    std::size_t n = buckets_[0].size() - front_taken();
    for (int b = 1; b < kBuckets; ++b) n += buckets_[b].size();
    return n;
  }

  /// True when the occupancy index shows nothing pending.  Together with
  /// size() == 0 this is the end-of-run invariant: the index and every
  /// bucket agree that the queue is empty.
  bool empty() const { return front_empty() && occupied_ == 0; }

 private:
  static constexpr int kBuckets = 65;  // bit_width of a 64-bit XOR: 0..64

  /// A chain of segments filled front to back; only the last one may be
  /// partial.
  struct Bucket {
    std::vector<Item*> segments;
    Item* tail = nullptr;       // next slot to fill in the last segment
    Item* tail_end = nullptr;   // end of the last segment
    std::uint64_t lo = kNoKey;  // min key (buckets >= 1)
    std::uint64_t hi = 0;       // max key (buckets >= 1)

    std::size_t size() const {
      if (segments.empty()) return 0;
      return (segments.size() - 1) * kSegmentItems +
             static_cast<std::size_t>(tail - segments.back());
    }
    const Item& at(std::size_t i) const {
      return segments[i / kSegmentItems][i % kSegmentItems];
    }
  };

  int bucket_of(std::uint64_t key) const {
    return static_cast<int>(std::bit_width(key ^ current_));
  }
  int lowest_occupied() const { return std::countr_zero(occupied_) + 1; }

  void append(Bucket& bucket, const Item& item) {
    if (bucket.tail == bucket.tail_end) add_segment(bucket);
    ::new (static_cast<void*>(bucket.tail++)) Item(item);  // raw pool slot
  }

  void place(int b, const Item& item) {
    Bucket& bucket = buckets_[b];
    append(bucket, item);
    if (b != 0) {
      if (item.key < bucket.lo) bucket.lo = item.key;
      if (item.key > bucket.hi) bucket.hi = item.key;
      occupied_ |= std::uint64_t{1} << (b - 1);
    }
  }

  /// Walks `src` front to back into lower buckets, returning each
  /// segment to the cache once it has been walked.
  void refile(Bucket& src) {
    const std::size_t count = src.segments.size();
    for (std::size_t s = 0; s < count; ++s) {
      Item* segment = src.segments[s];
      const Item* end = s + 1 == count ? src.tail : segment + kSegmentItems;
      for (const Item* it = segment; it != end; ++it) {
        place(bucket_of(it->key), *it);
      }
      release_segment(segment);
    }
    src.segments.clear();
    src.tail = nullptr;
    src.tail_end = nullptr;
  }

  void add_segment(Bucket& bucket) {
    Item* segment = reinterpret_cast<Item*>(cache_.get());
    bucket.segments.push_back(segment);
    bucket.tail = segment;
    bucket.tail_end = segment + kSegmentItems;
  }

  void release_segment(Item* segment) {
    cache_.put(reinterpret_cast<std::byte*>(segment));
  }

  /// Empties the front run: its segments go back to the cache and the
  /// read cursor restarts.
  void release_front() {
    Bucket& front = buckets_[0];
    for (Item* segment : front.segments) release_segment(segment);
    front.segments.clear();
    front.tail = nullptr;
    front.tail_end = nullptr;
    read_ = nullptr;
    read_end_ = nullptr;
    next_segment_ = 0;
  }

  void enter_next_segment() {
    read_ = buckets_[0].segments[next_segment_++];
    read_end_ = read_ + kSegmentItems;
  }

  SegmentCache cache_;  // vacant segments, declared first: freed last
  Bucket buckets_[kBuckets];
  std::uint64_t current_ = 0;
  std::uint64_t occupied_ = 0;  // bit b-1 set <=> bucket b >= 1 non-empty
  std::uint64_t last_key_ = kNoKey;  // key of the previous push ...
  int last_bucket_ = 0;              // ... and the bucket it went to
  // Front-run read cursor: the unread rest of the current segment, and
  // the index of the next front segment to enter.
  Item* read_ = nullptr;
  Item* read_end_ = nullptr;
  std::size_t next_segment_ = 0;
};

}  // namespace lhg::flooding
