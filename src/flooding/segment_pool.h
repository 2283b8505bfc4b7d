// Process-wide pool of fixed-size blocks: the segment storage of both
// event engines' time queues (time_queue.h) and of the sharded engine's
// cross-shard outboxes (shard_sim.h).
//
// Why a pool.  A flood's time queue holds tens of megabytes of segments
// at its peak (about 55 MB single-queue and 68 MB sharded at S=4 for a
// fixed-latency flood of ImplicitLhg(10^6, 4)).  Allocated per engine
// and freed when the engine goes, that memory went back to the OS, and
// the next engine faulted every page in again.  The pool keeps its
// blocks for the life of the process, so an engine built after another
// one reuses pages already resident.  The gain needs more than one
// engine run per process (trial loops, benches); a one-shot run pays
// for its pages as before.
//
// Trade.  The pool never shrinks: it retains the largest footprint the
// runs of the process have held at once so far, and a process that ran
// one large flood keeps that memory until it exits.
//
// Slabs.  Blocks are carved, in order, from slabs of kSlabBlocks blocks
// (about 33.8 MB), above glibc's largest mmap threshold (32 MiB), so
// every slab is a mapping of its own and the pages of blocks no queue
// has reached yet never become resident.
//
// Threads.  The sharded engine's lanes take blocks concurrently.  One
// mutex guards the pool, and each user draws through a SegmentCache,
// which takes kBatch blocks per lock and returns everything it holds
// when it is destroyed.  Which block a queue gets depends on thread
// timing; what it stores in it does not, so no result depends on the
// pool.
//
// AddressSanitizer.  A block is poisoned whenever no queue holds it:
// from its slab's creation until a SegmentCache hands it out, and again
// from the moment it is put back.  A reference into a segment that
// outlives its queue, or its bucket, is reported as use-after-poison.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_annotations.h"

#if defined(__SANITIZE_ADDRESS__)
#define LHG_SEGMENT_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LHG_SEGMENT_POOL_ASAN 1
#endif
#endif

#ifdef LHG_SEGMENT_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace lhg::flooding {

class SegmentPool {
 public:
  /// Bytes per block: 320 single-queue items (32 B), 256 sharded items
  /// (40 B), or one sharded outbox block.
  static constexpr std::size_t kBlockBytes = 10 * 1024;
  /// Every block starts on a cache line.
  static constexpr std::size_t kBlockAlign = 64;
  /// Blocks per slab: kSlabBlocks * kBlockBytes is above 32 MiB.
  static constexpr std::size_t kSlabBlocks = 3300;
  /// True when blocks are poisoned outside their queue (ASan builds).
#ifdef LHG_SEGMENT_POOL_ASAN
  static constexpr bool kPoisonsVacantBlocks = true;
#else
  static constexpr bool kPoisonsVacantBlocks = false;
#endif

  /// The one pool of the process (never destroyed).
  static SegmentPool& instance();

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// Appends `count` vacant (poisoned) blocks to `out`: returned blocks
  /// first, then new ones carved from the current slab.
  void take(std::vector<std::byte*>& out, std::size_t count)
      LHG_EXCLUDES(mu_);
  /// Takes back every block of `blocks` (vacant, poisoned) and empties
  /// it.
  void give(std::vector<std::byte*>& blocks) LHG_EXCLUDES(mu_);

  /// Blocks ever carved from slabs: the pool's high-water mark, which
  /// stays flat while runs reuse returned blocks.
  std::int64_t blocks_created() const LHG_EXCLUDES(mu_);

  static void poison(std::byte* block) {
#ifdef LHG_SEGMENT_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(block, kBlockBytes);
#else
    (void)block;
#endif
  }
  static void unpoison(std::byte* block) {
#ifdef LHG_SEGMENT_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(block, kBlockBytes);
#else
    (void)block;
#endif
  }

 private:
  SegmentPool() = default;

  mutable core::Mutex mu_;
  std::vector<std::byte*> free_ LHG_GUARDED_BY(mu_);  // returned blocks
  std::byte* slab_ LHG_GUARDED_BY(mu_) = nullptr;     // current slab
  std::size_t carved_ LHG_GUARDED_BY(mu_) = kSlabBlocks;  // of slab_
  std::int64_t created_ LHG_GUARDED_BY(mu_) = 0;
};

/// One user's vacant blocks, refilled from the pool kBatch blocks at a
/// time and returned to it whole on destruction.  Not thread-safe: a
/// cache belongs to one queue (or one shard's outboxes), which only one
/// lane touches at a time.
class SegmentCache {
 public:
  /// Blocks per pool lock: 320 KiB.
  static constexpr std::size_t kBatch = 32;

  SegmentCache() = default;
  SegmentCache(const SegmentCache&) = delete;
  SegmentCache& operator=(const SegmentCache&) = delete;
  ~SegmentCache() { SegmentPool::instance().give(free_); }

  /// A block for the caller's use (unpoisoned, contents indeterminate).
  std::byte* get() {
    if (free_.empty()) SegmentPool::instance().take(free_, kBatch);
    std::byte* block = free_.back();
    free_.pop_back();
    SegmentPool::unpoison(block);
    return block;
  }
  /// Takes back a block from get(); the caller must not touch it again.
  void put(std::byte* block) {
    SegmentPool::poison(block);
    free_.push_back(block);
  }

 private:
  std::vector<std::byte*> free_;
};

}  // namespace lhg::flooding
