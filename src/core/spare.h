// Process-wide spare storage for large per-run tables.
//
// A run that allocates tables of megabytes and frees them at its end
// hands that memory to the allocator, and glibc trims a large free heap
// top back to the OS, so the next run faults every page in again.  The
// sharded engine's per-node tables did exactly that: an S=4 flood of
// ImplicitLhg(10^6, 4) took 6.3-7.4 k minor faults per call (getrusage
// around back-to-back flood() calls) after its queue segments had moved
// to a pool (flooding/segment_pool.h).  A Spare keeps the largest table
// of its type that a run gave back, for the next run to refill in place:
// a steady workload then faults nothing, and a process keeps one table
// of each type for its life.
//
// ZeroedWords is a table of 32-bit words whose pages become resident only
// where written: for a table that a run may touch in only a few places
// (the sharded engine's node heads, which a per-link-latency flood
// hardly writes).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "core/thread_annotations.h"

namespace lhg::core {

/// The process-wide spare of one table type (a std::vector or
/// ZeroedWords): take() hands it out, give() keeps the larger of it and
/// the table given.  Holders rewrite or validate what they read, so no
/// result depends on which run had a table before.
template <typename Table>
class Spare {
 public:
  static Table take() {
    Slot& spare = slot();
    const MutexLock hold(spare.mu);
    return std::exchange(spare.table, Table{});
  }
  static void give(Table&& table) {
    Slot& spare = slot();
    const MutexLock hold(spare.mu);
    if (table.capacity() > spare.table.capacity()) {
      spare.table = std::move(table);
    }
  }

 private:
  struct Slot {
    Mutex mu;
    Table table LHG_GUARDED_BY(mu);
  };
  static Slot& slot() {
    // Never destroyed: runs may outlive static destruction order.
    static Slot* const spare = new Slot();
    return *spare;
  }
};

/// Words from calloc: zero at first, and a page becomes resident only
/// once a word on it is written.  Every table asks for at least
/// kMinBytes, above glibc's largest mmap threshold (32 MiB), so calloc
/// maps it on its own and hands out untouched zero pages; a smaller
/// table could come from reused heap memory, which calloc clears (and
/// so makes resident) in full.  SegmentPool slabs rely on the same rule.
class ZeroedWords {
 public:
  static constexpr std::size_t kMinBytes = (std::size_t{32} << 20) + 4096;

  ZeroedWords() = default;
  explicit ZeroedWords(std::size_t n)
      : capacity_(std::max(n, kMinBytes / sizeof(std::uint32_t))) {
    words_.reset(static_cast<std::uint32_t*>(
        std::calloc(capacity_, sizeof(std::uint32_t))));
    if (words_ == nullptr) throw std::bad_alloc();
  }
  ZeroedWords(ZeroedWords&& other) noexcept
      : capacity_(std::exchange(other.capacity_, 0)),
        words_(std::move(other.words_)) {}
  ZeroedWords& operator=(ZeroedWords&& other) noexcept {
    capacity_ = std::exchange(other.capacity_, 0);
    words_ = std::move(other.words_);
    return *this;
  }

  std::size_t capacity() const { return capacity_; }
  std::uint32_t& operator[](std::size_t i) { return words_[i]; }

 private:
  struct Free {
    void operator()(std::uint32_t* words) const { std::free(words); }
  };
  std::size_t capacity_ = 0;
  std::unique_ptr<std::uint32_t[], Free> words_;
};

}  // namespace lhg::core
