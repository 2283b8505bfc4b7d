#include "flooding/segment_pool.h"

#include <new>

namespace lhg::flooding {

SegmentPool& SegmentPool::instance() {
  // Never destroyed: queues may outlive static destruction order, and
  // the slabs are the process's to keep (segment_pool.h).
  static SegmentPool* const pool = new SegmentPool();
  return *pool;
}

void SegmentPool::take(std::vector<std::byte*>& out, std::size_t count) {
  const core::MutexLock hold(mu_);
  for (; count > 0 && !free_.empty(); --count) {
    out.push_back(free_.back());
    free_.pop_back();
  }
  for (; count > 0; --count) {
    if (carved_ == kSlabBlocks) {
      // Slabs are never freed: the pool keeps its high-water mark.
      slab_ = static_cast<std::byte*>(::operator new(
          kSlabBlocks * kBlockBytes, std::align_val_t{kBlockAlign}));
      carved_ = 0;
      for (std::size_t b = 0; b < kSlabBlocks; ++b) {
        poison(slab_ + b * kBlockBytes);
      }
    }
    out.push_back(slab_ + carved_++ * kBlockBytes);
    ++created_;
  }
}

void SegmentPool::give(std::vector<std::byte*>& blocks) {
  if (blocks.empty()) return;
  const core::MutexLock hold(mu_);
  free_.insert(free_.end(), blocks.begin(), blocks.end());
  blocks.clear();
}

std::int64_t SegmentPool::blocks_created() const {
  const core::MutexLock hold(mu_);
  return created_;
}

}  // namespace lhg::flooding
