// Tests for the callback store shared by both event engines
// (flooding/callback_slab.h).

#include "flooding/callback_slab.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace lhg::flooding {
namespace {

TEST(CallbackSlab, SmallCapturesStayInlineAndLargeOnesUseTheHeap) {
  CallbackSlab<std::int32_t> slab;
  std::int64_t a = 1, b = 2, c = 3, d = 4;  // 40 bytes with `out`
  std::int64_t small_seen = 0;
  std::int64_t* out = &small_seen;
  const std::int32_t small = slab.store([a, b, c, d, out](std::int32_t x) {
    *out = a + b + c + d + x;
  });
  EXPECT_EQ(slab.heap_allocations(), 0);

  struct Big {
    double payload[16];  // 128 bytes: over the inline budget
  };
  Big big{};
  big.payload[7] = 42.0;
  double big_seen = 0.0;
  const std::int32_t large = slab.store(
      [big, &big_seen](std::int32_t x) { big_seen = big.payload[7] + x; });
  EXPECT_EQ(slab.heap_allocations(), 1);

  slab.invoke(large, 1);
  slab.invoke(small, 10);
  EXPECT_EQ(small_seen, 20);
  EXPECT_DOUBLE_EQ(big_seen, 43.0);
  EXPECT_EQ(slab.slots_created(), 2);
}

TEST(CallbackSlab, FreeListReuseKeepsSlotsCreatedFlat) {
  CallbackSlab<> slab;
  int fired = 0;
  // One live callable at a time reuses one slot forever.
  for (int i = 0; i < 1000; ++i) slab.invoke(slab.store([&] { ++fired; }));
  EXPECT_EQ(slab.slots_created(), 1);
  // Three live at once need three; running them frees all three, and
  // later stores (past a chunk's worth) reuse them instead of carving.
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(slab.store([&] { ++fired; }));
  for (const std::int32_t id : ids) slab.invoke(id);
  for (int i = 0; i < 600; ++i) slab.invoke(slab.store([&] { ++fired; }));
  EXPECT_EQ(slab.slots_created(), 3);
  EXPECT_EQ(fired, 1603);
}

TEST(CallbackSlab, CallableStoringMoreCallbacksRunsInPlace) {
  // A callable that stores enough callbacks to carve new chunks still
  // runs from its own (stable) slot.
  CallbackSlab<> slab;
  std::vector<std::int32_t> stored;
  int tail = 0;
  const std::int32_t first = slab.store([&slab, &stored, &tail] {
    for (int i = 0; i < 1000; ++i) stored.push_back(slab.store([] {}));
    tail = 7;
  });
  slab.invoke(first);
  EXPECT_EQ(tail, 7);
  EXPECT_EQ(slab.slots_created(), 1001);
  for (const std::int32_t id : stored) slab.invoke(id);
}

TEST(CallbackSlab, NeverRunCallablesAreDestroyedWithTheSlab) {
  // Captured shared_ptrs count the live copies: inline and heap-stored
  // callables that never ran, and one whose run threw, must all be
  // destroyed (exactly once) by the slab's destructor.
  auto token = std::make_shared<int>(5);
  struct Big {
    double payload[16];
  };
  {
    CallbackSlab<> slab;
    slab.store([token] { (void)*token; });
    slab.store([token, big = Big{}] { (void)big; });
    const std::int32_t throws =
        slab.store([token] { throw std::runtime_error("handler failed"); });
    const std::int32_t runs = slab.store([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 5);
    slab.invoke(runs);
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_THROW(slab.invoke(throws), std::runtime_error);
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(CallbackSlab, RejectsEmptyStdFunction) {
  CallbackSlab<std::int32_t> slab;
  EXPECT_THROW(slab.store(std::function<void(std::int32_t)>{}),
               std::invalid_argument);
  EXPECT_EQ(slab.slots_created(), 0);
  int seen = 0;
  slab.invoke(slab.store(std::function<void(std::int32_t)>(
                  [&seen](std::int32_t x) { seen = x; })),
              3);
  EXPECT_EQ(seen, 3);
}

}  // namespace
}  // namespace lhg::flooding
