#include "lhg/ktree.h"

#include "core/check.h"

namespace lhg::ktree {

namespace {

void check_args(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-TREE requires k >= 2, got {}", k);
  LHG_CHECK(n >= 2 * k,
            "no K-TREE LHG exists for (n={}, k={}): need n >= 2k = {}", n, k,
            2 * k);
}

}  // namespace

TreePlan plan(std::int64_t n, std::int32_t k) {
  check_args(n, k);
  const std::int64_t step = 2 * (k - 1);
  const std::int64_t alpha = (n - 2 * k) / step;
  const std::int64_t j = (n - 2 * k) % step;  // 0 <= j <= 2k-3
  TreePlan tree = base_plan(k, static_cast<std::int32_t>(alpha + 1));
  if (j > 0) {
    // One bottom interior absorbs the whole deficit (j <= 2k−3, the
    // rule-3d cap), keeping every other node at its regular degree.
    const auto hosts = bottom_interiors(tree);
    for (std::int64_t b = 0; b < j; ++b) add_extra_leaf(tree, hosts.front());
  }
  tree.check_invariants(max_added_per_bottom(k));
  return tree;
}

bool exists(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-TREE requires k >= 2, got {}", k);
  return n >= 2 * k;
}

bool regular_exists(std::int64_t n, std::int32_t k) {
  return exists(n, k) && (n - 2 * k) % (2 * (k - 1)) == 0;
}

}  // namespace lhg::ktree
