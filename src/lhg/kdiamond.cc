#include "lhg/kdiamond.h"

#include "core/check.h"

namespace lhg::kdiamond {

namespace {

void check_args(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-DIAMOND requires k >= 2, got {}", k);
  LHG_CHECK(n >= 2 * k,
            "no K-DIAMOND LHG exists for (n={}, k={}): need n >= 2k = {}", n,
            k, 2 * k);
}

}  // namespace

TreePlan plan(std::int64_t n, std::int32_t k) {
  check_args(n, k);
  const std::int64_t step = k - 1;
  const std::int64_t alpha = (n - 2 * k) / step;
  const std::int64_t j = (n - 2 * k) % step;  // 0 <= j <= k-2
  // Split α into tree growth (2 lattice steps per extra interior) and
  // leaf-group conversions (1 lattice step each).
  const std::int64_t beta = alpha / 2;
  const std::int64_t groups = alpha % 2;

  TreePlan tree = base_plan(k, static_cast<std::int32_t>(beta + 1));
  if (groups > 0) {
    // Convert the deepest shared leaf into an unshared k-clique group.
    make_leaf_unshared(tree, tree.num_leaves() - 1);
  }
  if (j > 0) {
    const auto hosts = bottom_interiors(tree);
    for (std::int64_t b = 0; b < j; ++b) add_extra_leaf(tree, hosts.front());
  }
  tree.check_invariants(max_added_per_bottom(k));
  return tree;
}

bool exists(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-DIAMOND requires k >= 2, got {}", k);
  return n >= 2 * k;
}

bool regular_exists(std::int64_t n, std::int32_t k) {
  return exists(n, k) && (n - 2 * k) % (k - 1) == 0;
}

}  // namespace lhg::kdiamond
