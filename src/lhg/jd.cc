#include "lhg/jd.h"

#include <algorithm>

#include "core/check.h"

namespace lhg::jd {

namespace {

void check_k(std::int32_t k) {
  LHG_CHECK(k >= 2, "J&D construction requires k >= 2, got {}", k);
}

}  // namespace

std::optional<TreePlan> plan(std::int64_t n, std::int32_t k) {
  check_k(k);
  if (n < 2 * k) return std::nullopt;

  // Regular lattice points are n0(α) = 2k + 2α(k−1); walk α downward
  // from the largest candidate and stop once the deficit j exceeds the
  // absorbable maximum 2k (it only grows as α shrinks).
  const std::int64_t step = 2 * (k - 1);
  for (std::int64_t alpha = (n - 2 * k) / step; alpha >= 0; --alpha) {
    const std::int64_t j = n - 2 * k - alpha * step;
    if (j > 2 * k) break;
    const auto num_interiors = static_cast<std::int32_t>(alpha + 1);
    const std::int32_t exceptions_available =
        std::min(k, count_bottom_interiors(k, num_interiors));
    if (j > static_cast<std::int64_t>(kMaxAddedPerException) *
                exceptions_available) {
      continue;
    }
    TreePlan tree = base_plan(k, num_interiors);
    const auto hosts = bottom_interiors(tree);
    std::int64_t remaining = j;
    for (std::size_t h = 0; remaining > 0; ++h) {
      const auto batch = std::min<std::int64_t>(remaining, kMaxAddedPerException);
      for (std::int64_t b = 0; b < batch; ++b) add_extra_leaf(tree, hosts[h]);
      remaining -= batch;
    }
    tree.check_invariants(kMaxAddedPerException);
    return tree;
  }
  return std::nullopt;
}

bool exists(std::int64_t n, std::int32_t k) { return plan(n, k).has_value(); }

bool regular_exists(std::int64_t n, std::int32_t k) {
  check_k(k);
  if (n < 2 * k) return false;
  return (n - 2 * k) % (2 * (k - 1)) == 0;
}

}  // namespace lhg::jd
