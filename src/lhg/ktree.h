// K-TREE graph constraint (extension of the strict J&D rule).
//
// K-TREE relaxes the J&D exception rule: *any* interior just above the
// leaves may host up to 2k−3 added leaves, with no bound on how many
// interiors do so.  Because the regular lattice step is 2(k−1) = 2k−2
// and the per-node slack is 2k−3 = step−1, K-TREE realizes an LHG for
// EVERY pair with n >= 2k:
//
//   EX_KTREE(n, k)  ⇔  n >= 2k
//   REG_KTREE(n, k) ⇔  n = 2k + 2α(k−1)            (α ∈ ℕ)
//
// Every strict-J&D graph satisfies K-TREE; the converse fails for
// infinitely many pairs (e.g. (9, 3)).

#pragma once

#include <cstdint>

#include "lhg/tree_plan.h"

namespace lhg::ktree {

/// Maximum added leaves per bottom interior under rule 3d.
constexpr std::int32_t max_added_per_bottom(std::int32_t k) {
  return 2 * k - 3;
}

/// Plans the K-TREE tree for (n, k).  Throws std::invalid_argument when
/// exists(n, k) is false.  Requires k >= 2.
TreePlan plan(std::int64_t n, std::int32_t k);

/// EX_KTREE(n, k) = (n >= 2k).
bool exists(std::int64_t n, std::int32_t k);

/// REG_KTREE(n, k) = (n = 2k + 2α(k−1) for some α ∈ ℕ).
bool regular_exists(std::int64_t n, std::int32_t k);

}  // namespace lhg::ktree
