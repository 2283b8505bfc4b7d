// K-DIAMOND graph constraint (extension of the strict J&D rule).
//
// K-DIAMOND keeps the k-pasted-trees skeleton but introduces a second
// leaf realization: an *unshared* leaf is a k-clique whose member c is
// attached to tree copy c (one edge each), so every member has degree
// exactly k.  Converting a shared leaf into an unshared group adds k−1
// nodes without disturbing any other degree, which halves the regular
// lattice step relative to K-TREE:
//
//   EX_KDIAMOND(n, k)  ⇔  n >= 2k            (equivalent to K-TREE)
//   REG_KDIAMOND(n, k) ⇔  n = 2k + α(k−1)    (α ∈ ℕ)
//
// Hence REG_KTREE ⇒ REG_KDIAMOND, and infinitely many pairs (every odd
// α) are k-regular under K-DIAMOND but not under K-TREE.  Added shared
// leaves are capped at k−2 per bottom interior (rule 5d), which exactly
// tiles the residues between consecutive lattice points.

#pragma once

#include <cstdint>

#include "lhg/tree_plan.h"

namespace lhg::kdiamond {

/// Maximum added leaves per bottom interior under rule 5d.
constexpr std::int32_t max_added_per_bottom(std::int32_t k) { return k - 2; }

/// Plans the K-DIAMOND tree for (n, k).  Throws std::invalid_argument
/// when exists(n, k) is false.  Requires k >= 2.
TreePlan plan(std::int64_t n, std::int32_t k);

/// EX_KDIAMOND(n, k) = (n >= 2k).
bool exists(std::int64_t n, std::int32_t k);

/// REG_KDIAMOND(n, k) = (n = 2k + α(k−1) for some α ∈ ℕ).
bool regular_exists(std::int64_t n, std::int32_t k);

}  // namespace lhg::kdiamond
