// The strict Jenkins–Demers construction (the paper's operational rule).
//
// "The construction consists of k copies of a tree whose root node has
//  k children, and whose other interior nodes mostly have k−1 children
//  (except for at most k interior nodes just above the leaf nodes,
//  which may have up to k+1 children).  These trees are then 'pasted
//  together' at the leaves — i.e. each leaf is a leaf of all k trees."
//                                        — Jenkins & Demers, ICDCS 2001
//
// Strictly read, an exception interior may host at most 2 leaves beyond
// its k−1 slots, and at most k interiors may be exceptions.  That gives
// each interior-count α the reachable window
//     n ∈ [ 2k + 2α(k−1),  2k + 2α(k−1) + 2·min(k, B(α+1)) ]
// where B(I) is the number of bottom interiors of the I-interior
// skeleton — and leaves *infinitely many* (n, k) pairs unreachable
// (e.g. (9, 3)); the K-TREE extension closes those gaps.

#pragma once

#include <cstdint>
#include <optional>

#include "lhg/tree_plan.h"

namespace lhg::jd {

/// Maximum leaves addable to one exception interior (k−1 -> k+1 children).
inline constexpr std::int32_t kMaxAddedPerException = 2;

/// Plans the strict-J&D tree for (n, k), or std::nullopt if no strict
/// J&D graph exists for the pair.  Requires k >= 2.
std::optional<TreePlan> plan(std::int64_t n, std::int32_t k);

/// EX_JD(n, k): true iff the strict rule can realize the pair.
bool exists(std::int64_t n, std::int32_t k);

/// REG_JD(n, k): true iff the strict rule can realize the pair
/// k-regularly (no exception interiors), i.e. n = 2k + 2α(k−1).
bool regular_exists(std::int64_t n, std::int32_t k);

}  // namespace lhg::jd
