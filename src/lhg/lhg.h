// Umbrella API for Logarithmic Harary Graph construction.
//
// Quickstart:
//
//   #include "lhg/lhg.h"
//   auto g = lhg::build(/*n=*/400, /*k=*/4);      // 4-connected, O(log n) diameter
//   auto report = lhg::verify(g, 4);              // checks P1..P4 + regularity
//
// `build` defaults to the K-TREE constraint because it is total on
// n >= 2k; `Constraint::kStrictJD` reproduces exactly the paper's
// operational rule (partial), and `Constraint::kKDiamond` trades tree
// purity for k-regularity on twice as many sizes.

#pragma once

#include <cstdint>
#include <string>

#include "core/graph.h"
#include "lhg/jd.h"
#include "lhg/kdiamond.h"
#include "lhg/ktree.h"
#include "lhg/layout.h"
#include "lhg/tree_plan.h"

namespace lhg {

/// Which construction rule to apply.
enum class Constraint {
  kStrictJD,  ///< the paper's operational rule, verbatim (partial coverage)
  kKTree,     ///< J&D + relaxed added-leaf rule; total on n >= 2k
  kKDiamond,  ///< shared/unshared leaves; k-regular on twice as many sizes
};

/// Printable name ("strict-jd", "k-tree", "k-diamond").
std::string to_string(Constraint c);

/// Builds an LHG on n nodes tolerating k−1 failures under the given
/// constraint.  Throws std::invalid_argument if the pair is not
/// realizable under that constraint (see exists()).  The graph is
/// ImplicitLhg(n, k, c).materialize() (lhg/implicit.h).
core::Graph build(core::NodeId n, std::int32_t k,
                  Constraint c = Constraint::kKTree);

/// Same, also returning the node layout via `layout`.
core::Graph build_with_layout(core::NodeId n, std::int32_t k, Constraint c,
                              Layout* layout);

/// EX_Π(n, k): does an LHG satisfying the constraint exist for the pair?
bool exists(std::int64_t n, std::int32_t k,
            Constraint c = Constraint::kKTree);

/// REG_Π(n, k): does a k-regular such LHG exist?
bool regular_exists(std::int64_t n, std::int32_t k,
                    Constraint c = Constraint::kKTree);

/// The abstract tree plan the builder would realize (introspection).
TreePlan plan(std::int64_t n, std::int32_t k,
              Constraint c = Constraint::kKTree);

}  // namespace lhg
