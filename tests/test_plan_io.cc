// Tests for TreePlan serialization.

#include "lhg/plan_io.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

bool plans_equal(const TreePlan& a, const TreePlan& b) {
  return a.k == b.k && a.interior_parent == b.interior_parent &&
         a.leaf_parent == b.leaf_parent && a.leaf_kind == b.leaf_kind;
}

TEST(PlanIo, RoundTripAllConstraints) {
  for (const auto constraint :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    for (const std::int32_t k : {2, 3, 5}) {
      for (std::int64_t n = 2 * k; n <= 2 * k + 20; n += 3) {
        if (!exists(n, k, constraint)) continue;
        const TreePlan original = plan(n, k, constraint);
        const TreePlan back = from_plan_string(to_plan_string(original));
        EXPECT_TRUE(plans_equal(original, back))
            << to_string(constraint) << " n=" << n << " k=" << k;
        // And the realized graphs agree.
        EXPECT_EQ(ImplicitLhg(original).materialize(),
                  ImplicitLhg(back).materialize());
      }
    }
  }
}

TEST(PlanIo, FormatIsStable) {
  const TreePlan tree = plan(8, 3, Constraint::kKDiamond);
  const auto text = to_plan_string(tree);
  EXPECT_NE(text.find("lhg-plan 1\n"), std::string::npos);
  EXPECT_NE(text.find("k 3\n"), std::string::npos);
  EXPECT_NE(text.find("unshared"), std::string::npos);
}

TEST(PlanIo, CommentsSkipped) {
  const auto text = to_plan_string(plan(6, 3));
  const auto with_comments = "# generated\n" + text;
  EXPECT_TRUE(plans_equal(from_plan_string(with_comments),
                          from_plan_string(text)));
}

TEST(PlanIo, MalformedInputsRejected) {
  EXPECT_THROW(from_plan_string(""), std::invalid_argument);
  EXPECT_THROW(from_plan_string("bogus 1\n"), std::invalid_argument);
  EXPECT_THROW(from_plan_string("lhg-plan 2\n"), std::invalid_argument);
  EXPECT_THROW(from_plan_string("lhg-plan 1\nk 1\n"), std::invalid_argument);
  EXPECT_THROW(from_plan_string("lhg-plan 1\nk 3\ninteriors 0\n"),
               std::invalid_argument);
  // Parent violating BFS order.
  EXPECT_THROW(
      from_plan_string(
          "lhg-plan 1\nk 3\ninteriors 2\nparents 5\nleaves 0\n"),
      std::invalid_argument);
  // Bad leaf kind.
  EXPECT_THROW(
      from_plan_string(
          "lhg-plan 1\nk 3\ninteriors 1\nleaves 1\nleaf 0 purple\n"),
      std::invalid_argument);
  // Leaf parent out of range.
  EXPECT_THROW(
      from_plan_string(
          "lhg-plan 1\nk 3\ninteriors 1\nleaves 1\nleaf 7 shared\n"),
      std::invalid_argument);
  // Truncated leaf list.
  EXPECT_THROW(
      from_plan_string("lhg-plan 1\nk 3\ninteriors 1\nleaves 2\nleaf 0 shared\n"),
      std::invalid_argument);
}

TEST(PlanIo, DecreasingParentRejectedAtThatInterior) {
  // Parents 0 1 0: interior 3 hangs from the root after interior 2 hung
  // from interior 1, so the root's children {1, 3} are not contiguous.
  try {
    from_plan_string(
        "lhg-plan 1\nk 3\ninteriors 4\nparents 0 1 0\nleaves 0\n");
    FAIL() << "a decreasing parent was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lhg-plan: parent 0 of interior 3"), std::string::npos)
        << what;
  }
  // Non-decreasing parents with repeats read fine.
  EXPECT_EQ(from_plan_string(
                "lhg-plan 1\nk 3\ninteriors 4\nparents 0 0 1\nleaves 0\n")
                .num_interiors(),
            4);
}

}  // namespace
}  // namespace lhg
