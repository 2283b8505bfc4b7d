// Contracts layer: failure handler plumbing, message formatting, range
// checks, and the contracts threaded through Graph and plan_io.  The
// test binary installs throwing_check_failure_handler at load time
// (check_handler_install.cc), so every contract failure below is an
// ordinary catchable ContractViolation.

#include "core/check.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph.h"
#include "lhg/plan_io.h"

namespace lhg::core {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  LHG_CHECK(1 + 1 == 2);
  LHG_CHECK(true, "never rendered {}", 42);
  LHG_CHECK_RANGE(0, 1);
  SUCCEED();
}

TEST(Check, FailureThrowsContractViolation) {
  EXPECT_THROW(LHG_CHECK(false), ContractViolation);
}

TEST(Check, ContractViolationIsInvalidArgument) {
  // Code written against the historical "throws std::invalid_argument"
  // API keeps working under the throwing handler.
  EXPECT_THROW(LHG_CHECK(false), std::invalid_argument);
}

TEST(Check, MessageCarriesLocationConditionAndFormattedArgs) {
  try {
    const int x = 41;
    LHG_CHECK(x == 42, "x was {}", x);
    FAIL() << "LHG_CHECK did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_check.cc"), std::string::npos) << what;
    EXPECT_NE(what.find("x == 42"), std::string::npos) << what;
    EXPECT_NE(what.find("x was 41"), std::string::npos) << what;
  }
}

TEST(Check, RangeCheckAcceptsInteriorAndRejectsEdges) {
  LHG_CHECK_RANGE(0, 3);
  LHG_CHECK_RANGE(2, 3);
  EXPECT_THROW(LHG_CHECK_RANGE(3, 3), ContractViolation);
  EXPECT_THROW(LHG_CHECK_RANGE(-1, 3), ContractViolation);
}

TEST(Check, RangeCheckIsSignednessSafe) {
  // -1 compared against an unsigned size must not wrap around.
  const std::size_t size = 4;
  const std::int32_t negative = -1;
  EXPECT_THROW(LHG_CHECK_RANGE(negative, size), ContractViolation);
  // A value past INT32_MAX against a small signed bound must not wrap.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const std::int32_t bound = 7;
  EXPECT_THROW(LHG_CHECK_RANGE(huge, bound), ContractViolation);
}

TEST(Check, DcheckActiveInTestBuilds) {
  // The test target compiles with LHG_ENABLE_DCHECKS, so debug-only
  // contracts fire here even in release configurations.
  EXPECT_THROW(LHG_DCHECK(false, "dcheck fired"), ContractViolation);
  EXPECT_THROW(LHG_DCHECK_RANGE(5, 5), ContractViolation);
}

TEST(Check, CheckedCastRoundTripsAndRejectsOverflow) {
  EXPECT_EQ(checked_cast<std::size_t>(std::int32_t{7}), 7u);
  EXPECT_EQ(as_index(std::int32_t{0}), 0u);
  EXPECT_THROW(checked_cast<std::int8_t>(1000), ContractViolation);
  EXPECT_THROW(as_index(std::int64_t{-2}), ContractViolation);
}

TEST(Check, SetHandlerReturnsPrevious) {
  const auto previous = set_check_failure_handler(&aborting_check_failure_handler);
  EXPECT_EQ(previous, &throwing_check_failure_handler);
  const auto restored = set_check_failure_handler(previous);
  EXPECT_EQ(restored, &aborting_check_failure_handler);
}

TEST(Check, NullHandlerRestoresAbortingDefault) {
  const auto previous = set_check_failure_handler(nullptr);
  EXPECT_EQ(set_check_failure_handler(previous),
            &aborting_check_failure_handler);
}

TEST(Check, ScopedHandlerRestoresOnExit) {
  {
    ScopedCheckFailureHandler scoped(&aborting_check_failure_handler);
    // Inside the scope the aborting handler is installed (not invoked —
    // that would bring the test binary down).
  }
  // Back outside, contract failures throw again.
  EXPECT_THROW(LHG_CHECK(false), ContractViolation);
}

TEST(CheckDeath, DefaultHandlerAbortsWithDiagnostic) {
  ScopedCheckFailureHandler scoped(&aborting_check_failure_handler);
  EXPECT_DEATH_IF_SUPPORTED(LHG_CHECK(2 < 1, "impossible {}", "order"),
                            "LHG_CHECK\\(2 < 1\\) failed: impossible order");
}

// --- Contracts threaded through the library -------------------------

TEST(CheckIntegration, GraphNeighborsRejectsOutOfRangeNode) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_THROW(g.neighbors(3), ContractViolation);
  EXPECT_THROW(g.neighbors(-1), ContractViolation);
  EXPECT_THROW(g.degree(99), ContractViolation);
}

TEST(CheckIntegration, FromEdgesRejectsSelfLoopAndBadEndpoints) {
  EXPECT_THROW(Graph::from_edges(4, std::vector<Edge>{{2, 2}}),
               ContractViolation);
  EXPECT_THROW(Graph::from_edges(4, std::vector<Edge>{{0, 4}}),
               ContractViolation);
  EXPECT_THROW(Graph::from_edges(4, std::vector<Edge>{{-1, 0}}),
               ContractViolation);
  EXPECT_THROW(Graph::from_edges(-1, {}), ContractViolation);
}

TEST(CheckIntegration, PlanIoRejectsMalformedPlans) {
  EXPECT_THROW(lhg::from_plan_string(""), ContractViolation);
  EXPECT_THROW(lhg::from_plan_string("bogus 1\n"), ContractViolation);
  EXPECT_THROW(lhg::from_plan_string("lhg-plan 1\nk 1\n"), ContractViolation);
  EXPECT_THROW(
      lhg::from_plan_string("lhg-plan 1\nk 3\ninteriors 2\nparents 9\n"),
      ContractViolation);
}

}  // namespace
}  // namespace lhg::core
