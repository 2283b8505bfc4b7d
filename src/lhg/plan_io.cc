#include "lhg/plan_io.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "core/check.h"

namespace lhg {

void write_plan(const TreePlan& plan, std::ostream& out) {
  out << "lhg-plan 1\n";
  out << "k " << plan.k << '\n';
  out << "interiors " << plan.num_interiors() << '\n';
  if (plan.num_interiors() > 1) {
    out << "parents";
    for (std::int32_t i = 1; i < plan.num_interiors(); ++i) {
      out << ' ' << plan.interior_parent[static_cast<std::size_t>(i)];
    }
    out << '\n';
  }
  out << "leaves " << plan.num_leaves() << '\n';
  for (std::int32_t l = 0; l < plan.num_leaves(); ++l) {
    out << "leaf " << plan.leaf_parent[static_cast<std::size_t>(l)] << ' '
        << (plan.leaf_kind[static_cast<std::size_t>(l)] == LeafKind::kShared
                ? "shared"
                : "unshared")
        << '\n';
  }
}

namespace {

std::string next_data_line(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') return line;
  }
  LHG_FAIL("lhg-plan: unexpected end of input");
}

void expect_keyword(std::istringstream& row, const std::string& keyword) {
  std::string word;
  LHG_CHECK((row >> word) && word == keyword,
            "lhg-plan: expected '{}', got '{}'", keyword, word);
}

}  // namespace

TreePlan read_plan(std::istream& in) {
  {
    std::istringstream header(next_data_line(in));
    expect_keyword(header, "lhg-plan");
    int version = 0;
    LHG_CHECK((header >> version) && version == 1,
              "lhg-plan: unsupported version {}", version);
  }
  TreePlan plan;
  {
    std::istringstream row(next_data_line(in));
    expect_keyword(row, "k");
    LHG_CHECK((row >> plan.k) && plan.k >= 2, "lhg-plan: bad k {}", plan.k);
  }
  std::int32_t num_interiors = 0;
  {
    std::istringstream row(next_data_line(in));
    expect_keyword(row, "interiors");
    LHG_CHECK((row >> num_interiors) && num_interiors >= 1,
              "lhg-plan: bad interior count {}", num_interiors);
  }
  plan.interior_parent.assign(static_cast<std::size_t>(num_interiors), -1);
  if (num_interiors > 1) {
    std::istringstream row(next_data_line(in));
    expect_keyword(row, "parents");
    // Interiors come in BFS order, so parents never decrease: each
    // interior's children are then one contiguous index range, which
    // the closed-form adjacency (lhg/implicit.h) relies on.
    std::int32_t previous = 0;
    for (std::int32_t i = 1; i < num_interiors; ++i) {
      std::int32_t parent = -1;
      LHG_CHECK((row >> parent) && parent >= 0 && parent < i,
                "lhg-plan: bad parent {} for interior {}", parent, i);
      LHG_CHECK(parent >= previous,
                "lhg-plan: parent {} of interior {} precedes parent {} of "
                "interior {} (interiors must be in BFS order)",
                parent, i, previous, i - 1);
      plan.interior_parent[static_cast<std::size_t>(i)] = parent;
      previous = parent;
    }
  }
  std::int32_t num_leaves = 0;
  {
    std::istringstream row(next_data_line(in));
    expect_keyword(row, "leaves");
    LHG_CHECK((row >> num_leaves) && num_leaves >= 0,
              "lhg-plan: bad leaf count {}", num_leaves);
  }
  for (std::int32_t l = 0; l < num_leaves; ++l) {
    std::istringstream row(next_data_line(in));
    expect_keyword(row, "leaf");
    std::int32_t parent = -1;
    std::string kind;
    LHG_CHECK((row >> parent >> kind) && parent >= 0 && parent < num_interiors,
              "lhg-plan: bad leaf {}", l);
    plan.leaf_parent.push_back(parent);
    if (kind == "shared") {
      plan.leaf_kind.push_back(LeafKind::kShared);
    } else if (kind == "unshared") {
      plan.leaf_kind.push_back(LeafKind::kUnshared);
    } else {
      LHG_FAIL("lhg-plan: unknown leaf kind '{}'", kind);
    }
  }
  return plan;
}

std::string to_plan_string(const TreePlan& plan) {
  std::ostringstream out;
  write_plan(plan, out);
  return out.str();
}

TreePlan from_plan_string(const std::string& text) {
  std::istringstream in(text);
  return read_plan(in);
}

}  // namespace lhg
