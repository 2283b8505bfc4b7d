#include "lhg/lhg.h"

#include "core/check.h"
#include "lhg/implicit.h"

namespace lhg {

std::string to_string(Constraint c) {
  switch (c) {
    case Constraint::kStrictJD: return "strict-jd";
    case Constraint::kKTree: return "k-tree";
    case Constraint::kKDiamond: return "k-diamond";
  }
  LHG_FAIL("to_string: unknown constraint {}", static_cast<int>(c));
}

TreePlan plan(std::int64_t n, std::int32_t k, Constraint c) {
  switch (c) {
    case Constraint::kStrictJD: {
      auto p = jd::plan(n, k);
      LHG_CHECK(p.has_value(),
                "no strict Jenkins-Demers LHG exists for (n={}, k={})", n, k);
      return *std::move(p);
    }
    case Constraint::kKTree: return ktree::plan(n, k);
    case Constraint::kKDiamond: return kdiamond::plan(n, k);
  }
  LHG_FAIL("plan: unknown constraint {}", static_cast<int>(c));
}

core::Graph build_with_layout(core::NodeId n, std::int32_t k, Constraint c,
                              Layout* layout) {
  const ImplicitLhg view(n, k, c);
  if (layout != nullptr) *layout = view.layout();
  return view.materialize();
}

core::Graph build(core::NodeId n, std::int32_t k, Constraint c) {
  return build_with_layout(n, k, c, nullptr);
}

bool exists(std::int64_t n, std::int32_t k, Constraint c) {
  switch (c) {
    case Constraint::kStrictJD: return jd::exists(n, k);
    case Constraint::kKTree: return ktree::exists(n, k);
    case Constraint::kKDiamond: return kdiamond::exists(n, k);
  }
  LHG_FAIL("exists: unknown constraint {}", static_cast<int>(c));
}

bool regular_exists(std::int64_t n, std::int32_t k, Constraint c) {
  switch (c) {
    case Constraint::kStrictJD: return jd::regular_exists(n, k);
    case Constraint::kKTree: return ktree::regular_exists(n, k);
    case Constraint::kKDiamond: return kdiamond::regular_exists(n, k);
  }
  LHG_FAIL("regular_exists: unknown constraint {}", static_cast<int>(c));
}

}  // namespace lhg
