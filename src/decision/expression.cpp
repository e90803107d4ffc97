#include "decision/expression.h"

#include <algorithm>

namespace dde::decision {

std::size_t DnfExpr::add_disjunct(Conjunction c) {
  for (Term& t : c.terms) {
    const auto s = slot_of(t.label);
    t.slot = s ? *s : static_cast<std::uint32_t>(labels_.size());
    if (!s) labels_.push_back(t.label);
  }
  disjuncts_.push_back(std::move(c));
  return disjuncts_.size() - 1;
}

std::optional<std::uint32_t> DnfExpr::slot_of(LabelId label) const {
  const auto it = std::find(labels_.begin(), labels_.end(), label);
  if (it == labels_.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - labels_.begin());
}

}  // namespace dde::decision
