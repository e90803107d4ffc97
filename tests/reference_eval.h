// Reference evaluator for the decision tests: a label-keyed assignment and
// the straightforward Kleene evaluation and relevant-label walk over it.
// The slot-indexed DnfExpr/Assignment and the planner's one-pass collector
// are checked against these.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "decision/expression.h"

namespace dde::decision::reference {

/// label → value, freshness-aware like Assignment.
class MapAssignment {
 public:
  void set(LabelValue v) { values_[v.label] = std::move(v); }
  void invalidate(LabelId label) { values_.erase(label); }

  [[nodiscard]] Tristate value_at(LabelId label, SimTime now) const {
    const auto it = values_.find(label);
    if (it == values_.end() || !it->second.fresh_at(now)) {
      return Tristate::kUnknown;
    }
    return it->second.value;
  }

  /// The same knowledge as a slot-indexed Assignment for `e` (values of
  /// labels `e` does not mention are dropped).
  [[nodiscard]] Assignment for_expr(const DnfExpr& e) const {
    Assignment a;
    for (const auto& [label, v] : values_) {
      if (const auto slot = e.slot_of(label)) a.set(*slot, v);
    }
    return a;
  }

 private:
  std::map<LabelId, LabelValue> values_;
};

inline Tristate eval_term(const Term& t, const MapAssignment& a, SimTime now) {
  const Tristate v = a.value_at(t.label, now);
  return t.negated ? !v : v;
}

inline Tristate eval_disjunct(const Conjunction& c, const MapAssignment& a,
                              SimTime now) {
  Tristate acc = Tristate::kTrue;
  for (const Term& t : c.terms) acc = acc && eval_term(t, a, now);
  return acc;
}

inline Tristate evaluate(const DnfExpr& e, const MapAssignment& a,
                         SimTime now) {
  Tristate acc = Tristate::kFalse;
  for (const Conjunction& c : e.disjuncts()) {
    acc = acc || eval_disjunct(c, a, now);
  }
  return acc;
}

inline std::optional<std::size_t> chosen_action(const DnfExpr& e,
                                                const MapAssignment& a,
                                                SimTime now) {
  for (std::size_t i = 0; i < e.disjunct_count(); ++i) {
    if (eval_disjunct(e.disjuncts()[i], a, now) == Tristate::kTrue) return i;
  }
  return std::nullopt;
}

/// Labels that can still influence the outcome: unknown-valued terms of
/// disjuncts that are not already false, deduplicated, in first-appearance
/// order among those disjuncts. Empty iff resolved.
inline std::vector<LabelId> relevant_labels(const DnfExpr& e,
                                            const MapAssignment& a,
                                            SimTime now) {
  std::vector<LabelId> out;
  if (evaluate(e, a, now) != Tristate::kUnknown) return out;
  std::set<LabelId> seen;
  for (const Conjunction& c : e.disjuncts()) {
    if (eval_disjunct(c, a, now) != Tristate::kUnknown) continue;
    for (const Term& t : c.terms) {
      if (eval_term(t, a, now) != Tristate::kUnknown) continue;
      if (seen.insert(t.label).second) out.push_back(t.label);
    }
  }
  return out;
}

}  // namespace dde::decision::reference
