// Decision expressions: disjunctive normal form over labels (Sec. III).
//
//   q = (b00 ∧ b01 ∧ …) ∨ (b10 ∧ b11 ∧ …) ∨ …
//
// Each disjunct is a candidate course of action; the query is resolved when
// one disjunct is known true (a viable course of action exists) or all are
// known false (none exists). Evaluation uses Kleene three-valued logic over
// a partial, freshness-aware assignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/tristate.h"
#include "decision/label.h"

namespace dde::decision {

/// A literal: a label, possibly negated.
struct Term {
  LabelId label;
  bool negated = false;
  std::uint32_t slot = 0;  ///< the label's slot, set by DnfExpr::add_disjunct

  friend bool operator==(const Term&, const Term&) = default;
};

/// A conjunction of terms: one candidate course of action.
struct Conjunction {
  std::vector<Term> terms;

  friend bool operator==(const Conjunction&, const Conjunction&) = default;
};

/// A decision expression in DNF. Its distinct labels are numbered 0..k-1
/// (slots) in first-appearance order as disjuncts are added, and evaluation
/// reads the Assignment by slot.
class DnfExpr {
 public:
  [[nodiscard]] const std::vector<Conjunction>& disjuncts() const noexcept {
    return disjuncts_;
  }
  [[nodiscard]] std::size_t disjunct_count() const noexcept {
    return disjuncts_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return disjuncts_.empty(); }

  /// Add one course of action, numbering its new labels. Returns its index.
  std::size_t add_disjunct(Conjunction c);

  /// All distinct labels mentioned anywhere, by slot (first-appearance order).
  [[nodiscard]] const std::vector<LabelId>& all_labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] std::size_t label_count() const noexcept {
    return labels_.size();
  }
  /// The slot of `label`, or nullopt if the expression does not mention it.
  [[nodiscard]] std::optional<std::uint32_t> slot_of(LabelId label) const;

  /// Value of a single term under `a` at `now` (Kleene).
  [[nodiscard]] static Tristate eval_term(const Term& t, const Assignment& a,
                                          SimTime now) {
    const Tristate v = a.value_at(t.slot, now);
    return t.negated ? !v : v;
  }

  /// Value of disjunct `i` under `a` at `now` (Kleene AND).
  [[nodiscard]] Tristate eval_disjunct(std::size_t i, const Assignment& a,
                                       SimTime now) const {
    Tristate acc = Tristate::kTrue;
    for (const Term& t : disjuncts_.at(i).terms) {
      acc = acc && eval_term(t, a, now);
      if (acc == Tristate::kFalse) return acc;  // short-circuit
    }
    return acc;
  }

  /// Value of the whole expression under `a` at `now` (Kleene OR of ANDs).
  [[nodiscard]] Tristate evaluate(const Assignment& a, SimTime now) const {
    Tristate acc = Tristate::kFalse;
    for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
      acc = acc || eval_disjunct(i, a, now);
      if (acc == Tristate::kTrue) return acc;  // short-circuit
    }
    return acc;
  }

  /// True when the decision can be made: some course of action is known
  /// viable, or all are known non-viable.
  [[nodiscard]] bool resolved(const Assignment& a, SimTime now) const {
    return evaluate(a, now) != Tristate::kUnknown;
  }

  /// Index of the first disjunct known true (the chosen course of action).
  [[nodiscard]] std::optional<std::size_t> chosen_action(const Assignment& a,
                                                         SimTime now) const {
    for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
      if (eval_disjunct(i, a, now) == Tristate::kTrue) return i;
    }
    return std::nullopt;
  }

 private:
  std::vector<Conjunction> disjuncts_;
  std::vector<LabelId> labels_;  ///< slot → label
};

}  // namespace dde::decision
