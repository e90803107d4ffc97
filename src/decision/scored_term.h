// Ordering kernels over terms whose label metadata was read once (internal
// to decision/: ordering.cpp wraps them behind the MetaRef API, planner.cpp
// runs them on one plan's metadata table). Every value here is the exact
// double or SimTime the MetaRef form derives, so both forms produce the
// same orders.
#pragma once

#include <span>
#include <vector>

#include "common/sim_time.h"
#include "decision/expression.h"
#include "decision/metadata.h"

namespace dde::decision {

/// A term with its label's metadata and the keys the orderings sort by.
struct ScoredTerm {
  Term term;
  LabelMeta meta;
  double p_true = 0.5;      ///< term_p_true: probability the term is true
  double efficiency = 0.0;  ///< and_efficiency: (1 − p_true) / cost
};

[[nodiscard]] ScoredTerm score_term(const Term& t, const LabelMeta& meta);

/// score_term over `terms`, reading `meta` once per term.
[[nodiscard]] std::vector<ScoredTerm> score_terms(std::span<const Term> terms,
                                                  MetaRef meta);

[[nodiscard]] std::vector<Term> terms_of(std::span<const ScoredTerm> terms);

/// Stable sort by descending AND efficiency (order_conjunction).
void sort_by_efficiency(std::vector<ScoredTerm>& terms);

/// expected_conjunction_cost / conjunction_success_prob / order_feasible.
[[nodiscard]] double expected_cost(std::span<const ScoredTerm> terms);
[[nodiscard]] double success_prob(std::span<const ScoredTerm> terms);
[[nodiscard]] bool feasible(std::span<const ScoredTerm> terms, SimTime start,
                            SimTime deadline);

/// Reorder `terms` in place as variational_lvf_order does.
void variational_lvf(std::vector<ScoredTerm>& terms, SimTime start,
                     SimTime deadline);

}  // namespace dde::decision
