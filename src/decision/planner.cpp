#include "decision/planner.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "decision/scored_term.h"

namespace dde::decision {
namespace {

/// One plan's view of the expression under the current assignment: the
/// unknown terms of every open disjunct (each label listed once per
/// disjunct), and the distinct labels among them in first-appearance order
/// among the open disjuncts.
struct OpenTerms {
  bool resolved = false;
  std::vector<LabelId> labels;
  /// Open disjuncts' terms, concatenated; each term's slot is renumbered to
  /// its label's index into `labels`.
  std::vector<Term> terms;
  std::vector<std::size_t> ends;  ///< one past each open disjunct's terms
};

/// One pass over the expression: each term is evaluated once.
OpenTerms collect_open_terms(const DnfExpr& expr, const Assignment& a,
                             SimTime now) {
  OpenTerms out;
  std::size_t term_count = 0;
  for (const Conjunction& c : expr.disjuncts()) term_count += c.terms.size();
  // Per expression slot: the label's index into out.labels, and the last
  // open disjunct that listed it, plus one (0 = not listed yet).
  struct Seen { std::uint32_t index = 0; std::size_t disjunct = 0; };
  std::vector<Seen> seen(expr.label_count());
  out.labels.reserve(expr.label_count());
  out.terms.reserve(term_count);
  out.ends.reserve(expr.disjunct_count());
  std::vector<Term> unknown;
  bool all_false = true;
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    // Kleene AND of the disjunct, keeping its unknown terms.
    unknown.clear();
    Tristate value = Tristate::kTrue;
    for (const Term& t : expr.disjuncts()[i].terms) {
      const Tristate v = DnfExpr::eval_term(t, a, now);
      if (v == Tristate::kFalse) {
        value = Tristate::kFalse;
        break;
      }
      if (v == Tristate::kUnknown) {
        value = Tristate::kUnknown;
        unknown.push_back(t);
      }
    }
    if (value == Tristate::kTrue) {  // a viable course of action exists
      out.resolved = true;
      return out;
    }
    if (value == Tristate::kFalse) continue;
    all_false = false;
    for (const Term& t : unknown) {
      Seen& s = seen[t.slot];
      if (s.disjunct == i + 1) continue;  // listed earlier in this disjunct
      if (s.disjunct == 0) {
        s.index = static_cast<std::uint32_t>(out.labels.size());
        out.labels.push_back(t.label);
      }
      s.disjunct = i + 1;
      out.terms.push_back(Term{t.label, t.negated, s.index});
    }
    out.ends.push_back(out.terms.size());
  }
  out.resolved = all_false;
  return out;
}

/// `open.labels`, stably sorted by `before` over their metadata.
template <typename Before>
std::vector<LabelId> sort_labels(const OpenTerms& open,
                                 const std::vector<LabelMeta>& metas,
                                 Before before) {
  std::vector<std::uint32_t> idx(open.labels.size());
  std::iota(idx.begin(), idx.end(), std::uint32_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return before(metas[x], metas[y]);
                   });
  std::vector<LabelId> out;
  out.reserve(idx.size());
  for (std::uint32_t k : idx) out.push_back(open.labels[k]);
  return out;
}

/// Decision-driven orders: pick open disjuncts by the OR rule (success
/// probability of the remaining terms per unit remaining expected cost,
/// descending), and emit each one's remaining terms in the AND-rule order
/// (kShortCircuit) or validity-first with cost-improving rearrangements
/// that stay freshness-feasible for the deadline (kVariationalLvf).
std::vector<LabelId> order_by_disjunct(const OpenTerms& open,
                                       const std::vector<LabelMeta>& metas,
                                       OrderPolicy policy, SimTime now,
                                       SimTime deadline) {
  struct Open {
    std::vector<ScoredTerm> terms;          ///< declaration order
    std::vector<ScoredTerm> by_efficiency;  ///< order_conjunction's order
    double success = 0.0;
    double ecost = 0.0;
  };
  std::vector<Open> disjuncts;
  disjuncts.reserve(open.ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : open.ends) {
    Open d;
    d.terms.reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      d.terms.push_back(score_term(open.terms[k], metas[open.terms[k].slot]));
    }
    d.by_efficiency = d.terms;
    sort_by_efficiency(d.by_efficiency);
    d.success = success_prob(d.by_efficiency);
    d.ecost = expected_cost(d.by_efficiency);
    disjuncts.push_back(std::move(d));
    begin = end;
  }
  std::stable_sort(disjuncts.begin(), disjuncts.end(),
                   [](const Open& x, const Open& y) {
                     return x.success * std::max(y.ecost, 1e-12) >
                            y.success * std::max(x.ecost, 1e-12);
                   });
  std::vector<LabelId> order;
  order.reserve(open.labels.size());
  std::vector<bool> emitted(open.labels.size());
  for (Open& d : disjuncts) {
    std::vector<ScoredTerm>* terms = &d.by_efficiency;
    if (policy == OrderPolicy::kVariationalLvf) {
      variational_lvf(d.terms, now, deadline);
      terms = &d.terms;
    }
    for (const ScoredTerm& s : *terms) {
      if (emitted[s.term.slot]) continue;
      emitted[s.term.slot] = true;
      order.push_back(s.term.label);
    }
  }
  return order;
}

}  // namespace

std::vector<LabelId> plan_retrieval_order(const DnfExpr& expr,
                                          const Assignment& assignment,
                                          SimTime now, MetaRef meta,
                                          OrderPolicy policy,
                                          SimTime deadline) {
  OpenTerms open = collect_open_terms(expr, assignment, now);
  if (open.resolved) return {};
  if (policy == OrderPolicy::kDeclared) return std::move(open.labels);

  // Every other policy ranks all relevant labels: read each one's metadata
  // once, up front, and order on these values.
  std::vector<LabelMeta> metas;
  metas.reserve(open.labels.size());
  for (LabelId l : open.labels) metas.push_back(meta(l));

  switch (policy) {
    case OrderPolicy::kDeclared:
      break;
    case OrderPolicy::kCheapestFirst:
      return sort_labels(open, metas,
                         [](const LabelMeta& x, const LabelMeta& y) {
                           return x.cost < y.cost;
                         });
    case OrderPolicy::kLongestValidityFirst:
      return sort_labels(open, metas,
                         [](const LabelMeta& x, const LabelMeta& y) {
                           return x.validity > y.validity;
                         });
    case OrderPolicy::kShortCircuit:
    case OrderPolicy::kVariationalLvf:
      return order_by_disjunct(open, metas, policy, now, deadline);
  }
  return {};
}

std::optional<LabelId> next_label(const DnfExpr& expr,
                                  const Assignment& assignment, SimTime now,
                                  MetaRef meta, OrderPolicy policy,
                                  SimTime deadline) {
  const auto order =
      plan_retrieval_order(expr, assignment, now, meta, policy, deadline);
  if (order.empty()) return std::nullopt;
  return order.front();
}

}  // namespace dde::decision
