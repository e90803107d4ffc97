#include "decision/ordering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>
#include <unordered_set>

#include "common/contracts.h"
#include "decision/scored_term.h"

namespace dde::decision {

// ---------------------------------------------------------------------------
// Kernels over scored terms (scored_term.h)
// ---------------------------------------------------------------------------

ScoredTerm score_term(const Term& t, const LabelMeta& meta) {
  ScoredTerm s{t, meta};
  s.p_true = t.negated ? 1.0 - meta.p_true : meta.p_true;
  s.efficiency = (1.0 - s.p_true) / std::max(meta.cost, 1e-12);
  return s;
}

std::vector<ScoredTerm> score_terms(std::span<const Term> terms,
                                    MetaRef meta) {
  std::vector<ScoredTerm> out;
  out.reserve(terms.size());
  for (const Term& t : terms) out.push_back(score_term(t, meta(t.label)));
  return out;
}

std::vector<Term> terms_of(std::span<const ScoredTerm> terms) {
  std::vector<Term> out;
  out.reserve(terms.size());
  for (const ScoredTerm& s : terms) out.push_back(s.term);
  return out;
}

void sort_by_efficiency(std::vector<ScoredTerm>& terms) {
  std::stable_sort(terms.begin(), terms.end(),
                   [](const ScoredTerm& a, const ScoredTerm& b) {
                     return a.efficiency > b.efficiency;
                   });
}

double expected_cost(std::span<const ScoredTerm> terms) {
  double cost = 0.0;
  double p_reach = 1.0;  // probability evaluation reaches this term
  // Labels retrieved by earlier terms, with the truth value implied by the
  // evaluation having moved past them (a passed term fixes its label to
  // !negated). A repeated label is paid for once — the convention of
  // exact_conjunction_cost_by_enumeration's `paid` set — and contributes a
  // deterministic, not independent, factor to the reach probability.
  std::vector<std::pair<LabelId, bool>> settled;
  for (const ScoredTerm& s : terms) {
    const Term& t = s.term;
    const auto known =
        std::find_if(settled.begin(), settled.end(),
                     [&](const auto& kv) { return kv.first == t.label; });
    if (known == settled.end()) {
      cost += p_reach * s.meta.cost;
      p_reach *= s.p_true;
      settled.emplace_back(t.label, !t.negated);
      continue;
    }
    // Already retrieved: no cost. The term's truth is determined; if it
    // contradicts the settled value, evaluation never proceeds past here.
    const bool term_true = t.negated ? !known->second : known->second;
    if (!term_true) break;  // p_reach for all later terms is 0
  }
  return cost;
}

double success_prob(std::span<const ScoredTerm> terms) {
  double p = 1.0;
  for (const ScoredTerm& s : terms) p *= s.p_true;
  return p;
}

bool feasible(std::span<const ScoredTerm> terms, SimTime start,
              SimTime deadline) {
  // Back-to-back retrievals; object k completes at start + sum latencies.
  // Compare against the remaining budget instead of summing into `finish`
  // first: an unreachable source reports latency = SimTime::max() (the
  // directory's sentinel), and adding that would overflow the signed tick
  // count. The budget form rejects it at the comparison, no arithmetic.
  if (start > deadline) return false;
  SimTime finish = start;
  for (const ScoredTerm& s : terms) {
    if (s.meta.latency > deadline - finish) return false;
    finish += s.meta.latency;
  }
  SimTime done = start;
  for (const ScoredTerm& s : terms) {
    done += s.meta.latency;
    // Data freshness (Sec. IV-A): the object retrieved at `done` must still
    // be valid when the last retrieval finishes (same overflow-safe form:
    // done <= finish, so the gap is a small non-negative duration).
    if (s.meta.validity < finish - done) return false;
  }
  return true;
}

void variational_lvf(std::vector<ScoredTerm>& order, SimTime start,
                     SimTime deadline) {
  // Base: longest validity first maximizes every object's slack at finish.
  std::stable_sort(order.begin(), order.end(),
                   [](const ScoredTerm& a, const ScoredTerm& b) {
                     return a.meta.validity > b.meta.validity;
                   });
  // Greedy variational improvement: adjacent swaps that strictly reduce
  // expected cost while preserving feasibility. The expected cost of a
  // sequential AND evaluation improves under an adjacent swap iff the
  // (1−p)/C efficiency order improves, so comparing efficiencies suffices.
  if (!feasible(order, start, deadline)) return;  // caller detects it
  // done[k]: when the k-th retrieval completes. The order stays feasible,
  // and swapping neighbours i, i+1 moves only done[i] (tick sums are
  // exact), so feasible() of the swapped order reduces to the budget and
  // freshness checks of those two retrievals; every other check it makes
  // is unchanged and already passed.
  std::vector<SimTime> done;
  done.reserve(order.size());
  SimTime finish = start;
  for (const ScoredTerm& s : order) {
    finish += s.meta.latency;
    done.push_back(finish);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const ScoredTerm& a = order[i];
      const ScoredTerm& b = order[i + 1];
      if (b.efficiency <= a.efficiency) {
        continue;  // swap would not reduce expected cost
      }
      const SimTime before = i == 0 ? start : done[i - 1];
      if (b.meta.latency > deadline - before) continue;
      const SimTime b_done = before + b.meta.latency;
      if (a.meta.latency > deadline - b_done) continue;
      if (b.meta.validity < finish - b_done) continue;
      if (a.meta.validity < finish - done[i + 1]) continue;
      std::swap(order[i], order[i + 1]);
      done[i] = b_done;
      changed = true;
      DDE_INVARIANT(feasible(order, start, deadline),
                    "variational_lvf: a swap broke freshness feasibility");
    }
  }
}

// ---------------------------------------------------------------------------
// MetaRef API (ordering.h): score once, then run the kernel
// ---------------------------------------------------------------------------

double term_p_true(const Term& t, MetaRef meta) {
  return score_term(t, meta(t.label)).p_true;
}

double and_efficiency(const Term& t, MetaRef meta) {
  return score_term(t, meta(t.label)).efficiency;
}

std::vector<Term> order_conjunction(const Conjunction& c, MetaRef meta) {
  auto scored = score_terms(c.terms, meta);
  sort_by_efficiency(scored);
  return terms_of(scored);
}

double expected_conjunction_cost(std::span<const Term> terms, MetaRef meta) {
  return expected_cost(score_terms(terms, meta));
}

double conjunction_success_prob(std::span<const Term> terms, MetaRef meta) {
  return success_prob(score_terms(terms, meta));
}

DnfPlan plan_dnf(const DnfExpr& expr, MetaRef meta) {
  struct Scored {
    std::size_t index;
    std::vector<Term> order;
    double success;
    double ecost;
  };
  std::vector<Scored> scored;
  scored.reserve(expr.disjunct_count());
  for (std::size_t i = 0; i < expr.disjunct_count(); ++i) {
    auto terms = score_terms(expr.disjuncts()[i].terms, meta);
    sort_by_efficiency(terms);
    scored.push_back(
        Scored{i, terms_of(terms), success_prob(terms), expected_cost(terms)});
  }
  // OR rule: highest short-circuit (success) probability per unit expected
  // cost first.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.success * std::max(b.ecost, 1e-12) >
                            b.success * std::max(a.ecost, 1e-12);
                   });
  DnfPlan plan;
  for (auto& s : scored) {
    plan.disjunct_order.push_back(s.index);
    plan.ordered_terms.push_back(std::move(s.order));
  }
  return plan;
}

double expected_dnf_cost(const DnfPlan& plan, MetaRef meta) {
  double cost = 0.0;
  double p_reach = 1.0;  // probability all previous disjuncts failed
  for (const auto& terms : plan.ordered_terms) {
    const auto scored = score_terms(terms, meta);
    cost += p_reach * expected_cost(scored);
    p_reach *= 1.0 - success_prob(scored);
  }
  return cost;
}

double exact_conjunction_cost_by_enumeration(std::span<const Term> terms,
                                             MetaRef meta) {
  // Collect distinct labels.
  std::vector<LabelId> labels;
  for (const Term& t : terms) {
    if (std::find(labels.begin(), labels.end(), t.label) == labels.end()) {
      labels.push_back(t.label);
    }
  }
  DDE_CHECK(labels.size() <= 20,
            "exact_conjunction_cost_by_enumeration: >20 labels would "
            "enumerate >1M worlds");
  const std::size_t n = labels.size();
  double total = 0.0;
  for (std::uint64_t world = 0; world < (std::uint64_t{1} << n); ++world) {
    // Probability of this world and the truth of each label in it.
    double p_world = 1.0;
    std::unordered_map<LabelId, bool> truth;
    for (std::size_t i = 0; i < n; ++i) {
      const bool val = (world >> i) & 1;
      const double p = meta(labels[i]).p_true;
      p_world *= val ? p : 1.0 - p;
      truth[labels[i]] = val;
    }
    if (p_world == 0.0) continue;
    // Simulate sequential evaluation, paying each label's cost once.
    double cost = 0.0;
    std::unordered_set<LabelId> paid;
    for (const Term& t : terms) {
      if (paid.insert(t.label).second) cost += meta(t.label).cost;
      const bool term_true = t.negated ? !truth[t.label] : truth[t.label];
      if (!term_true) break;  // short-circuit
    }
    total += p_world * cost;
  }
  return total;
}

BestOrder optimal_conjunction_order(const Conjunction& c, MetaRef meta) {
  std::vector<Term> terms = c.terms;
  // Canonical starting permutation for std::next_permutation: order by an
  // arbitrary strict weak ordering over (label, negated).
  auto key_less = [](const Term& a, const Term& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.negated < b.negated;
  };
  std::sort(terms.begin(), terms.end(), key_less);
  BestOrder best;
  best.cost = std::numeric_limits<double>::infinity();
  do {
    const double cost = expected_conjunction_cost(terms, meta);
    if (cost < best.cost) {
      best.cost = cost;
      best.order = terms;
    }
  } while (std::next_permutation(terms.begin(), terms.end(), key_less));
  return best;
}

bool order_feasible(std::span<const Term> terms, MetaRef meta,
                    SimTime start, SimTime deadline) {
  return feasible(score_terms(terms, meta), start, deadline);
}

std::vector<Term> variational_lvf_order(const Conjunction& c, MetaRef meta,
                                        SimTime start, SimTime deadline) {
  auto order = score_terms(c.terms, meta);
  variational_lvf(order, start, deadline);
  return terms_of(order);
}

}  // namespace dde::decision
