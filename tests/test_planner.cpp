#include "decision/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "decision/estimator.h"
#include "decision/ordering.h"
#include "reference_eval.h"

namespace dde::decision {
namespace {

Term term(std::uint64_t l) { return Term{LabelId{l}, false}; }

LabelValue val(std::uint64_t label, Tristate v) {
  LabelValue lv;
  lv.label = LabelId{label};
  lv.value = v;
  lv.evaluated_at = SimTime::zero();
  lv.validity = SimTime::seconds(1000);
  lv.annotator = AnnotatorId{0};
  return lv;
}

/// Record `v` in `a` at the slot `e` gives its label.
void put(const DnfExpr& e, Assignment& a, LabelValue v) {
  a.set(e.slot_of(v.label).value(), std::move(v));
}

DnfExpr route_example() {
  DnfExpr e;
  e.add_disjunct(Conjunction{{term(0), term(1), term(2)}});
  e.add_disjunct(Conjunction{{term(3), term(4), term(5)}});
  return e;
}

MetaTable uniform_meta(std::size_t n) {
  MetaTable t;
  for (std::size_t i = 0; i < n; ++i) {
    t.set(LabelId{i}, LabelMeta{1.0, SimTime::seconds(1), 0.5,
                                SimTime::seconds(100)});
  }
  return t;
}

class AllPolicies : public ::testing::TestWithParam<OrderPolicy> {};

TEST_P(AllPolicies, PlanIsPermutationOfRelevantLabels) {
  const DnfExpr e = route_example();
  const MetaTable meta = uniform_meta(6);
  reference::MapAssignment known;
  known.set(val(0, Tristate::kFalse));  // route 1 dead; labels 1, 2 irrelevant
  const Assignment a = known.for_expr(e);
  const auto order = plan_retrieval_order(e, a, SimTime::zero(), meta.fn(),
                                          GetParam());
  const auto relevant = reference::relevant_labels(e, known, SimTime::zero());
  EXPECT_TRUE(std::is_permutation(order.begin(), order.end(),
                                  relevant.begin(), relevant.end()));
}

TEST_P(AllPolicies, EmptyWhenResolved) {
  const DnfExpr e = route_example();
  const MetaTable meta = uniform_meta(6);
  Assignment a;
  put(e, a, val(0, Tristate::kTrue));
  put(e, a, val(1, Tristate::kTrue));
  put(e, a, val(2, Tristate::kTrue));
  EXPECT_TRUE(plan_retrieval_order(e, a, SimTime::zero(), meta.fn(),
                                   GetParam())
                  .empty());
  EXPECT_FALSE(next_label(e, a, SimTime::zero(), meta.fn(), GetParam())
                   .has_value());
}

TEST_P(AllPolicies, NextLabelIsFirstOfPlan) {
  const DnfExpr e = route_example();
  const MetaTable meta = uniform_meta(6);
  Assignment a;
  const auto order =
      plan_retrieval_order(e, a, SimTime::zero(), meta.fn(), GetParam());
  const auto next = next_label(e, a, SimTime::zero(), meta.fn(), GetParam());
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, order.front());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPolicies,
    ::testing::Values(OrderPolicy::kDeclared, OrderPolicy::kCheapestFirst,
                      OrderPolicy::kShortCircuit,
                      OrderPolicy::kLongestValidityFirst,
                      OrderPolicy::kVariationalLvf));

TEST(Planner, DeclaredKeepsDeclarationOrder) {
  const DnfExpr e = route_example();
  const MetaTable meta = uniform_meta(6);
  Assignment a;
  const auto order = plan_retrieval_order(e, a, SimTime::zero(), meta.fn(),
                                          OrderPolicy::kDeclared);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], LabelId{i});
  }
}

TEST(Planner, CheapestFirstSortsByCost) {
  const DnfExpr e = route_example();
  MetaTable meta;
  for (std::size_t i = 0; i < 6; ++i) {
    meta.set(LabelId{i}, LabelMeta{static_cast<double>(10 - i),
                                   SimTime::seconds(1), 0.5,
                                   SimTime::seconds(100)});
  }
  Assignment a;
  const auto order = plan_retrieval_order(e, a, SimTime::zero(), meta.fn(),
                                          OrderPolicy::kCheapestFirst);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(meta.get(order[i - 1]).cost, meta.get(order[i]).cost);
  }
  EXPECT_EQ(order.front(), LabelId{5});
}

TEST(Planner, LvfSortsByValidityDescending) {
  const DnfExpr e = route_example();
  MetaTable meta;
  for (std::size_t i = 0; i < 6; ++i) {
    meta.set(LabelId{i}, LabelMeta{1.0, SimTime::seconds(1), 0.5,
                                   SimTime::seconds(10.0 * (i + 1))});
  }
  Assignment a;
  const auto order = plan_retrieval_order(e, a, SimTime::zero(), meta.fn(),
                                          OrderPolicy::kLongestValidityFirst);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(meta.get(order[i - 1]).validity, meta.get(order[i]).validity);
  }
}

TEST(Planner, ShortCircuitPrefersCheapLikelyFalseWithinBestDisjunct) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{term(0), term(1)}});
  MetaTable meta;
  meta.set(LabelId{0}, LabelMeta{4.0, SimTime::seconds(1), 0.6,
                                 SimTime::seconds(100)});
  meta.set(LabelId{1}, LabelMeta{5.0, SimTime::seconds(1), 0.2,
                                 SimTime::seconds(100)});
  Assignment a;
  const auto next = next_label(e, a, SimTime::zero(), meta.fn(),
                               OrderPolicy::kShortCircuit);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, LabelId{1});
}

TEST(Planner, ShortCircuitTriesLikelyCheapDisjunctFirst) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{term(0)}});  // expensive unlikely
  e.add_disjunct(Conjunction{{term(1)}});  // cheap likely
  MetaTable meta;
  meta.set(LabelId{0}, LabelMeta{10.0, SimTime::seconds(1), 0.1,
                                 SimTime::seconds(100)});
  meta.set(LabelId{1}, LabelMeta{1.0, SimTime::seconds(1), 0.9,
                                 SimTime::seconds(100)});
  Assignment a;
  const auto next = next_label(e, a, SimTime::zero(), meta.fn(),
                               OrderPolicy::kShortCircuit);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, LabelId{1});
}

// Simulated adaptive execution: repeatedly evaluate next_label against a
// ground-truth world until resolution; every policy must terminate and
// agree with the classical truth value.
TEST(Planner, AdaptiveExecutionTerminatesAndIsCorrect) {
  Rng rng(42);
  const std::vector<OrderPolicy> policies{
      OrderPolicy::kDeclared, OrderPolicy::kCheapestFirst,
      OrderPolicy::kShortCircuit, OrderPolicy::kLongestValidityFirst,
      OrderPolicy::kVariationalLvf};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.below(8);
    DnfExpr e;
    const std::size_t n_disj = 1 + rng.below(4);
    for (std::size_t d = 0; d < n_disj; ++d) {
      Conjunction c;
      for (std::size_t t = 0, k = 1 + rng.below(4); t < k; ++t) {
        c.terms.push_back(Term{LabelId{rng.below(n)}, rng.chance(0.25)});
      }
      e.add_disjunct(std::move(c));
    }
    MetaTable meta;
    std::vector<bool> world(n);
    for (std::size_t i = 0; i < n; ++i) {
      world[i] = rng.chance(0.5);
      meta.set(LabelId{i},
               LabelMeta{rng.uniform(0.5, 5.0), SimTime::seconds(1),
                         rng.uniform(0.1, 0.9),
                         SimTime::seconds(rng.uniform(50, 500))});
    }
    // Classical truth.
    reference::MapAssignment full;
    for (std::size_t i = 0; i < n; ++i) {
      full.set(val(i, world[i] ? Tristate::kTrue : Tristate::kFalse));
    }
    const Tristate truth = e.evaluate(full.for_expr(e), SimTime::zero());

    for (OrderPolicy policy : policies) {
      Assignment a;
      int fetches = 0;
      while (auto next = next_label(e, a, SimTime::zero(), meta.fn(), policy,
                                    SimTime::seconds(1000))) {
        put(e, a,
            val(next->value(),
                world[next->value()] ? Tristate::kTrue : Tristate::kFalse));
        ASSERT_LE(++fetches, static_cast<int>(n)) << "must terminate";
      }
      EXPECT_EQ(e.evaluate(a, SimTime::zero()), truth);
    }
  }
}

// The adaptive short-circuit policy should on average fetch no more than
// the declared-order policy over random worlds.
TEST(Planner, ShortCircuitFetchesNoMoreThanDeclaredOnAverage) {
  Rng rng(7);
  double sc_total = 0;
  double dec_total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 6;
    DnfExpr e;
    for (std::size_t d = 0; d < 2; ++d) {
      Conjunction c;
      for (std::size_t t = 0; t < 3; ++t) c.terms.push_back(term(d * 3 + t));
      e.add_disjunct(std::move(c));
    }
    MetaTable meta;
    std::vector<bool> world(n);
    std::vector<double> p(n);
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = rng.uniform(0.1, 0.9);
      world[i] = rng.chance(p[i]);
      meta.set(LabelId{i}, LabelMeta{rng.uniform(0.5, 5.0), SimTime::seconds(1),
                                     p[i], SimTime::seconds(100)});
    }
    auto run = [&](OrderPolicy policy) {
      Assignment a;
      double cost = 0;
      while (auto next = next_label(e, a, SimTime::zero(), meta.fn(), policy)) {
        cost += meta.get(*next).cost;
        put(e, a,
            val(next->value(),
                world[next->value()] ? Tristate::kTrue : Tristate::kFalse));
      }
      return cost;
    };
    sc_total += run(OrderPolicy::kShortCircuit);
    dec_total += run(OrderPolicy::kDeclared);
  }
  EXPECT_LT(sc_total, dec_total);
}

// A random planning problem: a DNF over up to 12 labels with repeated and
// negated terms; random metadata, where a third of the labels share one
// cost, success probability and validity so the stable sorts' tie order is
// exercised; a partial assignment with some values already expired at
// `now`; and a deadline that is often tight enough to make the freshness
// checks bite.
struct RandomPlan {
  DnfExpr expr;
  MetaTable meta;
  reference::MapAssignment known;
  Assignment assignment;  ///< `known`, for `expr`
  SimTime now;
  SimTime deadline;
};

RandomPlan random_plan(Rng& rng) {
  RandomPlan p;
  const std::size_t n = 1 + rng.below(12);
  for (std::size_t d = 0, k = 1 + rng.below(5); d < k; ++d) {
    Conjunction c;
    for (std::size_t t = 0, m = 1 + rng.below(6); t < m; ++t) {
      c.terms.push_back(Term{LabelId{rng.below(n)}, rng.chance(0.2)});
    }
    p.expr.add_disjunct(std::move(c));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool tie = rng.chance(0.3);
    p.meta.set(LabelId{i},
               LabelMeta{tie ? 1.0 : rng.uniform(0.5, 5.0),
                         SimTime::seconds(rng.uniform(0.1, 5.0)),
                         tie ? 0.5 : rng.uniform(0.05, 0.95),
                         tie ? SimTime::seconds(30)
                             : SimTime::seconds(rng.uniform(1.0, 60.0))});
    if (rng.chance(0.3)) {
      LabelValue v = val(i, rng.chance(0.5) ? Tristate::kTrue
                                            : Tristate::kFalse);
      v.validity = SimTime::seconds(rng.uniform(1.0, 20.0));
      p.known.set(v);
    }
  }
  p.assignment = p.known.for_expr(p.expr);
  p.now = SimTime::seconds(rng.uniform(0.0, 10.0));
  p.deadline = rng.chance(0.2) ? SimTime::max()
                               : p.now + SimTime::seconds(rng.uniform(1, 40));
  return p;
}

const std::vector<OrderPolicy> kAllPolicies{
    OrderPolicy::kDeclared, OrderPolicy::kCheapestFirst,
    OrderPolicy::kShortCircuit, OrderPolicy::kLongestValidityFirst,
    OrderPolicy::kVariationalLvf};

// One plan reads each relevant label's metadata at most once, and the
// declaration-order baseline reads none.
TEST(Planner, ReadsEachLabelMetadataAtMostOnce) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomPlan p = random_plan(rng);
    for (OrderPolicy policy : kAllPolicies) {
      std::map<LabelId, int> reads;
      const auto counting = [&](LabelId label) {
        ++reads[label];
        return p.meta.get(label);
      };
      const auto order = plan_retrieval_order(
          p.expr, p.assignment, p.now, counting, policy, p.deadline);
      EXPECT_EQ(order, plan_retrieval_order(p.expr, p.assignment, p.now,
                                            p.meta.fn(), policy, p.deadline));
      if (policy == OrderPolicy::kDeclared) {
        EXPECT_TRUE(reads.empty());
        EXPECT_EQ(order, reference::relevant_labels(p.expr, p.known, p.now));
        continue;
      }
      for (const auto& [label, count] : reads) {
        EXPECT_EQ(count, 1) << "label " << label.value() << ", policy "
                            << static_cast<int>(policy);
      }
    }
  }
}

// Every policy's orders on 200 random problems, folded into one FNV-1a
// digest. The constant was captured from the planner that re-read metadata
// through a callback on every comparison; the per-plan table must
// reproduce those orders exactly.
TEST(PlannerGolden, OrdersMatchDigest) {
  std::uint64_t digest = 14695981039346656037ULL;
  const auto fold = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (v >> (8 * byte)) & 0xff;
      digest *= 1099511628211ULL;
    }
  };
  Rng rng(2017);
  std::size_t labels_planned = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const RandomPlan p = random_plan(rng);
    for (OrderPolicy policy : kAllPolicies) {
      const auto order = plan_retrieval_order(
          p.expr, p.assignment, p.now, p.meta.fn(), policy, p.deadline);
      fold(order.size());
      for (LabelId l : order) fold(l.value());
      labels_planned += order.size();
    }
  }
  EXPECT_GT(labels_planned, 1000u);  // the problems are not mostly resolved
  EXPECT_EQ(digest, 0xc233c1f618139b02ULL);
}

TEST(PriorEstimator, UninformativeStart) {
  PriorEstimator e;
  EXPECT_DOUBLE_EQ(e.p_true(LabelId{0}), 0.5);
  EXPECT_EQ(e.tracked_labels(), 0u);
}

TEST(PriorEstimator, MovesWithObservations) {
  PriorEstimator e;
  e.observe(LabelId{1}, true);
  EXPECT_GT(e.p_true(LabelId{1}), 0.5);
  e.observe(LabelId{2}, false);
  EXPECT_LT(e.p_true(LabelId{2}), 0.5);
  EXPECT_DOUBLE_EQ(e.observations(LabelId{1}), 1.0);
}

TEST(PriorEstimator, ConvergesToTruth) {
  Rng rng(3);
  PriorEstimator e;
  for (int i = 0; i < 5000; ++i) e.observe(LabelId{0}, rng.chance(0.73));
  EXPECT_NEAR(e.p_true(LabelId{0}), 0.73, 0.03);
}

TEST(PriorEstimator, PriorStrengthSlowsMovement) {
  PriorEstimator weak(0.5);
  PriorEstimator strong(50.0);
  for (int i = 0; i < 10; ++i) {
    weak.observe(LabelId{0}, true);
    strong.observe(LabelId{0}, true);
  }
  EXPECT_GT(weak.p_true(LabelId{0}), strong.p_true(LabelId{0}));
}

TEST(PriorEstimator, OverlayReplacesOnlyPTrue) {
  MetaTable base;
  base.set(LabelId{0}, LabelMeta{7.0, SimTime::seconds(3), 0.9,
                                 SimTime::seconds(42)});
  PriorEstimator e;
  for (int i = 0; i < 20; ++i) e.observe(LabelId{0}, false);
  const auto fn = e.overlay(base.fn());
  const LabelMeta m = fn(LabelId{0});
  EXPECT_DOUBLE_EQ(m.cost, 7.0);
  EXPECT_EQ(m.validity, SimTime::seconds(42));
  EXPECT_LT(m.p_true, 0.1);
}

// The planner with learned priors should beat the uninformed planner on
// average once enough observations accumulate.
TEST(PriorEstimator, LearnedPriorsReduceAdaptiveCost) {
  Rng rng(9);
  DnfExpr e;
  std::vector<double> p(6);
  MetaTable flat;
  MetaTable truth;
  for (std::size_t d = 0; d < 2; ++d) {
    Conjunction c;
    for (std::size_t t = 0; t < 3; ++t) {
      const std::uint64_t l = d * 3 + t;
      p[l] = rng.uniform(0.1, 0.9);
      c.terms.push_back(Term{LabelId{l}, false});
      const double cost = rng.uniform(0.5, 5.0);
      flat.set(LabelId{l}, LabelMeta{cost, SimTime::seconds(1), 0.5,
                                     SimTime::seconds(100)});
      truth.set(LabelId{l}, LabelMeta{cost, SimTime::seconds(1), p[l],
                                      SimTime::seconds(100)});
    }
    e.add_disjunct(std::move(c));
  }
  PriorEstimator est;
  auto run = [&](const auto& meta, Rng& wrng, bool learn) {
    Assignment a;
    double cost = 0;
    while (auto next = next_label(e, a, SimTime::zero(), meta,
                                  OrderPolicy::kShortCircuit)) {
      cost += truth.get(*next).cost;
      const bool v = wrng.chance(p[next->value()]);
      LabelValue lv;
      lv.label = *next;
      lv.value = to_tristate(v);
      lv.evaluated_at = SimTime::zero();
      lv.validity = SimTime::seconds(1e6);
      lv.annotator = AnnotatorId{0};
      put(e, a, lv);
      if (learn) est.observe(*next, v);
    }
    return cost;
  };
  // Warm-up: learn from 500 queries.
  const auto learned_fn = est.overlay(flat.fn());
  for (int i = 0; i < 500; ++i) {
    Rng w(static_cast<std::uint64_t>(i));
    (void)run(learned_fn, w, true);
  }
  // Evaluate both planners on fresh identical worlds.
  double learned_cost = 0;
  double flat_cost = 0;
  for (int i = 0; i < 500; ++i) {
    Rng w1(static_cast<std::uint64_t>(10000 + i));
    Rng w2 = w1;
    learned_cost += run(learned_fn, w1, false);
    flat_cost += run(flat.fn(), w2, false);
  }
  EXPECT_LT(learned_cost, flat_cost);
}

}  // namespace
}  // namespace dde::decision
