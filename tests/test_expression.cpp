#include "decision/expression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "decision/planner.h"
#include "reference_eval.h"

namespace dde::decision {
namespace {

LabelValue val(std::uint64_t label, Tristate v,
               SimTime at = SimTime::zero(),
               SimTime validity = SimTime::seconds(100)) {
  LabelValue lv;
  lv.label = LabelId{label};
  lv.value = v;
  lv.evaluated_at = at;
  lv.validity = validity;
  lv.annotator = AnnotatorId{0};
  return lv;
}

DnfExpr route_example() {
  // (A ∧ B ∧ C) ∨ (D ∧ E ∧ F) — the paper's Sec. II example.
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{0}}, {LabelId{1}}, {LabelId{2}}}});
  e.add_disjunct(Conjunction{{{LabelId{3}}, {LabelId{4}}, {LabelId{5}}}});
  return e;
}

/// Record `v` in `a` at the slot `e` gives its label.
void put(const DnfExpr& e, Assignment& a, LabelValue v) {
  a.set(e.slot_of(v.label).value(), std::move(v));
}

/// The planner's declaration-order plan: the relevant labels.
std::vector<LabelId> declared(const DnfExpr& e, const Assignment& a,
                              SimTime now) {
  const MetaTable none;
  return plan_retrieval_order(e, a, now, none.fn(), OrderPolicy::kDeclared);
}

TEST(Assignment, UnknownByDefault) {
  Assignment a;
  EXPECT_EQ(a.value_at(0, SimTime::zero()), Tristate::kUnknown);
  EXPECT_EQ(a.record(0), nullptr);
}

TEST(Assignment, SetAndRead) {
  Assignment a;
  a.set(1, val(1, Tristate::kTrue));
  EXPECT_EQ(a.value_at(1, SimTime::seconds(1)), Tristate::kTrue);
  ASSERT_NE(a.record(1), nullptr);
  // Slots below and above the highest set one were never set.
  EXPECT_EQ(a.value_at(0, SimTime::seconds(1)), Tristate::kUnknown);
  EXPECT_EQ(a.record(0), nullptr);
  EXPECT_EQ(a.value_at(2, SimTime::seconds(1)), Tristate::kUnknown);
  EXPECT_EQ(a.record(2), nullptr);
}

TEST(Assignment, ExpiredValueReadsUnknown) {
  Assignment a;
  a.set(1, val(1, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  EXPECT_EQ(a.value_at(1, SimTime::seconds(9)), Tristate::kTrue);
  EXPECT_EQ(a.value_at(1, SimTime::seconds(10)), Tristate::kUnknown);
  EXPECT_EQ(a.value_at(1, SimTime::seconds(11)), Tristate::kUnknown);
  // The record itself survives (provenance), only freshness is gone.
  EXPECT_NE(a.record(1), nullptr);
}

TEST(Assignment, InvalidateReopens) {
  Assignment a;
  a.set(1, val(1, Tristate::kTrue));
  EXPECT_EQ(a.value_at(1, SimTime::zero()), Tristate::kTrue);
  a.invalidate(1);
  EXPECT_EQ(a.value_at(1, SimTime::zero()), Tristate::kUnknown);
  EXPECT_EQ(a.record(1), nullptr);
  a.invalidate(0);  // never-set slots are a no-op
  a.invalidate(9);
}

TEST(DnfExpr, EmptyIsFalse) {
  DnfExpr e;
  Assignment a;
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
}

TEST(DnfExpr, UnknownWithoutEvidence) {
  const DnfExpr e = route_example();
  Assignment a;
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kUnknown);
  EXPECT_FALSE(e.resolved(a, SimTime::zero()));
}

TEST(DnfExpr, OneViableRouteResolvesTrue) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(0, Tristate::kTrue));
  put(e, a, val(1, Tristate::kTrue));
  put(e, a, val(2, Tristate::kTrue));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kTrue);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
  EXPECT_EQ(e.chosen_action(a, SimTime::zero()), std::size_t{0});
}

TEST(DnfExpr, OneFalseSegmentKillsDisjunctOnly) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(0, Tristate::kFalse));  // route 1 dead
  EXPECT_EQ(e.eval_disjunct(0, a, SimTime::zero()), Tristate::kFalse);
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kUnknown);
}

TEST(DnfExpr, AllRoutesFalseResolvesFalse) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(1, Tristate::kFalse));
  put(e, a, val(4, Tristate::kFalse));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
  EXPECT_TRUE(e.resolved(a, SimTime::zero()));
  EXPECT_FALSE(e.chosen_action(a, SimTime::zero()).has_value());
}

TEST(DnfExpr, NegatedTerm) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{0}, /*negated=*/true}}});
  Assignment a;
  put(e, a, val(0, Tristate::kFalse));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kTrue);
  put(e, a, val(0, Tristate::kTrue));
  EXPECT_EQ(e.evaluate(a, SimTime::zero()), Tristate::kFalse);
}

TEST(DnfExpr, ExpiryReopensDecision) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(0, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  put(e, a, val(1, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  put(e, a, val(2, Tristate::kTrue, SimTime::zero(), SimTime::seconds(10)));
  EXPECT_TRUE(e.resolved(a, SimTime::seconds(5)));
  EXPECT_FALSE(e.resolved(a, SimTime::seconds(15)));
}

TEST(DnfExpr, RelevantLabelsInitiallyAll) {
  const DnfExpr e = route_example();
  Assignment a;
  const auto labels = declared(e, a, SimTime::zero());
  EXPECT_EQ(labels.size(), 6u);
}

TEST(DnfExpr, RelevantLabelsShrinkWithShortCircuit) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(0, Tristate::kFalse));  // kills route 1: B, C irrelevant
  const auto labels = declared(e, a, SimTime::zero());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], LabelId{3});
  EXPECT_EQ(labels[1], LabelId{4});
  EXPECT_EQ(labels[2], LabelId{5});
  // Order is first appearance among the open disjuncts, not slot order: 6
  // (slot 1, first seen in the dead disjunct) comes after 7 (slot 2).
  DnfExpr f;
  f.add_disjunct(Conjunction{{{LabelId{5}}, {LabelId{6}}}});
  f.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{6}}}});
  Assignment b;
  put(f, b, val(5, Tristate::kFalse));
  EXPECT_EQ(declared(f, b, SimTime::zero()),
            (std::vector<LabelId>{LabelId{7}, LabelId{6}}));
}

TEST(DnfExpr, RelevantLabelsEmptyWhenResolved) {
  const DnfExpr e = route_example();
  Assignment a;
  put(e, a, val(3, Tristate::kTrue));
  put(e, a, val(4, Tristate::kTrue));
  put(e, a, val(5, Tristate::kTrue));
  EXPECT_TRUE(declared(e, a, SimTime::zero()).empty());
}

TEST(DnfExpr, RelevantLabelsDeduplicated) {
  DnfExpr e;
  e.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{8}}}});
  e.add_disjunct(Conjunction{{{LabelId{7}}, {LabelId{9}}}});
  Assignment a;
  const auto labels = declared(e, a, SimTime::zero());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), LabelId{7}), 1);
}

TEST(DnfExpr, AllLabels) {
  const DnfExpr e = route_example();
  EXPECT_EQ(e.all_labels().size(), 6u);
  DnfExpr shared;
  shared.add_disjunct(Conjunction{{{LabelId{1}}, {LabelId{2}}}});
  shared.add_disjunct(Conjunction{{{LabelId{2}}, {LabelId{3}}}});
  EXPECT_EQ(shared.all_labels().size(), 3u);
  // Labels are numbered to slots in first-appearance order, and each term
  // carries its label's slot.
  DnfExpr e2;
  e2.add_disjunct(
      Conjunction{{{LabelId{9}}, {LabelId{4}, true}, {LabelId{9}}}});
  e2.add_disjunct(Conjunction{{{LabelId{2}}, {LabelId{4}}}});
  EXPECT_EQ(e2.all_labels(),
            (std::vector<LabelId>{LabelId{9}, LabelId{4}, LabelId{2}}));
  EXPECT_EQ(e2.label_count(), 3u);
  for (const Conjunction& c : e2.disjuncts()) {
    for (const Term& t : c.terms) EXPECT_EQ(e2.all_labels()[t.slot], t.label);
  }
  EXPECT_EQ(e2.slot_of(LabelId{9}), 0u);
  EXPECT_EQ(e2.slot_of(LabelId{4}), 1u);
  EXPECT_EQ(e2.slot_of(LabelId{2}), 2u);
  EXPECT_FALSE(e2.slot_of(LabelId{3}).has_value());
}

// Property test: Kleene evaluation agrees with classical Boolean evaluation
// on fully-known random assignments, and is never wrong on partial ones
// (if Kleene says true/false, every completion agrees). Then, on wider
// expressions (many past 64 distinct labels) with repeated and negated
// labels and partial assignments holding expired and invalidated values,
// the slot-indexed evaluate, chosen_action and the planner's declared order
// all equal the label-keyed reference.
TEST(DnfExpr, KleeneSoundOnRandomExpressions) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n_labels = 1 + rng.below(6);
    DnfExpr e;
    const std::size_t n_disj = 1 + rng.below(3);
    for (std::size_t d = 0; d < n_disj; ++d) {
      Conjunction c;
      const std::size_t n_terms = 1 + rng.below(4);
      for (std::size_t t = 0; t < n_terms; ++t) {
        c.terms.push_back(Term{LabelId{rng.below(n_labels)}, rng.chance(0.3)});
      }
      e.add_disjunct(std::move(c));
    }
    // Random partial assignment.
    reference::MapAssignment known;
    std::vector<int> state(n_labels);  // 0 unknown, 1 true, 2 false
    for (std::size_t l = 0; l < n_labels; ++l) {
      state[l] = static_cast<int>(rng.below(3));
      if (state[l] == 1) known.set(val(l, Tristate::kTrue));
      if (state[l] == 2) known.set(val(l, Tristate::kFalse));
    }
    const Assignment partial = known.for_expr(e);
    const Tristate partial_val = e.evaluate(partial, SimTime::zero());
    EXPECT_EQ(partial_val, reference::evaluate(e, known, SimTime::zero()));

    // Enumerate completions.
    std::vector<std::size_t> unknown;
    for (std::size_t l = 0; l < n_labels; ++l) {
      if (state[l] == 0) unknown.push_back(l);
    }
    bool all_true = true;
    bool all_false = true;
    for (std::uint64_t w = 0; w < (std::uint64_t{1} << unknown.size()); ++w) {
      reference::MapAssignment completion = known;
      for (std::size_t i = 0; i < unknown.size(); ++i) {
        completion.set(val(unknown[i], ((w >> i) & 1) ? Tristate::kTrue
                                                      : Tristate::kFalse));
      }
      const Tristate v = e.evaluate(completion.for_expr(e), SimTime::zero());
      ASSERT_TRUE(is_known(v));  // fully known ⇒ classical value
      all_true &= v == Tristate::kTrue;
      all_false &= v == Tristate::kFalse;
    }
    if (partial_val == Tristate::kTrue) {
      EXPECT_TRUE(all_true);
    }
    if (partial_val == Tristate::kFalse) {
      EXPECT_TRUE(all_false);
    }
    // (Kleene may be unknown when the value is actually determined — that
    // is allowed; it is sound, not complete.)
  }

  int wide = 0;
  int chosen_some = 0;
  int open_wide = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Odd trials: small expressions that often resolve; even trials: wide
    // ones, mostly past 64 distinct labels.
    const bool small = trial % 2 == 1;
    const std::size_t n_labels = small ? 1 + rng.below(12) : 65 + rng.below(90);
    DnfExpr e;
    for (std::size_t d = 0, k = 2 + rng.below(small ? 3 : 7); d < k; ++d) {
      Conjunction c;
      for (std::size_t t = 0, m = 1 + rng.below(small ? 4 : 50); t < m; ++t) {
        c.terms.push_back(Term{LabelId{rng.below(n_labels)}, rng.chance(0.3)});
      }
      e.add_disjunct(std::move(c));
    }
    if (e.label_count() > 64) ++wide;
    const SimTime now = SimTime::seconds(10);
    // Each label (some outside the expression) is set with a per-trial
    // probability; validities straddle `now`, and a fifth of the set values
    // are then invalidated.
    const double p_set = rng.uniform(0.2, 1.0);
    reference::MapAssignment ref;
    Assignment a;
    for (std::size_t l = 0; l < n_labels + 3; ++l) {
      if (!rng.chance(p_set)) continue;
      const LabelValue v =
          val(l, rng.chance(0.8) ? Tristate::kTrue : Tristate::kFalse,
              SimTime::zero(), SimTime::seconds(rng.uniform(5.0, 30.0)));
      const auto slot = e.slot_of(v.label);
      ref.set(v);
      if (slot) a.set(*slot, v);
      if (rng.chance(0.2)) {
        ref.invalidate(v.label);
        if (slot) a.invalidate(*slot);
      }
    }
    EXPECT_EQ(e.evaluate(a, now), reference::evaluate(e, ref, now));
    const auto chosen = e.chosen_action(a, now);
    EXPECT_EQ(chosen, reference::chosen_action(e, ref, now));
    const auto order = declared(e, a, now);
    EXPECT_EQ(order, reference::relevant_labels(e, ref, now));
    chosen_some += chosen.has_value();
    open_wide += e.label_count() > 64 && order.size() > 1;
  }
  // Every branch is exercised: wide expressions, decided ones, and wide
  // ones still open on several labels.
  EXPECT_GT(wide, 60);
  EXPECT_GT(chosen_some, 20);
  EXPECT_GT(open_wide, 20);
}

}  // namespace
}  // namespace dde::decision
