// Continuous variables, threshold labels, and model-derived validity
// intervals (Sec. II-B + Sec. VIII).
//
// The paper's smart-room example: the decision to turn the lights on is
// predicated on an optical sensor reading dropping below a threshold — a
// Boolean condition stored in a label called `Dim`. This example models
// the light level (and room occupancy via a CO2 proxy) as mean-reverting
// continuous processes, derives the Boolean labels, lets the system
// *suggest* each label's validity interval from the physics — fast-moving
// variables get short intervals, sluggish ones long — and then drives the
// decision "turn lights on iff (Dim AND Occupied)" through the decision
// library.
#include <cstdio>

#include "decision/expression.h"
#include "decision/planner.h"
#include "world/scalar.h"

using namespace dde;
using world::ScalarDynamics;
using world::ThresholdPredicate;

int main() {
  // Site 0: light level (lux/10). Bright mean, moderate noise, slow drift.
  // Site 1: CO2 above baseline (ppm/100) — occupancy proxy, fast-moving.
  world::ScalarProcess room(
      {
          ScalarDynamics{60.0, 0.02, 1.2, 58.0},  // light
          ScalarDynamics{4.0, 0.15, 1.8, 6.5},    // co2 (occupied now)
      },
      Rng(99));

  const ThresholdPredicate dim{40.0, /*above=*/false};     // Dim = light < 40
  const ThresholdPredicate occupied{5.0, /*above=*/true};  // CO2 >= 5

  std::printf("Smart room: lights on iff (Dim AND Occupied)\n\n");
  std::printf("%-8s %10s %6s %10s %9s | %s\n", "t", "light", "Dim", "co2",
              "Occup", "suggested validity (90% conf)");

  for (int t = 0; t <= 3000; t += 600) {
    const SimTime now = SimTime::seconds(t);
    const double light = room.value_at(0, now);
    const double co2 = room.value_at(1, now);
    const SimTime dim_validity = world::estimate_validity(
        room, 0, now, dim, 0.9, 300, Rng(7), SimTime::seconds(1800));
    const SimTime occ_validity = world::estimate_validity(
        room, 1, now, occupied, 0.9, 300, Rng(7), SimTime::seconds(1800));
    std::printf("%-8d %10.1f %6s %10.1f %9s | Dim: %5.0fs  Occupied: %5.0fs\n",
                t, light, dim.evaluate(light) ? "yes" : "no", co2,
                occupied.evaluate(co2) ? "yes" : "no",
                dim_validity.to_seconds(), occ_validity.to_seconds());
  }

  // --- drive the decision through the decision library --------------------
  const LabelId kDim{0};
  const LabelId kOccupied{1};
  decision::DnfExpr lights_on;
  lights_on.add_disjunct(decision::Conjunction{
      {decision::Term{kDim, false}, decision::Term{kOccupied, false}}});

  decision::MetaTable meta;
  const SimTime now = SimTime::seconds(3000);
  // Metadata straight from the physics: validity from the model, cost from
  // the sensor (the occupancy label needs the pricier CO2 probe).
  meta.set(kDim, decision::LabelMeta{
                     1.0, SimTime::millis(5), 0.3,
                     world::estimate_validity(room, 0, now, dim, 0.9, 300,
                                              Rng(7))});
  meta.set(kOccupied, decision::LabelMeta{
                          4.0, SimTime::millis(5), 0.6,
                          world::estimate_validity(room, 1, now, occupied, 0.9,
                                                   300, Rng(7))});

  std::printf("\nevaluating at t=3000s with the short-circuit planner:\n");
  decision::Assignment a;
  int fetched = 0;
  while (auto next = decision::next_label(lights_on, a, now, meta.fn(),
                                          decision::OrderPolicy::kShortCircuit)) {
    const std::size_t site = next->value();
    const double value = room.value_at(site, now);
    const bool truth = site == 0 ? dim.evaluate(value) : occupied.evaluate(value);
    decision::LabelValue v;
    v.label = *next;
    v.value = to_tristate(truth);
    v.evaluated_at = now;
    v.validity = meta.get(*next).validity;
    v.annotator = AnnotatorId{0};
    a.set(*lights_on.slot_of(*next), v);
    ++fetched;
    std::printf("  sampled %s -> %s (fresh for %.0fs)\n",
                site == 0 ? "light" : "co2", truth ? "true" : "false",
                v.validity.to_seconds());
  }
  const bool on = lights_on.evaluate(a, now) == Tristate::kTrue;
  std::printf("decision: lights %s (after %d sensor reads)\n", on ? "ON" : "off",
              fetched);
  std::printf(
      "\nthe cheap likely-false Dim label is probed first; when the room is\n"
      "bright, the CO2 probe is never consulted at all.\n");
  return 0;
}
