// Learning label priors from observed outcomes (Sec. VIII: the system
// "can derive its own models … and probability distributions of particular
// observed quantities", which feed the short-circuit optimization).
//
// A PriorEstimator keeps a Beta posterior per label over P(label = true),
// updated every time a label value is actually resolved. Its estimates can
// be layered over any metadata source, replacing the configured p_true with
// the learned one — so planners improve as the system observes the world.
#pragma once

#include <unordered_map>

#include "common/ids.h"
#include "decision/metadata.h"

namespace dde::decision {

/// Beta-posterior estimate of P(label = true) per label.
class PriorEstimator {
 public:
  /// Pseudo-counts of the uninformative prior for unseen labels; larger
  /// values make the estimator slower to move off 0.5.
  explicit PriorEstimator(double prior_strength = 1.0)
      : prior_(prior_strength) {}

  /// Record one resolved value of `label`.
  void observe(LabelId label, bool value) {
    auto& c = counts_[label];
    (value ? c.pos : c.neg) += 1.0;
  }

  /// Posterior-mean estimate of P(label = true).
  [[nodiscard]] double p_true(LabelId label) const {
    auto it = counts_.find(label);
    if (it == counts_.end()) return 0.5;
    return (it->second.pos + prior_) /
           (it->second.pos + it->second.neg + 2.0 * prior_);
  }

  /// Observations recorded for `label`.
  [[nodiscard]] double observations(LabelId label) const {
    auto it = counts_.find(label);
    return it == counts_.end() ? 0.0 : it->second.pos + it->second.neg;
  }

  /// Metadata that overrides `base`'s p_true with the learned estimate
  /// (cost/latency/validity pass through). The estimator and whatever
  /// `base` refers to must outlive the returned callable.
  [[nodiscard]] auto overlay(MetaRef base) const {
    return [this, base](LabelId label) {
      LabelMeta m = base(label);
      m.p_true = p_true(label);
      return m;
    };
  }

  [[nodiscard]] std::size_t tracked_labels() const noexcept {
    return counts_.size();
  }

 private:
  struct Counts {
    double pos = 0.0;
    double neg = 0.0;
  };
  double prior_;
  std::unordered_map<LabelId, Counts> counts_;
};

}  // namespace dde::decision
