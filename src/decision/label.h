// Labels: named Boolean variables over world state (Sec. II-B).
//
// The system maintains (label, type, value) tuples; values are tri-state.
// A resolved label value carries provenance: when it was evaluated, how long
// it stays valid, and which annotator signed it — the trust metadata of
// Sec. III-B.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/tristate.h"

namespace dde::decision {

/// A resolved label value with provenance (the paper's signed-label record).
struct LabelValue {
  LabelId label;
  Tristate value = Tristate::kUnknown;
  SimTime evaluated_at;               ///< when the annotation was made
  SimTime validity;                   ///< freshness interval of the value
  AnnotatorId annotator;              ///< who evaluated (signature)

  [[nodiscard]] SimTime expires_at() const noexcept {
    return evaluated_at + validity;
  }
  [[nodiscard]] bool fresh_at(SimTime t) const noexcept {
    return value != Tristate::kUnknown && t < expires_at();
  }
};

// Caches, label shares and assignments copy values freely; keep that a
// plain memberwise copy.
static_assert(std::is_trivially_copyable_v<LabelValue>);

/// A (partial) assignment of values to one expression's labels, with
/// freshness handling. Slot `s` holds the value of the label the expression
/// numbered `s` (DnfExpr::slot_of); the array grows to the highest slot set,
/// and a slot never set (or invalidated) reads as unknown.
///
/// Lookups are time-aware: a stored value that has expired reads back as
/// unknown, which is exactly how staleness re-opens a decision.
class Assignment {
 public:
  /// Record the value at `slot` (overwrites any previous value).
  void set(std::uint32_t slot, const LabelValue& v) {
    if (slot >= records_.size()) records_.resize(slot + 1);
    records_[slot] = v;
  }

  /// The value at `slot` if known and still fresh at `now`.
  [[nodiscard]] Tristate value_at(std::uint32_t slot, SimTime now) const {
    const LabelValue* r = record(slot);
    return r != nullptr && r->fresh_at(now) ? r->value : Tristate::kUnknown;
  }

  /// The stored record at `slot`, fresh or not (nullptr if never set).
  [[nodiscard]] const LabelValue* record(std::uint32_t slot) const {
    return slot < records_.size() && records_[slot] ? &*records_[slot]
                                                    : nullptr;
  }

  /// Discard any knowledge at `slot` (Sec. II-A invalidation: an external
  /// event voided the observation). Subsequent lookups return unknown.
  void invalidate(std::uint32_t slot) {
    if (slot < records_.size()) records_[slot].reset();
  }

 private:
  std::vector<std::optional<LabelValue>> records_;
};

}  // namespace dde::decision
