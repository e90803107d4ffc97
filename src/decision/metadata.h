// Per-term metadata consumed by the retrieval-order optimization
// (Sec. III-A): retrieval cost, latency, success probability, and data
// validity interval.
#pragma once

#include <memory>
#include <type_traits>
#include <unordered_map>

#include "common/ids.h"
#include "common/sim_time.h"

namespace dde::decision {

/// Metadata about resolving one label.
struct LabelMeta {
  /// Retrieval cost of the evidence needed (e.g. object bytes).
  double cost = 1.0;
  /// Estimated retrieval latency (activation to availability).
  SimTime latency = SimTime::millis(1);
  /// Probability the label evaluates to true.
  double p_true = 0.5;
  /// Validity interval of the evidence.
  SimTime validity = SimTime::seconds(60);
};

/// Metadata lookup: label → metadata. A non-owning reference to any const
/// callable `LabelMeta(LabelId)` — a map, a model, or a live estimate — in
/// two pointers and no allocation (a hand-rolled function_ref). The callable
/// must outlive the MetaRef: pass lambdas and tables straight to the
/// planner, or keep them in a named variable; never bind a MetaRef variable
/// to a temporary.
class MetaRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, MetaRef> &&
             std::is_invocable_r_v<LabelMeta, const F&, LabelId>)
  MetaRef(const F& f) noexcept  // implicit: callers pass callables directly
      : obj_(std::addressof(f)), call_(&invoke<F>) {}

  LabelMeta operator()(LabelId label) const { return call_(obj_, label); }

 private:
  template <typename F>
  static LabelMeta invoke(const void* obj, LabelId label) {
    return (*static_cast<const F*>(obj))(label);
  }

  const void* obj_;
  LabelMeta (*call_)(const void*, LabelId);
};

/// Convenience map-backed metadata; unknown labels read as LabelMeta{}.
class MetaTable {
 public:
  void set(LabelId label, LabelMeta meta) { table_[label] = meta; }

  [[nodiscard]] LabelMeta get(LabelId label) const {
    auto it = table_.find(label);
    return it == table_.end() ? LabelMeta{} : it->second;
  }
  LabelMeta operator()(LabelId label) const { return get(label); }

  /// Bind as a MetaRef (keep the MetaTable alive while it is in use).
  [[nodiscard]] MetaRef fn() const { return MetaRef(*this); }

 private:
  std::unordered_map<LabelId, LabelMeta> table_;
};

}  // namespace dde::decision
