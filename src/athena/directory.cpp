#include "athena/directory.h"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.h"

namespace dde::athena {

Directory::Directory(const net::Topology& topo,
                     const world::SensorField& field,
                     std::vector<NodeId> host_of_sensor,
                     std::unordered_map<LabelId, double> p_true)
    : topo_(topo),
      field_(field),
      host_of_sensor_(std::move(host_of_sensor)),
      p_true_(std::move(p_true)) {
  DDE_CHECK(host_of_sensor_.size() == field.sensors().size(),
            "Directory: host_of_sensor must map every sensor to a node");
  for (const auto& s : field.sensors()) {
    for (SegmentId seg : s.covers) {
      sources_for_label_[LabelId{seg.value()}].push_back(s.id);
    }
  }
}

const std::vector<SourceId>& Directory::sources_for(LabelId label) const {
  static const std::vector<SourceId> kEmpty;
  auto it = sources_for_label_.find(label);
  return it == sources_for_label_.end() ? kEmpty : it->second;
}

NodeId Directory::host(SourceId source) const {
  if (!source.valid() || source.value() >= host_of_sensor_.size()) {
    throw std::out_of_range("Directory::host: unknown source");
  }
  return host_of_sensor_[source.value()];
}

std::vector<LabelId> Directory::labels_of(SourceId source) const {
  std::vector<LabelId> out;
  for (SegmentId seg : field_.sensor(source).covers) {
    out.push_back(LabelId{seg.value()});
  }
  return out;
}

Directory::Retrieval Directory::retrieval(SourceId source,
                                          NodeId origin) const {
  const world::SensorInfo& sensor = field_.sensor(source);
  const double bytes = static_cast<double>(sensor.object_bytes);
  const auto hops = topo_.hop_distance(origin, host(source));
  // Unreachable → effectively infinite cost, and no latency bound.
  if (!hops) return {bytes * 1e9, SimTime::max(), sensor};
  const auto h = static_cast<double>(std::max<std::size_t>(*hops, 1));
  // Cost: object bytes × path hops (bytes crossing each hop are paid once).
  // Latency: transfer dominates, object bytes over a nominal 1 Mbps per
  // hop, plus a small per-hop request overhead.
  return {bytes * h, SimTime::seconds(h * (bytes * 8.0 / 1e6 + 0.005)),
          sensor};
}

double Directory::retrieval_cost(SourceId source, NodeId origin) const {
  return retrieval(source, origin).cost;
}

SimTime Directory::retrieval_latency(SourceId source, NodeId origin) const {
  return retrieval(source, origin).latency;
}

decision::LabelMeta Directory::meta(LabelId label, SourceId source,
                                    NodeId origin) const {
  const Retrieval r = retrieval(source, origin);
  decision::LabelMeta m;
  m.cost = r.cost;
  m.latency = r.latency;
  m.validity = r.sensor.validity;
  auto it = p_true_.find(label);
  m.p_true = it == p_true_.end() ? 0.5 : it->second;
  return m;
}

Directory::Selection Directory::select_sources(
    const std::vector<LabelId>& labels, NodeId origin, bool minimize,
    const std::unordered_set<SourceId>* exclude) const {
  Selection sel;

  // Per-label eligible sources, honoring the soft exclusion: excluded
  // sources drop out unless nothing else covers the label.
  auto available = [&](LabelId l) -> const std::vector<SourceId>& {
    const auto& srcs = sources_for(l);
    if (exclude == nullptr || exclude->empty()) return srcs;
    // lint: shared-state — thread_local scratch buffer: each thread owns
    // its own instance, so there is no cross-thread sharing; it only
    // amortizes the allocation across calls on one thread.
    static thread_local std::vector<SourceId> filtered;
    filtered.clear();
    for (SourceId s : srcs) {
      if (!exclude->contains(s)) filtered.push_back(s);
    }
    return filtered.empty() ? srcs : filtered;
  };

  // Candidate sources: anything covering at least one needed label.
  std::vector<SourceId> candidates;
  for (LabelId l : labels) {
    const auto& srcs = available(l);
    if (srcs.empty()) sel.uncovered.push_back(l);
    candidates.insert(candidates.end(), srcs.begin(), srcs.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  auto covered_needed = [&](SourceId s) {
    std::vector<LabelId> out;
    for (LabelId l : labels) {
      const auto& srcs = available(l);
      if (std::find(srcs.begin(), srcs.end(), s) != srcs.end()) {
        out.push_back(l);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  std::vector<SourceId> chosen;
  if (minimize) {
    // Weighted set cover over the needed labels.
    coverage::CoverInstance inst;
    for (LabelId l : labels) {
      if (!sources_for(l).empty()) {
        inst.universe.push_back(static_cast<std::uint32_t>(l.value()));
      }
    }
    std::sort(inst.universe.begin(), inst.universe.end());
    inst.universe.erase(
        std::unique(inst.universe.begin(), inst.universe.end()),
        inst.universe.end());
    for (SourceId s : candidates) {
      coverage::CoverSet set;
      set.cost = retrieval_cost(s, origin);
      for (LabelId l : covered_needed(s)) {
        set.elements.push_back(static_cast<std::uint32_t>(l.value()));
      }
      inst.sets.push_back(std::move(set));
    }
    const auto result = coverage::greedy_cover(inst);
    for (std::size_t idx : result.chosen) chosen.push_back(candidates[idx]);
  } else {
    chosen = candidates;
  }

  // Designate, for each label, the cheapest chosen source covering it.
  for (LabelId l : labels) {
    const auto& srcs = available(l);
    SourceId best;
    double best_cost = 0.0;
    for (SourceId s : srcs) {
      if (std::find(chosen.begin(), chosen.end(), s) == chosen.end()) continue;
      const double c = retrieval_cost(s, origin);
      if (!best.valid() || c < best_cost) {
        best = s;
        best_cost = c;
      }
    }
    if (best.valid()) sel.designated[l] = best;
  }

  // Request list: every chosen source with the needed labels it covers.
  for (SourceId s : chosen) {
    auto labs = covered_needed(s);
    if (!labs.empty()) sel.requests.emplace_back(s, std::move(labs));
  }
  return sel;
}

}  // namespace dde::athena
