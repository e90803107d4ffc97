#include "scenario/trigger_scenario.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "athena/directory.h"
#include "athena/node.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "des/periodic.h"
#include "des/simulator.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/plugin.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// One in-flight warehouse-watch run. Published results are pinned to this
/// exact sequence: every RNG draw happens in constructor order, and member
/// declaration order fixes construction/destruction order — reorder
/// neither.
class TriggerRun {
 public:
  using Config = TriggerScenarioConfig;
  using Result = TriggerScenarioResult;

  explicit TriggerRun(const TriggerScenarioConfig& config);
  TriggerRun(const TriggerRun&) = delete;
  TriggerRun& operator=(const TriggerRun&) = delete;

  void advance(SimTime until) { sim_.run_until(until); }

  /// Assemble the result for the run advanced so far (idempotent).
  [[nodiscard]] TriggerScenarioResult collect();

 private:
  TriggerScenarioConfig cfg_;
  /// Validated sampling period (cfg_.watch_period with contract clamping).
  SimTime watch_period_ = SimTime::zero();
  Rng rng_;
  std::optional<world::GridMap> map_;
  SegmentId watched_{0};
  std::optional<world::ViabilityProcess> truth_;
  std::optional<world::SensorField> field_;
  NodeId watch_node_{0};
  SourceId watch_sensor_{0};
  net::Topology topo_;
  std::vector<NodeId> hosts_;
  des::Simulator sim_;
  std::optional<net::Network> network_;
  std::optional<athena::Directory> directory_;
  athena::AthenaMetrics metrics_;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes_;
  std::vector<LabelId> id_labels_;
  TriggerScenarioResult result_;
  std::vector<SimTime> event_times_;  // aligned with issued queries
  bool prev_state_ = false;
  std::optional<des::PeriodicTask> watch_;
};

TriggerRun::TriggerRun(const TriggerScenarioConfig& config)
    : cfg_(config), rng_(cfg_.seed) {
  const TriggerScenarioConfig& cfg = cfg_;
  Rng& rng = rng_;

  // A non-positive event rate would put a zero (or negative) cycle length
  // into the dynamics below — division by zero, then a DDE_CHECK deep in
  // ViabilityProcess. Clamp to the documented default instead.
  double event_rate_per_hour = cfg.event_rate_per_hour;
  DDE_CLAMP_OR(event_rate_per_hour > 0.0, event_rate_per_hour = 12.0,
               "trigger scenario: event_rate_per_hour must be > 0; "
               "clamped to 12");
  // A non-positive sampling period would make the PeriodicTask respawn
  // forever at a single simulation instant (the run never advances). Clamp
  // to the documented default.
  watch_period_ = cfg.watch_period;
  DDE_CLAMP_OR(watch_period_ > SimTime::zero(),
               watch_period_ = SimTime::seconds(5),
               "trigger scenario: watch_period must be > 0; clamped to 5s");

  // --- world: one fast "motion" segment, calm everything else -------------
  map_.emplace(cfg.grid_width, cfg.grid_height);
  world::GridMap& map = *map_;
  watched_ = SegmentId{rng.below(map.segment_count())};
  const SegmentId watched = watched_;
  std::vector<world::SegmentDynamics> dyn(
      map.segment_count(),
      world::SegmentDynamics{0.8, SimTime::seconds(36000)});
  // Motion is on ~20% of the time; the on→off cycle length sets the event
  // rate: events/hour ≈ 3600 / (2 × mean_holding).
  dyn[watched.value()] = world::SegmentDynamics{
      0.2, SimTime::seconds(1800.0 / event_rate_per_hour)};
  truth_.emplace(std::move(dyn), rng.fork());
  world::ViabilityProcess& truth = *truth_;

  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = cfg.node_count;
  field_cfg.coverage_radius = cfg.coverage_radius;
  field_cfg.fast_ratio = 0.0;
  field_cfg.slow_validity = SimTime::seconds(45);  // camera footage ages fast
  field_.emplace(map, truth, field_cfg, rng);
  world::SensorField& field = *field_;

  // The watch node hosts a sensor that covers the monitored segment; if
  // none does, fall back to node 0 (it can still query remote cameras).
  for (const auto& s : field.sensors()) {
    if (std::find(s.covers.begin(), s.covers.end(), watched) !=
        s.covers.end()) {
      watch_node_ = NodeId{s.id.value()};
      watch_sensor_ = s.id;
      break;
    }
  }

  // --- network / directory -------------------------------------------------
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    hosts_.push_back(topo_.add_node());
  }
  build_links(topo_, field, cfg.link_radius, cfg.link_bandwidth_bps,
              SimTime::millis(1));
  topo_.compute_routes();

  network_.emplace(sim_, topo_);
  net::Network& network = *network_;

  std::unordered_map<LabelId, double> p_true;
  for (const auto& seg : map.segments()) {
    p_true[LabelId{seg.id.value()}] = truth.params(seg.id).p_viable;
  }
  directory_.emplace(topo_, field, hosts_, std::move(p_true));

  const auto node_cfg = athena::config_for(cfg.scheme);
  nodes_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    nodes_.push_back(std::make_unique<athena::AthenaNode>(
        NodeId{i}, network, *directory_, field, node_cfg, metrics_));
  }

  // Identification query: evidence from cameras covering segments around
  // the watched one (excluding the watch sensor's own footprint, which the
  // watch node can already see locally).
  const auto& watched_seg = map.segment(watched);
  {
    auto nearby = map.segments_near(watched_seg.mid_x(), watched_seg.mid_y(),
                                    2.0);
    const auto& own = field.sensor(watch_sensor_).covers;
    for (SegmentId s : nearby) {
      if (id_labels_.size() >= cfg.cameras_per_query) break;
      if (std::find(own.begin(), own.end(), s) != own.end()) continue;
      if (field.sensors_covering(s).empty()) continue;
      id_labels_.push_back(LabelId{s.value()});
    }
    // Fall back to any covered labels if the neighbourhood was too bare.
    for (SegmentId s : field.covered_segments()) {
      if (id_labels_.size() >= cfg.cameras_per_query) break;
      const LabelId l{s.value()};
      if (std::find(id_labels_.begin(), id_labels_.end(), l) ==
          id_labels_.end()) {
        id_labels_.push_back(l);
      }
    }
  }

  // --- the watch loop -------------------------------------------------------
  prev_state_ = truth.viable_at(watched, SimTime::zero());
  watch_.emplace(sim_, watch_period_, [this](std::uint64_t) {
    const SimTime now = sim_.now();
    const bool state = truth_->viable_at(watched_, now);
    if (state && !prev_state_) {
      // Event! Find the exact onset (the last flip at or before now).
      SimTime onset = now;
      SimTime probe = now - watch_period_;
      if (probe < SimTime::zero()) probe = SimTime::zero();
      onset = truth_->next_change_after(watched_, probe);
      if (onset > now) onset = probe;  // flipped exactly at the probe point
      ++result_.events;
      event_times_.push_back(onset);
      result_.detection_s.push_back((now - onset).to_seconds());
      decision::DnfExpr expr;
      decision::Conjunction c;
      for (LabelId l : id_labels_) {
        c.terms.push_back(decision::Term{l, false});
      }
      expr.add_disjunct(std::move(c));
      nodes_[watch_node_.value()]->query_init(std::move(expr),
                                              cfg_.query_deadline);
      ++result_.queries_issued;
    }
    prev_state_ = state;
  });
  watch_->start();
}

TriggerScenarioResult TriggerRun::collect() {
  TriggerScenarioResult result = result_;
  result.metrics = metrics_;
  // Reaction times: records at the watch node align 1:1 with events.
  const auto& records = nodes_[watch_node_.value()]->records();
  for (std::size_t i = 0; i < records.size() && i < event_times_.size();
       ++i) {
    if (records[i].success) {
      result.reaction_s.push_back(
          (records[i].finished_at - event_times_[i]).to_seconds());
    }
  }
  return result;
}

// --- the "trigger" plugin --------------------------------------------------

/// The "trigger" plugin's spec schema over a config instance. The binder
/// holds pointers into `cfg`: it must not outlive it.
SpecBinder trigger_binder(TriggerScenarioConfig& cfg) {
  SpecBinder b;
  b.bind("grid_width", &cfg.grid_width);
  b.bind("grid_height", &cfg.grid_height);
  b.bind("node_count", &cfg.node_count);
  b.bind("coverage_radius", &cfg.coverage_radius);
  b.bind("link_radius", &cfg.link_radius);
  b.bind("link_bandwidth_bps", &cfg.link_bandwidth_bps);
  b.bind("event_rate_per_hour", &cfg.event_rate_per_hour);
  b.bind_seconds("watch_period_s", &cfg.watch_period);
  b.bind_seconds("query_deadline_s", &cfg.query_deadline);
  b.bind("cameras_per_query", &cfg.cameras_per_query);
  b.bind_seconds("horizon_s", &cfg.horizon);
  bind_scheme(b, &cfg.scheme);
  return b;
}

ScenarioOutcome trigger_outcome(const TriggerScenarioResult& r) {
  ScenarioOutcome out;
  out.metrics["events"] = static_cast<double>(r.events);
  out.metrics["queries_issued"] = static_cast<double>(r.queries_issued);
  out.metrics["queries_resolved"] =
      static_cast<double>(r.metrics.queries_resolved);
  out.metrics["resolution_ratio"] = r.resolution_ratio();
  out.metrics["mean_detection_s"] = mean_of(r.detection_s);
  out.metrics["mean_reaction_s"] = mean_of(r.reaction_s);
  out.metrics["reactions"] = static_cast<double>(r.reaction_s.size());
  return out;
}

}  // namespace

TriggerScenarioResult run_trigger_scenario(const TriggerScenarioConfig& cfg) {
  return run_to_horizon<TriggerRun>(cfg);
}

std::unique_ptr<ScenarioRunner> make_trigger_runner() {
  return std::make_unique<PluginRunner<TriggerRun>>(
      ScenarioMetadata{"trigger",
                       "Event-triggered intruder identification in a "
                       "warehouse (paper Sec. IV-B)",
                       "evaluation"},
      &trigger_binder, &trigger_outcome);
}

}  // namespace dde::scenario
