#include "scenario/route_scenario.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "athena/directory.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "des/simulator.h"
#include "net/topology.h"
#include "scenario/plugin.h"
#include "world/dynamics.h"
#include "world/grid_map.h"
#include "world/sensor_field.h"

namespace dde::scenario {
namespace {

/// Build one route-finding decision expression: OR over candidate routes of
/// AND(viable(segment)). Prefers route sets whose segments are all covered
/// by some sensor (otherwise the query may be inherently unresolvable for
/// every scheme).
decision::DnfExpr make_route_query(const world::GridMap& map,
                                   const std::unordered_set<SegmentId>& covered,
                                   const ScenarioConfig& cfg, Rng& rng) {
  auto route_covered = [&](const world::Route& r) {
    return std::all_of(r.segments.begin(), r.segments.end(),
                       [&](SegmentId s) { return covered.contains(s); });
  };

  std::vector<world::Route> chosen;
  for (int attempt = 0; attempt < 40; ++attempt) {
    auto routes = map.random_route_choices(cfg.routes_per_query,
                                           cfg.min_route_distance, rng);
    std::erase_if(routes, [&](const world::Route& r) {
      return !route_covered(r);
    });
    if (routes.size() > chosen.size()) chosen = routes;
    if (chosen.size() >= cfg.routes_per_query) break;
  }
  // Fallback: accept partially covered routes rather than an empty query.
  if (chosen.empty()) {
    chosen = map.random_route_choices(cfg.routes_per_query,
                                      cfg.min_route_distance, rng);
  }

  decision::DnfExpr expr;
  for (const auto& route : chosen) {
    decision::Conjunction c;
    for (SegmentId seg : route.segments) {
      c.terms.push_back(decision::Term{LabelId{seg.value()}, false});
    }
    expr.add_disjunct(std::move(c));
  }
  return expr;
}

/// One in-flight route-scenario run. Published results are pinned to this
/// exact sequence: every RNG draw happens in constructor order, and member
/// declaration order fixes construction/destruction order — reorder
/// neither.
class RouteRun {
 public:
  using Config = ScenarioConfig;
  using Result = ScenarioResult;

  explicit RouteRun(const ScenarioConfig& config);
  RouteRun(const RouteRun&) = delete;
  RouteRun& operator=(const RouteRun&) = delete;

  /// Run the DES to `until`. With run_to_quiescence, reaching the horizon
  /// keeps going until the DES drains (the chaos harness's quiesce point):
  /// the workload is finite and every recurring callback (GC, pump,
  /// watchdogs) terminates once its state drains.
  void advance(SimTime until) {
    sim_.run_until(until);
    if (cfg_.run_to_quiescence && until >= cfg_.horizon) {
      sim_.run_until(SimTime::max());
    }
  }

  /// Assemble the result for the run advanced so far (idempotent).
  [[nodiscard]] ScenarioResult collect();

 private:
  ScenarioConfig cfg_;
  Rng rng_;
  std::optional<world::GridMap> map_;
  std::optional<world::ViabilityProcess> truth_;
  std::optional<world::SensorField> field_;
  net::Topology topo_;
  std::vector<NodeId> hosts_;
  des::Simulator sim_;
  std::optional<net::Network> network_;
  std::optional<fault::FaultInjector> injector_;
  std::optional<athena::Directory> directory_;
  athena::AthenaMetrics metrics_;
  std::vector<std::unique_ptr<athena::AthenaNode>> nodes_;
  std::uint64_t issued_ = 0;
  std::vector<std::vector<std::pair<SimTime, decision::DnfExpr>>>
      issued_exprs_;
};

RouteRun::RouteRun(const ScenarioConfig& config)
    : cfg_(config), rng_(cfg_.seed) {
  const ScenarioConfig& cfg = cfg_;
  Rng& rng = rng_;

  // --- world ---------------------------------------------------------------
  map_.emplace(cfg.grid_width, cfg.grid_height);
  world::GridMap& map = *map_;
  std::vector<world::SegmentDynamics> dyn(map.segment_count(),
                                          world::SegmentDynamics{
                                              cfg.p_viable, cfg.mean_holding});
  truth_.emplace(std::move(dyn), rng.fork());
  world::ViabilityProcess& truth = *truth_;

  world::SensorFieldConfig field_cfg;
  field_cfg.sensor_count = cfg.node_count;
  field_cfg.coverage_radius = cfg.coverage_radius;
  field_cfg.min_object_bytes = cfg.min_object_bytes;
  field_cfg.max_object_bytes = cfg.max_object_bytes;
  field_cfg.fast_ratio = cfg.fast_ratio;
  field_cfg.slow_validity = cfg.slow_validity;
  field_cfg.fast_validity = cfg.fast_validity;
  field_cfg.reliability = cfg.sensor_reliability;
  field_.emplace(map, truth, field_cfg, rng);
  world::SensorField& field = *field_;

  // --- network ---------------------------------------------------------------
  hosts_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    hosts_.push_back(topo_.add_node());
  }
  build_links(topo_, field, cfg.link_radius, cfg.link_bandwidth_bps,
              cfg.link_latency);
  topo_.compute_routes();

  network_.emplace(sim_, topo_);
  net::Network& network = *network_;
  if (cfg.packet_loss > 0.0) {
    network.set_loss_rate(cfg.packet_loss, cfg.seed * 7919 + 13);
  }
  if (cfg.trace_sink != nullptr) network.set_trace_sink(cfg.trace_sink);
  if (cfg.link_queue_max_packets > 0 || cfg.link_queue_max_bytes > 0) {
    network.set_queue_limits(net::QueueLimits{cfg.link_queue_max_packets,
                                              cfg.link_queue_max_bytes});
  }

  // Structured fault injection (faults + chaos churn, own RNG streams).
  if (auto plan = merged_fault_plan(cfg.faults, cfg.chaos, topo_, cfg.seed)) {
    injector_.emplace(sim_, topo_, network, std::move(*plan),
                      injector_seed(cfg.seed));
  }

  // --- directory -------------------------------------------------------------
  std::unordered_map<LabelId, double> p_true;
  for (const auto& seg : map.segments()) {
    p_true[LabelId{seg.id.value()}] = truth.params(seg.id).p_viable;
  }
  directory_.emplace(topo_, field, hosts_, std::move(p_true));

  // --- nodes -----------------------------------------------------------------
  athena::AthenaConfig node_cfg =
      cfg.config_override.value_or(athena::config_for(cfg.scheme));
  if (!cfg.config_override) {
    node_cfg.corroboration_confidence = cfg.corroboration_confidence;
    node_cfg.crash_recovery = cfg.fault_crash_recovery;
    node_cfg.recovery_lease = cfg.recovery_lease;
  }
  nodes_.reserve(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    nodes_.push_back(std::make_unique<athena::AthenaNode>(
        NodeId{i}, network, *directory_, field, node_cfg, metrics_));
    if (cfg.trace_sink != nullptr) {
      nodes_.back()->set_trace_sink(cfg.trace_sink);
    }
  }

  if (injector_) wire_restart_hooks(*injector_, nodes_);

  // --- workload ----------------------------------------------------------------
  std::unordered_set<SegmentId> covered;
  for (SegmentId s : field.covered_segments()) covered.insert(s);

  // Remember each issued expression (with its issue time) so chosen routes
  // can be audited against ground truth after the run. Per node, records()
  // is in query_init order = issue-time order (ties keep schedule order),
  // so sorting these stably by time aligns index k with records()[k].
  issued_exprs_.resize(cfg.node_count);
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    SimTime cursor = SimTime::zero();
    for (std::size_t k = 0; k < cfg.queries_per_node; ++k) {
      decision::DnfExpr expr = make_route_query(map, covered, cfg, rng);
      if (expr.empty()) continue;
      SimTime when;
      switch (cfg.arrival) {
        case ScenarioConfig::Arrival::kConcurrent:
          when = SimTime::micros(static_cast<SimTime::rep>(
              rng.uniform() * static_cast<double>(cfg.issue_jitter.count())));
          break;
        case ScenarioConfig::Arrival::kPoisson:
          cursor += SimTime::seconds(
              rng.exponential(cfg.mean_interarrival.to_seconds()));
          when = cursor;
          break;
        case ScenarioConfig::Arrival::kPeriodic:
          when = cfg.mean_interarrival * static_cast<SimTime::rep>(k) +
                 SimTime::micros(static_cast<SimTime::rep>(
                     rng.uniform() *
                     static_cast<double>(cfg.issue_jitter.count())));
          break;
      }
      athena::AthenaNode* node = nodes_[i].get();
      const int priority = cfg.critical_fraction > 0.0 &&
                                   rng.chance(cfg.critical_fraction)
                               ? cfg.critical_priority
                               : 0;
      issued_exprs_[i].emplace_back(when, expr);
      sim_.schedule_at(when, [this, node, expr = std::move(expr),
                              priority]() mutable {
        node->query_init(std::move(expr), cfg_.query_deadline, priority);
      });
      ++issued_;
    }
  }
  for (auto& per_node : issued_exprs_) {
    std::stable_sort(per_node.begin(), per_node.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }

  // --- disruption --------------------------------------------------------------
  if (cfg.disruption_at > SimTime::zero()) {
    // Choose the affected segments up front (deterministic), apply the
    // physical change and (optionally) the invalidation at the event time.
    std::vector<SegmentId> hit;
    for (SegmentId s : field.covered_segments()) {
      if (rng.chance(cfg.disruption_fraction)) hit.push_back(s);
    }
    // An empty network has no herald node to broadcast the invalidation
    // from; the physical disruption still applies.
    bool broadcast = cfg.broadcast_invalidation;
    DDE_CLAMP_OR(!nodes_.empty() || !broadcast, broadcast = false,
                 "route scenario: broadcast_invalidation needs at least one "
                 "node; disruption applied without a broadcast");
    athena::AthenaNode* herald = nodes_.empty() ? nullptr : nodes_[0].get();
    world::ViabilityProcess* world_truth = &truth;
    sim_.schedule_at(cfg.disruption_at, [hit, herald, world_truth, broadcast,
                                         at = cfg.disruption_at] {
      std::vector<LabelId> labels;
      for (SegmentId s : hit) {
        world_truth->block_after(s, at);
        labels.push_back(LabelId{s.value()});
      }
      if (broadcast && !labels.empty()) {
        herald->broadcast_invalidation(labels);
      }
    });
  }
}

ScenarioResult RouteRun::collect() {
  const ScenarioConfig& cfg = cfg_;

  ScenarioResult result;
  result.metrics = metrics_;
  result.traffic = network_->stats();
  result.metrics.link_down_drops = network_->stats().link_down_drops;
  result.metrics.queue_drops = network_->stats().queue_drops;
  if (injector_) {
    result.faults = injector_->stats();
    result.metrics.reroutes = injector_->stats().reroutes;
  }
  result.events = sim_.executed_events();
  result.queries = issued_;

  // --- per-query outcomes + ground-truth audit ----------------------------------
  // For every resolved query that committed to a route, check that route
  // was genuinely viable (every segment, at resolution time).
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    const auto& records = nodes_[i]->records();
    const bool mapped = records.size() == issued_exprs_[i].size();
    for (std::size_t k = 0; k < records.size(); ++k) {
      const auto& rec = records[k];
      ScenarioResult::QueryOutcome out;
      out.priority = rec.priority;
      out.success = rec.success;
      out.shed = rec.shed;
      out.crashed = rec.crashed;
      out.issued_s = rec.issued_at.to_seconds();
      out.finished_s = rec.success ? rec.finished_at.to_seconds() : 0.0;
      out.latency_s =
          rec.success ? (rec.finished_at - rec.issued_at).to_seconds() : 0.0;
      if (mapped && rec.issued_at == issued_exprs_[i][k].first &&
          rec.success && rec.chosen_action) {
        const auto& expr = issued_exprs_[i][k].second;
        if (*rec.chosen_action < expr.disjunct_count()) {
          out.audited = true;
          out.correct = true;
          for (const auto& term :
               expr.disjuncts()[*rec.chosen_action].terms) {
            const bool viable = truth_->viable_at(
                SegmentId{term.label.value()}, rec.finished_at);
            if ((term.negated ? !viable : viable) == false) {
              out.correct = false;
              break;
            }
          }
          ++result.decisions_audited;
          result.decisions_correct += out.correct ? 1 : 0;
        }
      }
      result.outcomes.push_back(out);
    }
  }

  // Residual-state probes for the chaos harness's quiesce-point invariant
  // check (cheap counts; harmless to fill on every collect).
  result.probes.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    fault::NodeStateProbe p;
    p.node = node->id().value();
    p.active_queries = node->active_queries();
    p.interest_entries = node->interest_entries();
    p.forwarded_entries = node->forwarded_entries();
    p.dedup_entries = node->dedup_entries();
    result.probes.push_back(p);
  }
  return result;
}

// --- the "route" plugin ----------------------------------------------------

std::string arrival_name(ScenarioConfig::Arrival a) {
  switch (a) {
    case ScenarioConfig::Arrival::kConcurrent: return "concurrent";
    case ScenarioConfig::Arrival::kPoisson: return "poisson";
    case ScenarioConfig::Arrival::kPeriodic: return "periodic";
  }
  return "?";
}

/// The "route" plugin's spec schema over a config instance. The binder
/// holds pointers into `cfg`: it must not outlive it.
SpecBinder route_binder(ScenarioConfig& cfg) {
  SpecBinder b;
  b.bind("grid_width", &cfg.grid_width);
  b.bind("grid_height", &cfg.grid_height);
  b.bind("p_viable", &cfg.p_viable);
  b.bind_seconds("mean_holding_s", &cfg.mean_holding);
  b.bind("node_count", &cfg.node_count);
  b.bind("coverage_radius", &cfg.coverage_radius);
  b.bind("min_object_bytes", &cfg.min_object_bytes);
  b.bind("max_object_bytes", &cfg.max_object_bytes);
  b.bind("fast_ratio", &cfg.fast_ratio);
  b.bind_seconds("slow_validity_s", &cfg.slow_validity);
  b.bind_seconds("fast_validity_s", &cfg.fast_validity);
  b.bind("sensor_reliability", &cfg.sensor_reliability);
  b.bind("corroboration_confidence", &cfg.corroboration_confidence);
  b.bind("link_bandwidth_bps", &cfg.link_bandwidth_bps);
  b.bind_seconds("link_latency_s", &cfg.link_latency);
  b.bind("link_radius", &cfg.link_radius);
  b.bind("packet_loss", &cfg.packet_loss);
  b.bind("link_queue_max_packets", &cfg.link_queue_max_packets);
  b.bind("link_queue_max_bytes", &cfg.link_queue_max_bytes);
  b.bind("queries_per_node", &cfg.queries_per_node);
  b.bind("routes_per_query", &cfg.routes_per_query);
  b.bind("min_route_distance", &cfg.min_route_distance);
  b.bind_seconds("query_deadline_s", &cfg.query_deadline);
  b.bind_enum(
      "arrival", [&cfg] { return arrival_name(cfg.arrival); },
      [&cfg](const std::string& v) {
        if (v == "concurrent") cfg.arrival = ScenarioConfig::Arrival::kConcurrent;
        else if (v == "poisson") cfg.arrival = ScenarioConfig::Arrival::kPoisson;
        else if (v == "periodic") cfg.arrival = ScenarioConfig::Arrival::kPeriodic;
        else return false;
        return true;
      });
  b.bind_seconds("issue_jitter_s", &cfg.issue_jitter);
  b.bind_seconds("mean_interarrival_s", &cfg.mean_interarrival);
  b.bind_seconds("horizon_s", &cfg.horizon);
  b.bind("critical_fraction", &cfg.critical_fraction);
  b.bind("critical_priority", &cfg.critical_priority);
  b.bind_seconds("disruption_at_s", &cfg.disruption_at);
  b.bind("disruption_fraction", &cfg.disruption_fraction);
  b.bind("broadcast_invalidation", &cfg.broadcast_invalidation);
  bind_fault_knobs(b, &cfg.faults, &cfg.chaos, &cfg.fault_crash_recovery,
                   &cfg.recovery_lease);
  b.bind("run_to_quiescence", &cfg.run_to_quiescence);
  bind_scheme(b, &cfg.scheme);
  return b;
}

ScenarioOutcome route_outcome(const ScenarioResult& r) {
  ScenarioOutcome out;
  out.metrics["queries"] = static_cast<double>(r.queries);
  out.metrics["queries_resolved"] =
      static_cast<double>(r.metrics.queries_resolved);
  out.metrics["queries_failed"] =
      static_cast<double>(r.metrics.queries_failed);
  out.metrics["resolution_ratio"] = r.resolution_ratio();
  out.metrics["mean_latency_s"] = r.metrics.mean_latency_s();
  out.metrics["total_megabytes"] = r.total_megabytes();
  out.metrics["decision_accuracy"] = r.decision_accuracy();
  out.metrics["decisions_audited"] =
      static_cast<double>(r.decisions_audited);
  out.metrics["events"] = static_cast<double>(r.events);
  out.metrics["refetches"] = static_cast<double>(r.metrics.refetches);
  out.metrics["retries"] = static_cast<double>(r.metrics.retries);
  out.metrics["failovers"] = static_cast<double>(r.metrics.failovers);
  out.metrics["crashed_queries"] =
      static_cast<double>(r.metrics.queries_failed_crash);
  out.metrics["node_restarts"] =
      static_cast<double>(r.metrics.node_restarts);
  out.metrics["recovery_time_s"] = r.metrics.mean_recovery_time_s();
  return out;
}

}  // namespace

ScenarioResult run_route_scenario(const ScenarioConfig& cfg) {
  return run_to_horizon<RouteRun>(cfg);
}

ScenarioConfig route_config_from_spec(const ScenarioSpec& spec) {
  ScenarioConfig cfg;
  route_binder(cfg).apply(spec);
  return cfg;
}

std::unique_ptr<ScenarioRunner> make_route_runner() {
  return std::make_unique<PluginRunner<RouteRun>>(
      ScenarioMetadata{
          "route",
          "Post-disaster route assessment on a Manhattan grid (paper Sec. VII)",
          "evaluation"},
      &route_binder, &route_outcome);
}

}  // namespace dde::scenario
