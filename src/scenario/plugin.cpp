#include "scenario/plugin.h"

#include <cmath>
#include <numeric>
#include <string>

#include "common/rng.h"

namespace dde::scenario {

void build_links(net::Topology& topo, const world::SensorField& field,
                 double radius, double bandwidth_bps, SimTime latency) {
  const auto& sensors = field.sensors();
  const std::size_t n = sensors.size();
  auto dist = [&](std::size_t a, std::size_t b) {
    const double dx = sensors[a].x - sensors[b].x;
    const double dy = sensors[a].y - sensors[b].y;
    return std::sqrt(dx * dx + dy * dy);
  };

  // Union-find for connectivity.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dist(i, j) <= radius) {
        topo.add_link(NodeId{i}, NodeId{j}, bandwidth_bps, latency);
        parent[find(i)] = find(j);
      }
    }
  }
  // Join disconnected components by their closest cross pair.
  for (;;) {
    double best = 0.0;
    std::size_t bi = n;
    std::size_t bj = n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (find(i) == find(j)) continue;
        const double d = dist(i, j);
        if (bi == n || d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == n) break;  // connected
    topo.add_link(NodeId{bi}, NodeId{bj}, bandwidth_bps, latency);
    parent[find(bi)] = find(bj);
  }
}

void bind_scheme(SpecBinder& b, athena::Scheme* scheme) {
  b.bind_enum(
      "scheme", [scheme] { return std::string(athena::to_string(*scheme)); },
      [scheme](const std::string& v) {
        return athena::parse_scheme(v, scheme);
      });
}

void bind_fault_knobs(SpecBinder& b, fault::FaultSpec* faults,
                      fault::ChaosSpec* chaos, bool* crash_recovery,
                      SimTime* recovery_lease) {
  b.bind("fault_link_outage_fraction", &faults->link_outage_fraction);
  b.bind_seconds("fault_outage_at_s", &faults->outage_at);
  b.bind_seconds("fault_outage_duration_s", &faults->outage_duration);
  b.bind("fault_crash_fraction", &faults->node_crash_fraction);
  b.bind_seconds("fault_crash_at_s", &faults->crash_at);
  b.bind_seconds("fault_crash_duration_s", &faults->crash_duration);
  b.bind_enum(
      "fault_restart_policy",
      [faults] { return std::string(fault::to_string(faults->restart_policy)); },
      [faults](const std::string& v) {
        return fault::parse_restart_policy(v, &faults->restart_policy);
      });
  b.bind("fault_crash_recovery", crash_recovery);
  b.bind_seconds("fault_recovery_lease_s", recovery_lease);
  b.bind_seconds("chaos_window_start_s", &chaos->window_start);
  b.bind_seconds("chaos_window_end_s", &chaos->window_end);
  b.bind("chaos_crashes_per_node_min", &chaos->crashes_per_node_min);
  b.bind_seconds("chaos_min_downtime_s", &chaos->min_downtime);
  b.bind_seconds("chaos_max_downtime_s", &chaos->max_downtime);
  b.bind("chaos_flaps_per_link_min", &chaos->flaps_per_link_min);
  b.bind_seconds("chaos_min_flap_s", &chaos->min_flap);
  b.bind_seconds("chaos_max_flap_s", &chaos->max_flap);
  b.bind_enum(
      "chaos_restart_policy",
      [chaos] { return std::string(fault::to_string(chaos->restart_policy)); },
      [chaos](const std::string& v) {
        return fault::parse_restart_policy(v, &chaos->restart_policy);
      });
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

std::optional<fault::FaultPlan> merged_fault_plan(
    const fault::FaultSpec& faults, const fault::ChaosSpec& chaos,
    const net::Topology& topo, std::uint64_t seed) {
  if (faults.empty() && chaos.empty()) return std::nullopt;
  Rng fault_rng(seed * 6271 + 17);
  fault::FaultPlan plan = faults.realize(topo, fault_rng);
  if (!chaos.empty()) {
    Rng chaos_rng(seed * 15485863 + 19);
    fault::FaultPlan churn = fault::realize_chaos(chaos, topo, chaos_rng);
    plan.events.insert(plan.events.end(), churn.events.begin(),
                       churn.events.end());
    if (churn.burst.enabled()) plan.burst = churn.burst;
    plan.restart_policy = churn.restart_policy;
  }
  return plan;
}

void wire_restart_hooks(
    fault::FaultInjector& injector,
    const std::vector<std::unique_ptr<athena::AthenaNode>>& nodes) {
  const fault::RestartPolicy policy = injector.plan().restart_policy;
  injector.set_node_hook([&nodes, policy](NodeId node, bool up) {
    if (node.value() >= nodes.size()) return;
    if (up) {
      nodes[node.value()]->on_restart(policy);
    } else {
      nodes[node.value()]->on_crash(policy);
    }
  });
}

}  // namespace dde::scenario
