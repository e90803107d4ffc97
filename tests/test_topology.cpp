#include "net/topology.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "common/rng.h"

namespace dde::net {
namespace {

/// Line topology: 0 - 1 - 2 - 3.
Topology line(std::size_t n) {
  Topology t;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(t.add_node());
  for (std::size_t i = 0; i + 1 < n; ++i) t.add_link(nodes[i], nodes[i + 1]);
  t.compute_routes();
  return t;
}

TEST(Link, TransmissionTime) {
  Link l;
  l.bandwidth_bps = 1e6;
  EXPECT_EQ(l.transmission_time(125000), SimTime::seconds(1));  // 1 Mb at 1 Mbps
  EXPECT_EQ(l.transmission_time(0), SimTime::zero());
}

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  EXPECT_EQ(t.node_count(), 2u);
  const auto [ab, ba] = t.add_link(a, b, 2e6, SimTime::millis(5));
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(ab).from, a);
  EXPECT_EQ(t.link(ab).to, b);
  EXPECT_EQ(t.link(ba).from, b);
  EXPECT_DOUBLE_EQ(t.link(ab).bandwidth_bps, 2e6);
  EXPECT_EQ(t.link(ab).latency, SimTime::millis(5));
}

TEST(Topology, LinkBetween) {
  const Topology t = line(3);
  EXPECT_TRUE(t.link_between(NodeId{0}, NodeId{1}).has_value());
  EXPECT_TRUE(t.link_between(NodeId{1}, NodeId{0}).has_value());
  EXPECT_FALSE(t.link_between(NodeId{0}, NodeId{2}).has_value());
}

TEST(Topology, Neighbors) {
  const Topology t = line(4);
  EXPECT_EQ(t.neighbors(NodeId{0}).size(), 1u);
  EXPECT_EQ(t.neighbors(NodeId{1}).size(), 2u);
  const auto n1 = t.neighbors(NodeId{1});
  EXPECT_NE(std::find(n1.begin(), n1.end(), NodeId{0}), n1.end());
  EXPECT_NE(std::find(n1.begin(), n1.end(), NodeId{2}), n1.end());
}

TEST(Topology, NextHopAlongLine) {
  const Topology t = line(4);
  EXPECT_EQ(t.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_EQ(t.next_hop(NodeId{1}, NodeId{3}), NodeId{2});
  EXPECT_EQ(t.next_hop(NodeId{3}, NodeId{0}), NodeId{2});
  EXPECT_EQ(t.next_hop(NodeId{2}, NodeId{2}), NodeId{2});
}

TEST(Topology, HopDistance) {
  const Topology t = line(5);
  EXPECT_EQ(t.hop_distance(NodeId{0}, NodeId{4}), 4u);
  EXPECT_EQ(t.hop_distance(NodeId{2}, NodeId{2}), 0u);
  EXPECT_EQ(t.hop_distance(NodeId{4}, NodeId{1}), 3u);
}

TEST(Topology, UnreachableNodes) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  (void)a;
  (void)b;
  t.compute_routes();
  EXPECT_FALSE(t.next_hop(NodeId{0}, NodeId{1}).has_value());
  EXPECT_FALSE(t.hop_distance(NodeId{0}, NodeId{1}).has_value());
}

TEST(Topology, RoutesNotComputedReturnsNullopt) {
  Topology t;
  t.add_node();
  t.add_node();
  EXPECT_FALSE(t.next_hop(NodeId{0}, NodeId{1}).has_value());
}

TEST(Topology, PrefersFastPath) {
  // Triangle with a slow direct link and a fast two-hop path:
  //   0 —slow— 2,  0 —fast— 1 —fast— 2
  Topology t;
  const NodeId n0 = t.add_node();
  const NodeId n1 = t.add_node();
  const NodeId n2 = t.add_node();
  t.add_link(n0, n2, 1e6, SimTime::seconds(10));  // slow (huge latency)
  t.add_link(n0, n1, 1e6, SimTime::millis(1));
  t.add_link(n1, n2, 1e6, SimTime::millis(1));
  t.compute_routes();
  EXPECT_EQ(t.next_hop(n0, n2), n1);
}

TEST(Topology, PrefersDirectWhenEqualBandwidth) {
  // Triangle with equal links: direct is cheaper than two hops.
  Topology t;
  const NodeId n0 = t.add_node();
  const NodeId n1 = t.add_node();
  const NodeId n2 = t.add_node();
  t.add_link(n0, n2);
  t.add_link(n0, n1);
  t.add_link(n1, n2);
  t.compute_routes();
  EXPECT_EQ(t.next_hop(n0, n2), n2);
  EXPECT_EQ(t.hop_distance(n0, n2), 1u);
}

TEST(Topology, FollowNextHopsReachesEveryDestination) {
  // Grid-ish topology: 3×3 mesh.
  Topology t;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 9; ++i) nodes.push_back(t.add_node());
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      if (x + 1 < 3) t.add_link(nodes[y * 3 + x], nodes[y * 3 + x + 1]);
      if (y + 1 < 3) t.add_link(nodes[y * 3 + x], nodes[(y + 1) * 3 + x]);
    }
  }
  t.compute_routes();
  for (std::size_t from = 0; from < 9; ++from) {
    for (std::size_t to = 0; to < 9; ++to) {
      NodeId cur{from};
      int steps = 0;
      while (cur != NodeId{to}) {
        const auto next = t.next_hop(cur, NodeId{to});
        ASSERT_TRUE(next.has_value());
        ASSERT_TRUE(t.link_between(cur, *next).has_value())
            << "next hop must be adjacent";
        cur = *next;
        ASSERT_LE(++steps, 8) << "route must not loop";
      }
      EXPECT_EQ(static_cast<std::size_t>(steps),
                *t.hop_distance(NodeId{from}, NodeId{to}));
    }
  }
}

TEST(Topology, ComputeRoutesWithDisabledLinksRoutesAround) {
  // Diamond: 0 - 1 - 2 and 0 - 3 - 2.
  Topology t;
  std::vector<NodeId> n;
  for (int i = 0; i < 4; ++i) n.push_back(t.add_node());
  const auto [l01, l10] = t.add_link(n[0], n[1]);
  t.add_link(n[1], n[2]);
  t.add_link(n[0], n[3]);
  t.add_link(n[3], n[2]);
  t.compute_routes();
  EXPECT_EQ(t.hop_distance(n[0], n[2]), 2u);

  // Disable the 0–1 pair: everything must route via 3.
  std::vector<char> enabled(t.link_count(), 1);
  enabled[l01.value()] = 0;
  enabled[l10.value()] = 0;
  t.compute_routes(enabled);
  EXPECT_EQ(t.next_hop(n[0], n[2]), n[3]);
  EXPECT_EQ(t.next_hop(n[0], n[1]), n[3]) << "even 0→1 detours the long way";
  EXPECT_EQ(t.hop_distance(n[0], n[1]), 3u);

  // Disabling both sides of the diamond cuts 0 off entirely.
  const auto l03 = *t.link_between(n[0], n[3]);
  const auto l30 = *t.link_between(n[3], n[0]);
  enabled[l03.value()] = 0;
  enabled[l30.value()] = 0;
  t.compute_routes(enabled);
  EXPECT_FALSE(t.next_hop(n[0], n[2]).has_value());
  EXPECT_EQ(t.next_hop(n[1], n[2]), n[2]) << "the rest of the mesh survives";

  // An empty mask means "all enabled" and matches a plain recompute.
  t.compute_routes(std::vector<char>());
  EXPECT_EQ(t.hop_distance(n[0], n[2]), 2u);
}

/// Reference routes: the original compute_routes, which relaxes a popped
/// node's incoming links by scanning every link in id order. Returns
/// next_hop and hop_distance for each (from, dest) pair, row-major.
struct OracleRoutes {
  std::vector<std::optional<NodeId>> next;
  std::vector<std::optional<std::size_t>> hops;
};

OracleRoutes oracle_routes(const Topology& t,
                           const std::vector<char>& link_enabled) {
  const std::size_t n = t.node_count();
  OracleRoutes out;
  out.next.resize(n * n);
  out.hops.resize(n * n);
  for (std::size_t dest = 0; dest < n; ++dest) {
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> hops(n, std::numeric_limits<std::size_t>::max());
    std::vector<NodeId> next(n, NodeId{});
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[dest] = 0.0;
    hops[dest] = 0;
    next[dest] = NodeId{dest};
    pq.emplace(0.0, dest);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (const Link& l : t.links()) {
        if (l.to.value() != u) continue;
        if (!link_enabled.empty() && !link_enabled[l.id.value()]) continue;
        const std::size_t v = l.from.value();
        const double w =
            l.latency.to_seconds() + 1024.0 * 8.0 / l.bandwidth_bps;
        if (dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          hops[v] = hops[u] + 1;
          next[v] = NodeId{u};
          pq.emplace(dist[v], v);
        }
      }
    }
    for (std::size_t from = 0; from < n; ++from) {
      if (next[from].valid()) out.next[from * n + dest] = next[from];
      if (hops[from] != std::numeric_limits<std::size_t>::max()) {
        out.hops[from * n + dest] = hops[from];
      }
    }
  }
  return out;
}

// compute_routes must pick exactly the oracle's next hop and hop count for
// every pair, under every link mask: the relaxation order decides between
// equal-delay paths, and this grid of bandwidths and latencies makes such
// ties common (as do parallel links between one pair of nodes).
TEST(Topology, RoutesMatchAllLinksScanOracle) {
  Rng rng(404);
  const double bandwidths[] = {5e5, 1e6, 2e6};
  const SimTime latencies[] = {SimTime::millis(1), SimTime::millis(2),
                               SimTime::millis(4)};
  for (int trial = 0; trial < 60; ++trial) {
    Topology t;
    const std::size_t n = 1 + rng.below(24);
    for (std::size_t i = 0; i < n; ++i) t.add_node();
    for (std::size_t k = 0, m = rng.below(3 * n + 1); k < m && n > 1; ++k) {
      const std::size_t a = rng.below(n);
      const std::size_t b = (a + 1 + rng.below(n - 1)) % n;
      t.add_link(NodeId{a}, NodeId{b}, bandwidths[rng.below(3)],
                 latencies[rng.below(3)]);
    }
    std::vector<std::vector<char>> masks;
    masks.emplace_back();                              // all enabled
    masks.emplace_back(t.link_count(), 0);             // all disabled
    masks.emplace_back(t.link_count(), 1);             // explicit all-on
    for (double p : {0.3, 0.7, 0.9}) {
      std::vector<char> mask(t.link_count());
      for (char& on : mask) on = rng.chance(p) ? 1 : 0;
      masks.push_back(std::move(mask));
    }
    for (const auto& mask : masks) {
      t.compute_routes(mask);
      const OracleRoutes want = oracle_routes(t, mask);
      for (std::size_t from = 0; from < n; ++from) {
        for (std::size_t dest = 0; dest < n; ++dest) {
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " mask size " << mask.size()
                       << " from " << from << " dest " << dest);
          EXPECT_EQ(t.next_hop(NodeId{from}, NodeId{dest}),
                    want.next[from * n + dest]);
          EXPECT_EQ(t.hop_distance(NodeId{from}, NodeId{dest}),
                    want.hops[from * n + dest]);
        }
      }
    }
  }
}

TEST(Topology, LinkThrowsOnBadId) {
  const Topology t = line(2);
  EXPECT_THROW((void)t.link(LinkId{999}), std::out_of_range);
}

}  // namespace
}  // namespace dde::net
