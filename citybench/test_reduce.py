#!/usr/bin/env python3
"""Unit tests for the benchmark's own logic (reduce.py) and its manifest.

    python3 citybench/test_reduce.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reduce  # noqa: E402
import run  # noqa: E402

SRC = "/checkout/src"


def ref(seed=1, sink=0, **kw):
    r = {"rec": "reference", "seed": seed, "sink": sink,
         "trace_events": 40 if sink else 0, "wall_s": 1.0, "digest": "d",
         "events": 100, "queries": 10, "issued": 10, "resolved": 6,
         "failed": 2, "shed": 1, "rejected": 0, "crashed": 1, "in_flight": 0,
         "total_mb": 3.0, "audited": 4, "correct": 3, "accuracy": 0.75,
         "packets": 50, "dropped": 5, "queue_drops": 1,
         "object_requests": 20, "retries": 4, "refetches": 2, "failovers": 0,
         "object_cache_hits": 1, "label_cache_hits": 2,
         "interest_aggregations": 3, "reroutes": 0, "node_restarts": 0,
         "recovery_reissues": 0, "violations": None,
         "latencies": [float(i) for i in range(1, 7)]}
    r.update(kw)
    return r


def plugin(seed=1, pass_="e2e", tick_s=0.5, **kw):
    p = {"rec": "plugin", "pass": pass_, "seed": seed, "setup_s": 0.01,
         "tick_s": tick_s, "outcome_s": 0.001, "digest": "p"}
    p.update({f: ref()[f] for f in reduce.CROSS_FIELDS})
    p.update(kw)
    return p


class LayerOf(unittest.TestCase):
    def test_headers_map_to_their_module(self):
        self.assertEqual(reduce.layer_of(f"{SRC}/common/flat_hash.h", SRC),
                         "common")
        self.assertEqual(reduce.layer_of(f"{SRC}/des/ladder_queue.h", SRC),
                         "des")
        self.assertEqual(reduce.layer_of(f"{SRC}/cache/ttl_cache.h", SRC),
                         "cache")

    def test_split_modules(self):
        cases = {
            "athena/directory.cpp": "athena.directory",
            "athena/directory.h": "athena.directory",
            "athena/node.cpp": "athena.node",
            "athena/messages.h": "athena.node",
            "net/topology.cpp": "net.topology",
            "net/network.cpp": "net.network",
            "net/packet_queue.h": "net.network",
            "decision/planner.cpp": "decision.planner",
            "decision/ordering.cpp": "decision.planner",
            "decision/algebra.h": "decision.planner",
            "decision/estimator.h": "decision.planner",
            "decision/metadata.h": "decision.planner",
            "decision/expression.cpp": "decision.expression",
            "decision/label.h": "decision.expression",
            "fault/fault_injector.cpp": "fault",
            "scenario/route_scenario.cpp": "scenario",
        }
        for rel, layer in cases.items():
            self.assertEqual(reduce.layer_of(f"{SRC}/{rel}", SRC), layer, rel)

    def test_outside_src_is_no_layer(self):
        for path in ["/usr/include/c++/12/bits/stl_vector.h",
                     "/checkout/citybench/driver.cpp",
                     f"{SRC}/dde.h",  # umbrella header, no module
                     "/elsewhere/src/athena/node.cpp"]:
            self.assertIsNone(reduce.layer_of(path, SRC), path)

    def test_unnormalised_paths(self):
        self.assertEqual(
            reduce.layer_of("/checkout/citybench/../src/athena/node.cpp",
                            SRC), "athena.node")


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(1, 101))
        self.assertEqual(reduce.percentile(values, 50), (50, 100, 50))
        self.assertEqual(reduce.percentile(values, 90), (90, 100, 10))
        self.assertEqual(reduce.percentile(list(reversed(values)), 50)[0], 50)

    def test_tail_needs_ten_beyond(self):
        with self.assertRaises(ValueError):
            reduce.percentile(list(range(100)), 99)  # 1 beyond
        value, n, beyond = reduce.percentile(list(range(1000)), 99)
        self.assertEqual((value, n, beyond), (989, 1000, 10))

    def test_empty(self):
        with self.assertRaises(ValueError):
            reduce.percentile([], 50)


class Checks(unittest.TestCase):
    def test_clean_run_passes(self):
        recs = [plugin(), ref(), plugin()]
        self.assertEqual(reduce.check(recs, quiesce=False), (3, []))

    def test_replay_mismatch_fails(self):
        recs = [plugin(), ref(), plugin(digest="other")]
        _, failures = reduce.check(recs, quiesce=False)
        self.assertEqual(len(failures), 1)
        self.assertIn("replay", failures[0])

    def test_plugin_reference_disagreement_fails(self):
        _, failures = reduce.check([plugin(events=99), ref()], False)
        self.assertIn("events", failures[0])

    def test_traced_reference_must_match_untraced(self):
        recs = [plugin(), ref(), ref(sink=1, digest="x")]
        _, failures = reduce.check(recs, False)
        self.assertEqual(len(failures), 1)
        _, failures = reduce.check([plugin(), ref(), ref(sink=1,
                                                         trace_events=0)],
                                   False)
        self.assertIn("no events", failures[0])

    def test_identity(self):
        self.assertTrue(reduce.identity_holds(ref()))
        self.assertFalse(reduce.identity_holds(ref(in_flight=1)))
        self.assertFalse(reduce.identity_holds(ref(issued=9)))

    def test_quiesce_violations_fail_only_when_quiescing(self):
        recs = [plugin(), ref(violations=2)]
        self.assertEqual(reduce.check(recs, False)[1], [])
        self.assertEqual(len(reduce.check(recs, True)[1]), 1)
        self.assertEqual(len(reduce.check([plugin(), ref()], True)[1]), 1)


class Derivations(unittest.TestCase):
    def test_e2e(self):
        lat = [float(i) for i in range(1, 1001)]
        recs = [
            plugin(seed=1, tick_s=1.0), plugin(seed=1, tick_s=3.0),
            plugin(seed=1, tick_s=2.0),
            plugin(seed=2, tick_s=2.0, events=200, resolved=6),
            ref(seed=1, latencies=lat[:500]),
            ref(seed=2, events=200, latencies=lat[500:]),
            ref(seed=2, sink=1, latencies=[0.0]),  # traced: ignored
            {"rec": "process", "peak_rss_mb": 30.5},
        ]
        m, note = reduce.derive_e2e(recs)
        # seed 1's median tick is 2.0 s: (100 + 200) events / (2 + 2) s.
        self.assertEqual(m["sim_events_per_s"], (75.0, "1/s"))
        self.assertEqual(m["decisions_per_s"], (3.0, "1/s"))
        self.assertEqual(m["setup_s"], (0.01, "s"))
        self.assertEqual(m["peak_rss_mb"], (30.5, "MB"))
        self.assertEqual(m["resolution_ratio"], (0.6, "ratio"))
        self.assertEqual(m["decision_accuracy"], (0.75, "ratio"))
        self.assertEqual(m["mb_per_decision"], (0.5, "MB"))
        self.assertEqual(m["decision_latency_p50_s"], (500.0, "s"))
        self.assertEqual(m["decision_latency_p99_s"], (990.0, "s"))
        self.assertEqual(note, {"latency_samples": 1000, "p99_beyond": 10})

    def test_split_profile(self):
        files = {
            1: ["/usr/include/c++/12/bits/stl_algo.h",
                f"{SRC}/common/flat_hash.h", f"{SRC}/athena/directory.cpp"],
            2: [f"{SRC}/decision/ordering.cpp"],
            3: [f"{SRC}/athena/node.cpp"],
            4: ["/usr/lib/libc.c"],
        }
        stacks = [(5, [1, 2, 3]), (3, [2, 3]), (2, [4])]
        self_c, incl, unattributed, total = reduce.split_profile(
            stacks, files.get, SRC)
        self.assertEqual(self_c, {"common": 5, "decision.planner": 3})
        self.assertEqual(incl["athena.node"], 8)
        self.assertEqual(incl["athena.directory"], 5)
        self.assertEqual(incl["decision.planner"], 8)
        self.assertEqual((unattributed, total), (2, 10))

    def test_layers(self):
        recs = [
            plugin(pass_="base", tick_s=1.0), plugin(pass_="sampled",
                                                      tick_s=1.5),
            plugin(pass_="sampled", tick_s=9.0),  # a later replay: unpaired
            ref(wall_s=2.0), ref(sink=1, wall_s=2.5),
        ]
        profile = ({"athena.directory": 3, "common": 1},
                   {"athena.node": 4, "decision.planner": 3}, 1, 5)
        m = reduce.derive_layers(recs, profile)
        # 1 s of tick over 100 events = 1e7 ns/event; 3 of 5 samples.
        self.assertAlmostEqual(m["athena.directory.self_ns_per_event"][0],
                               6e6)
        self.assertEqual(m["des.self_ns_per_event"][0], 0.0)
        self.assertEqual(m["athena.node.incl_share"], (0.8, "ratio"))
        self.assertEqual(m["fault.incl_share"], (0.0, "ratio"))
        self.assertEqual(m["unattributed_share"], (0.2, "ratio"))
        self.assertEqual(m["trace.overhead_ratio"], (1.5, "ratio"))
        self.assertEqual(m["obs.trace_overhead_ratio"], (1.25, "ratio"))
        self.assertEqual(m["obs.trace_events"], (40, "count"))
        self.assertEqual(m["net.drop_ratio"], (0.1, "ratio"))
        self.assertEqual(m["athena.retry_ratio"], (0.2, "ratio"))
        self.assertEqual(m["queries_failed"], (4, "count"))
        self.assertEqual(m["des.events"], (100, "count"))
        self.assertEqual(m["span.tick_s"], (1.0, "s"))
        self.assertEqual(m["span.setup_s"], (0.01, "s"))


class Manifest(unittest.TestCase):
    """BENCHMARK.json lists exactly what run.py reports."""

    @classmethod
    def setUpClass(cls):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path, encoding="utf-8") as f:
            cls.manifest = json.load(f)

    def test_workloads(self):
        self.assertEqual({w["name"] for w in self.manifest["workloads"]},
                         set(run.WORKLOADS))

    def test_metric_names_and_units(self):
        lat = [float(i) for i in range(1000)]
        e2e, _ = reduce.derive_e2e([plugin(), ref(latencies=lat),
                                    {"rec": "process", "peak_rss_mb": 1.0}])
        layers = reduce.derive_layers(
            [plugin(pass_="base"), plugin(pass_="sampled"), ref(),
             ref(sink=1)], ({}, {}, 1, 1))
        for key, derived in [("end_to_end", e2e), ("per_layer", layers)]:
            listed = {m["name"]: m["unit"] for m in self.manifest[key]}
            self.assertEqual(listed, {n: u for n, (_, u) in derived.items()},
                             key)


if __name__ == "__main__":
    unittest.main()
