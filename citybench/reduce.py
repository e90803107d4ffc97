"""Checks and metric derivations for the city benchmark.

Everything here is pure: it reads the driver's per-execution records (one
dict per JSON line, see driver.cpp) and returns numbers, so the unit tests
in test_reduce.py can pin it without building the simulator.
"""

import math
import os
import statistics

# Self-time layers reported as <layer>.self_ns_per_event, in report order.
SELF_LAYERS = [
    "des", "net.network", "net.topology", "athena.node", "athena.directory",
    "decision.planner", "decision.expression", "coverage", "cache", "world",
    "fault", "obs", "common", "scenario",
]
# Layers whose inclusive share is reported as <layer>.incl_share.
INCL_LAYERS = ["athena.node", "decision.planner", "fault"]

# decision/ files that belong to the planner; the rest of decision/ is the
# expression layer (relevant_labels and friends).
_PLANNER_STEMS = {"planner", "ordering", "algebra", "estimator", "metadata"}

# Fields the plugin's outcome and the reference result must agree on.
CROSS_FIELDS = ["events", "queries", "resolved", "failed", "crashed",
                "total_mb", "accuracy", "retries", "refetches", "failovers",
                "node_restarts"]

# Counts taken from the reference results: metric name -> record field.
COUNT_FIELDS = {
    "des.events": "events",
    "net.packets": "packets",
    "net.queue_drops": "queue_drops",
    "athena.object_requests": "object_requests",
    "athena.refetches": "refetches",
    "athena.object_cache_hits": "object_cache_hits",
    "athena.label_cache_hits": "label_cache_hits",
    "athena.interest_aggregations": "interest_aggregations",
    "fault.reroutes": "reroutes",
    "athena.node_restarts": "node_restarts",
    "athena.recovery_reissues": "recovery_reissues",
}


def layer_of(path, src_root):
    """Maps a source file to its layer, or None when it is not under src/.

    The layer is the src/<module>/ directory, split further where one
    module holds two layers: net/ (topology vs the packet network),
    athena/ (directory vs the node's message handlers) and decision/
    (planner vs expression).
    """
    rel = os.path.relpath(os.path.normpath(path), os.path.normpath(src_root))
    parts = rel.split(os.sep)
    if len(parts) < 2 or parts[0] in ("..", ""):
        return None
    module = parts[0]
    stem = os.path.splitext(parts[-1])[0]
    if module == "net":
        return "net.topology" if stem == "topology" else "net.network"
    if module == "athena":
        return "athena.directory" if stem == "directory" else "athena.node"
    if module == "decision":
        return "decision.planner" if stem in _PLANNER_STEMS \
            else "decision.expression"
    return module


def percentile(values, q):
    """Nearest-rank q-th percentile with its sample count.

    Returns (value, n, beyond): `beyond` is how many samples lie above the
    rank. Raises ValueError unless at least ten do, the rule for reporting
    a tail percentile.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if q < 100 and beyond < 10:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond} beyond it (need 10)")
    return sorted(values)[rank - 1], n, beyond


def by_seed(records, rec):
    """Records of type `rec`, grouped by seed in order."""
    out = {}
    for r in records:
        if r["rec"] == rec:
            out.setdefault(r["seed"], []).append(r)
    return out


def identity_holds(ref):
    """queries == resolved + failed + shed + rejected + crashed + in_flight,
    and every scheduled query was issued."""
    terminal = (ref["resolved"] + ref["failed"] + ref["shed"] +
                ref["rejected"] + ref["crashed"] + ref["in_flight"])
    return ref["queries"] == terminal and ref["issued"] == ref["queries"]


def check(records, quiesce):
    """Runs every output check. Returns (attempted, failures) where
    attempted counts executions and failures lists one line per failed
    execution."""
    failures = []
    plugins = by_seed(records, "plugin")
    refs = by_seed(records, "reference")
    attempted = sum(len(v) for v in plugins.values()) + \
        sum(len(v) for v in refs.values())
    if not plugins or not refs:
        failures.append("no executions recorded")
        return max(attempted, 1), failures
    for seed, runs in plugins.items():
        first = runs[0]
        for r in runs[1:]:
            if r["digest"] != first["digest"]:
                failures.append(f"seed {seed}: {r['pass']} replay digest "
                                f"{r['digest']} != {first['digest']}")
        ref = refs.get(seed)
        if not ref:
            failures.append(f"seed {seed}: no reference execution")
            continue
        for f in CROSS_FIELDS:
            if first[f] != ref[0][f]:
                failures.append(f"seed {seed}: plugin {f}={first[f]} != "
                                f"reference {ref[0][f]}")
    for seed, runs in refs.items():
        for r in runs:
            if r["digest"] != runs[0]["digest"]:
                failures.append(f"seed {seed}: traced reference digest "
                                "differs from the untraced one")
            if r["sink"] and r["trace_events"] == 0:
                failures.append(f"seed {seed}: the TraceSink saw no events")
            if not identity_holds(r):
                failures.append(f"seed {seed}: query outcomes do not add up")
            if quiesce and r["violations"] != 0:
                failures.append(f"seed {seed}: {r['violations']} quiesce "
                                "invariant violations")
    return attempted, failures


def _untraced_refs(records):
    return [r for r in records if r["rec"] == "reference" and not r["sink"]]


def derive_e2e(records):
    """End-to-end metrics: throughput from the plugin's tick() wall time
    (per seed, the median over its executions), set-up time as the median
    over every execution, and the simulated outcome of each seed once."""
    ticks, events, resolved = [], [], []
    for runs in by_seed(records, "plugin").values():
        ticks.append(statistics.median(r["tick_s"] for r in runs))
        events.append(runs[0]["events"])
        resolved.append(runs[0]["resolved"])
    setups = [r["setup_s"] for r in records if r["rec"] == "plugin"]
    refs = _untraced_refs(records)
    latencies = [x for r in refs for x in r["latencies"]]
    n_resolved = sum(r["resolved"] for r in refs)
    p50, n, _ = percentile(latencies, 50)
    p99, _, beyond = percentile(latencies, 99)
    rss = [r["peak_rss_mb"] for r in records if r["rec"] == "process"]
    return {
        "sim_events_per_s": (sum(events) / sum(ticks), "1/s"),
        "decisions_per_s": (sum(resolved) / sum(ticks), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "resolution_ratio": (n_resolved / sum(r["issued"] for r in refs),
                             "ratio"),
        "decision_accuracy": (sum(r["correct"] for r in refs) /
                              sum(r["audited"] for r in refs), "ratio"),
        "mb_per_decision": (sum(r["total_mb"] for r in refs) / n_resolved,
                            "MB"),
        "decision_latency_p50_s": (p50, "s"),
        "decision_latency_p99_s": (p99, "s"),
    }, {"latency_samples": n, "p99_beyond": beyond}


def derive_counts(records):
    """Per-layer counts and ratios from the untraced reference results."""
    refs = _untraced_refs(records)
    total = {f: sum(r[f] for r in refs)
             for f in set(COUNT_FIELDS.values()) |
             {"dropped", "retries", "queries", "resolved"}}
    out = {name: (total[field], "count")
           for name, field in COUNT_FIELDS.items()}
    out["net.drop_ratio"] = (total["dropped"] / total["packets"], "ratio")
    out["athena.retry_ratio"] = (total["retries"] /
                                 total["object_requests"], "ratio")
    out["queries"] = (total["queries"], "count")
    out["queries_failed"] = (total["queries"] - total["resolved"], "count")
    out["decision_latency_samples"] = (
        sum(len(r["latencies"]) for r in refs), "count")
    return out


def split_profile(stacks, frames_of, src_root):
    """Attributes sampled stacks to layers.

    `stacks` is a list of (count, [address, ...]) innermost first;
    `frames_of(address)` gives that address's source files, innermost
    inline frame first. A sample's self layer is the layer of its innermost
    frame under src/; it counts toward a layer's inclusive share when any
    of its frames is in that layer. Returns (self_counts, incl_counts,
    unattributed, total).
    """
    self_counts, incl_counts = {}, {}
    unattributed = total = 0
    for count, addrs in stacks:
        total += count
        layers = [layer for a in addrs for f in frames_of(a)
                  if (layer := layer_of(f, src_root)) is not None]
        if not layers:
            unattributed += count
            continue
        self_counts[layers[0]] = self_counts.get(layers[0], 0) + count
        for layer in set(layers):
            incl_counts[layer] = incl_counts.get(layer, 0) + count
    return self_counts, incl_counts, unattributed, total


def derive_layers(records, profile):
    """Per-layer metrics of a traced run. `profile` is split_profile's
    result. Self time is scaled by the unsampled plugin pass's tick time
    per event, so the sampler's own overhead does not inflate it."""
    self_counts, incl_counts, unattributed, total = profile
    if total == 0:
        raise ValueError("the sampler took no samples")
    base = [r for r in records if r["rec"] == "plugin" and r["pass"] == "base"]
    ns_per_event = 1e9 * sum(r["tick_s"] for r in base) / \
        sum(r["events"] for r in base)
    # Spans around the driver's own calls into the plugin, unsampled pass.
    out = {f"span.{call}_s": (statistics.median(r[f"{call}_s"] for r in base),
                              "s")
           for call in ("setup", "tick", "outcome")}
    for layer in SELF_LAYERS:
        share = self_counts.get(layer, 0) / total
        out[f"{layer}.self_ns_per_event"] = (share * ns_per_event, "ns")
    for layer in INCL_LAYERS:
        out[f"{layer}.incl_share"] = (incl_counts.get(layer, 0) / total,
                                      "ratio")
    out["unattributed_share"] = (unattributed / total, "ratio")

    sampled = {}  # each seed's first sampled execution, paired with base
    for r in records:
        if r["rec"] == "plugin" and r["pass"] == "sampled":
            sampled.setdefault(r["seed"], r)
    out["trace.overhead_ratio"] = (
        sum(sampled[r["seed"]]["tick_s"] for r in base) /
        sum(r["tick_s"] for r in base), "ratio")
    refs = [r for r in records if r["rec"] == "reference"]
    out["obs.trace_overhead_ratio"] = (
        sum(r["wall_s"] for r in refs if r["sink"]) /
        sum(r["wall_s"] for r in refs if not r["sink"]), "ratio")
    out["obs.trace_events"] = (sum(r["trace_events"] for r in refs),
                               "count")
    out["trace.samples"] = (total, "count")
    out.update(derive_counts(records))
    return out
