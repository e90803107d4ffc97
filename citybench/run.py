#!/usr/bin/env python3
"""The city benchmark: one command, three workloads.

    python3 citybench/run.py --workload city_lvfl --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Builds citybench_driver (this directory's
CMake package, which compiles ../src) into $CARGO_TARGET_DIR/citybench
(default .bench_build/citybench), runs the workload's seeds serially on one
thread, checks the outputs, prints every metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(stack-sampled, see README.md). Exits nonzero without a result when the
build, the driver or the profiler fails.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import reduce  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The ROADMAP city world: 20x20 grid, 160 nodes, 4 queries per node, open
# per-node Poisson arrivals every 15 s on average over a 600 s horizon.
CITY = {
    "grid_width": "20", "grid_height": "20", "node_count": "160",
    "queries_per_node": "4", "arrival": "poisson",
    "mean_interarrival_s": "15", "horizon_s": "600",
}

# name -> (extra spec keys, simulation seeds per untraced run). The
# simulated metrics vary a lot from one simulation seed to the next (a
# seed's mb_per_decision and median latency spread by ~30%), so a run pools
# enough seeds to keep its figures steady across --seed values.
WORKLOADS = {
    # The planner's label-metadata path: Directory::meta/retrieval_cost
    # under the ordering sort.
    "city_lvfl": ({"scheme": "lvfl"}, 20),
    # Same world and seeds, every covering source in declared order: no
    # metadata sort, twice the events; the control for planner work.
    "city_cmp": ({"scheme": "cmp"}, 20),
    # city_lvfl under cold crash churn with recovery and a
    # mid-run disruption with invalidation, drained to quiescence: every
    # fault transition recomputes routes.
    "city_churn": ({
        "scheme": "lvfl",
        "chaos_window_end_s": "600",
        "chaos_crashes_per_node_min": "0.02",
        "chaos_restart_policy": "cold",
        "fault_crash_recovery": "true",
        "disruption_at_s": "300",
        "broadcast_invalidation": "true",
        "run_to_quiescence": "true",
    }, 10),
}

# A traced run profiles the first few of the workload's seeds.
TRACE_SEEDS = 4
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"citybench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the driver; returns its path."""
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "citybench")
    binary = os.path.join(out, "citybench_driver")
    steps = []
    # A failed configure leaves CMakeCache.txt but no build system behind.
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "citybench_driver",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout + res.stderr)
            fail(f"build step failed: {' '.join(cmd)}")
    return binary


def sim_seeds(seed, count):
    rng = random.Random(f"citybench:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def run_driver(binary, mode, spec, seeds, seconds):
    cmd = [binary, "--mode", mode, "--seconds", str(seconds),
           "--seeds", ",".join(map(str, seeds))]
    for key, value in spec.items():
        cmd += ["--set", f"{key}={value}"]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail(f"driver exited with {res.returncode}")
    return [json.loads(line) for line in res.stdout.splitlines() if line]


def symbolize(binary, addresses):
    """address -> source files of its inline chain, innermost first."""
    if shutil.which("addr2line") is None:
        fail("addr2line not found; the traced run cannot attribute samples")
    addrs = sorted(set(addresses))
    res = subprocess.run(["addr2line", "-e", binary, "-a", "-i", "-p"],
                         input="".join(f"{a:#x}\n" for a in addrs),
                         capture_output=True, text=True)
    if res.returncode != 0:
        fail(f"addr2line failed: {res.stderr.strip()}")
    frames, current = {}, None
    for line in res.stdout.splitlines():
        if line.startswith("0x"):
            head, _, loc = line.partition(": ")
            current = frames.setdefault(int(head, 16), [])
        elif current is not None and "(inlined by)" in line:
            loc = line.split("(inlined by)", 1)[1].strip()
        else:
            continue
        path = loc.split(" (discriminator")[0].rpartition(":")[0]
        if path and path != "??":
            current.append(path)
    known = sum(1 for a in addrs if frames.get(a))
    if len(frames) != len(addrs) or known < 0.9 * len(addrs):
        fail(f"only {known} of {len(addrs)} sampled addresses have line "
             "info; build the driver with -g (RelWithDebInfo)")
    return frames


def profile(binary, records):
    stacks = [(r["n"], r["f"]) for r in records if r["rec"] == "stack"]
    frames = symbolize(binary, [a for _, f in stacks for a in f])
    return reduce.split_profile(stacks, lambda a: frames.get(a, []),
                                os.path.join(ROOT, "src"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    extra, count = WORKLOADS[args.workload]
    spec = {**CITY, **extra}
    quiesce = spec.get("run_to_quiescence") == "true"
    binary = build()
    seeds = sim_seeds(args.seed, count)
    if args.trace:
        seeds = seeds[:TRACE_SEEDS]
    mode = "trace" if args.trace else "e2e"
    records = run_driver(binary, mode, spec, seeds, args.seconds)

    attempted, failures = reduce.check(records, quiesce)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    if args.trace:
        metrics = reduce.derive_layers(records, profile(binary, records))
    else:
        metrics, note = reduce.derive_e2e(records)

    print(f"# {args.workload} seed={args.seed} sim_seeds={seeds} "
          f"executions={attempted} checks_failed={len(failures)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        s = next(r for r in records if r["rec"] == "sampler")
        print(f"# profile: {s['samples']} samples every "
              f"{s['interval_ns'] / 1000:g} us of tick(), {s['dropped']} "
              f"dropped, {s['unwind_failures']} unwinds stopped at the leaf")
    else:
        print(f"# decision latency percentiles over {note['latency_samples']} "
              f"resolved queries; {note['p99_beyond']} lie beyond p99")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
