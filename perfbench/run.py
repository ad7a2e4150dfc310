#!/usr/bin/env python3
"""Layered benchmark for lexarith.

Run from the root of a source checkout (the package is imported from
``src/`` with the pure kernel pinned by ``LEXARITH_PURE=1``):

    python3 perfbench/run.py --workload suites --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time is the median of
several fresh interpreters that import the package and build the inputs;
then passes of the workload's fixed work repeat, closed loop and untraced,
until ``--seconds`` have gone by.  ``--trace 1`` runs the same untraced
passes and then one traced pass, and reports the per-layer metrics.  Every
output is checked outside the timed region.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable table and the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
SPAWN_PROBES = 5
MIN_PASSES = 2
# the end-to-end metrics BENCHMARK.json declares: defined on every workload
# and never 0 (suite_d1_s, suite_d2_s, failed_ratio and partial_ratio are
# printed in the table only)
DECLARED_E2E = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("suites", "arith", "automorph", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare_environment():
    """Pin the pure kernel and make ``src/`` importable here and in children."""
    if not os.path.isfile(os.path.join(SRC, "lexarith", "__init__.py")):
        raise SystemExit(f"perfbench: no lexarith sources under {SRC}; run from a source checkout")
    os.environ["LEXARITH_PURE"] = "1"
    paths = [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [SRC, HERE]


# --- machine metadata ---------------------------------------------------------


def steal_ticks() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1
    except OSError:
        return -1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- machine-speed calibration ------------------------------------------------

# This VM shares its cores: the same fixed work swings between two speeds
# (up to 1.7x apart, switching within a second), and CPU time tracks wall
# time, so the swing is in the machine's speed.  A short pure-Python
# reference loop is therefore timed between operations, at most every
# TICK_S, and every operation's time is reported at reference speed:
# raw seconds * REFERENCE_S / (mean of the readings around it).
REFERENCE_S = 0.00053  # the reference loop on the recorded machine's fast state
TICK_S = 0.02


def reference_loop(n: int = 1000) -> int:
    """Fixed interpreter work shaped like the kernel: tuples, gcd, a dict."""
    from math import gcd

    acc = {}
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        num, den = x % 997 + 1, x % 89 + 1
        g = gcd(num, den)
        key = (num // g, den // g)
        acc[key] = acc.get(key, 0) + 1
    return len(acc)


def reference_seconds() -> float:
    """The better of two reference loops: the machine's current speed."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Reference readings taken between the operations of one pass."""

    def __init__(self):
        self.marks = []  # (operations done, reference seconds)
        self.last = 0.0

    def read(self, done: int) -> None:
        self.marks.append((done, reference_seconds()))
        self.last = time.perf_counter()

    def tick(self, done: int) -> None:
        if time.perf_counter() - self.last >= TICK_S:
            self.read(done)

    def scaled(self, seconds: list) -> list:
        """Each operation's seconds at reference speed."""
        out = []
        k = 0
        for i, t in enumerate(seconds):
            while self.marks[k + 1][0] < i + 1:
                k += 1
            ref = (self.marks[k][1] + self.marks[k + 1][1]) / 2
            out.append(t * REFERENCE_S / ref)
        return out


# --- timing helpers -----------------------------------------------------------


def spawn_ms(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, in milliseconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return (time.perf_counter() - t0) * 1e3


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Interpreter start to inputs built, in a fresh process, at reference speed.

    The probe prints the monotonic time at which its inputs were ready and
    then a reference reading of its own; the set-up is scaled by the mean of
    that reading and one taken here just before the probe starts.
    """
    before = reference_seconds()
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    ready, ref = (float(x) for x in out.split()[-2:])
    return (ready - t0) * REFERENCE_S / ((before + ref) / 2)


def tail_percentile(n: int) -> int:
    """The highest whole percentile, at most 99, with at least 10 of n samples beyond it."""
    return max(q for q in range(1, 100) if q == 1 or n * (100 - q) >= 1000)


def latency_stats(passes, weights) -> dict:
    """p50 and tail latency (ms) of each pass, median over the passes.

    Entry i of a pass counts as ``weights[i]`` operations of equal latency
    (a suite call as its cases).  The tail percentile is fixed by the size
    of one pass, so it does not change with the number of passes a run
    happens to make; taking the median of the passes' percentiles, as for
    ``wall_s``, keeps one slow stretch of a pass from setting them.
    """
    n = sum(weights)
    pct = tail_percentile(n)
    p50, tail = [], []
    for p in passes:
        ms = [t * 1e3 / k for t, k in zip(p, weights) for _ in range(k)]
        cuts = statistics.quantiles(ms, n=100, method="inclusive")
        p50.append(cuts[49])
        tail.append(cuts[pct - 1])
    return {"p50": statistics.median(p50), "tail": statistics.median(tail), "tail_pct": pct, "per_pass": n}


# --- the run ------------------------------------------------------------------


def measured_pass(w):
    """One pass: (outcomes, per-operation seconds at reference speed, readings)."""
    speed = Speedometer()
    speed.read(0)
    outcomes = w.run_pass(speed.tick)
    speed.read(len(outcomes))
    return outcomes, speed.scaled([o.seconds for o in outcomes]), [r for _, r in speed.marks]


def timed_passes(w, seconds: float):
    """Repeat the fixed work until ``seconds`` have gone by (at least MIN_PASSES).

    Only the latencies and check results of a pass are kept, so memory does
    not grow with the number of passes.
    """
    passes, results, refs, raw = [], [], [], []
    spent = 0.0
    while spent < seconds or len(passes) < MIN_PASSES:
        t0 = time.perf_counter()
        outcomes, scaled, readings = measured_pass(w)
        spent += time.perf_counter() - t0
        results.append(w.check(outcomes))
        passes.append(array("d", scaled))
        raw.append(sum(o.seconds for o in outcomes))
        refs.extend(readings)
        del outcomes
    return passes, [sum(p) for p in passes], results, refs, raw


def run(args) -> dict:
    import workloads as W

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }
    steal0 = steal_ticks()
    setups = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    from lexarith import backend_name

    meta["backend"] = backend_name()
    w = W.WORKLOADS[args.workload](args.seed)
    if args.workload == "cli":
        w.open(ROOT)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        passes, walls, checks, refs, raw = timed_passes(w, args.seconds)
        meta["measure_wall_s"] = time.perf_counter() - t0
        meta["measure_cpu_s"] = time.process_time() - cpu0
        # the high-water mark of the measured passes, before any statistics or tracing
        rss_kb = w.child_rss_kb if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        traced = trace_run(w, args, passes, walls) if args.trace else None
    finally:
        if args.workload == "cli":
            w.close()
    meta["steal_ticks"] = steal_ticks() - steal0 if steal0 >= 0 else -1
    meta["passes"] = len(walls)
    meta["reference_s"] = {"min": min(refs), "median": statistics.median(refs), "max": max(refs)}
    meta["raw_wall_s"] = statistics.median(raw)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    partial = sum(c.partial for c in checks)
    notes = [n for c in checks for n in c.notes][:20]
    if args.workload == "suites":
        digests = {c.digest for c in checks}
        meta["suite_sha256"] = sorted(digests)
        meta["suite_hash_pinned"] = w.pinned
        if len(digests) != 1:
            failed += 1
            notes.append("suite output differs between passes")
        if traced is not None and traced["check"].digest not in digests:
            failed += 1
            notes.append("traced suite hash differs from the untraced one")
    else:
        # the same work gives the same outcome, typed partials included, every pass
        digests = {c.outcomes for c in checks}
        meta["outcomes_sha256"] = sorted(digests)
        meta["partial_per_pass"] = sorted({c.partial for c in checks})
        meta["outcomes_pinned"] = w.pin
        if len(digests) != 1:
            failed += 1
            notes.append("operation outcomes differ between passes")
        if traced is not None and traced["check"].outcomes not in digests:
            failed += 1
            notes.append("traced operation outcomes differ from the untraced ones")
    if traced is not None:
        attempted += traced["check"].attempted
        failed += traced["check"].failed
        notes += traced["check"].notes

    # operations of one pass: suite cases, or the workload's operations
    ops = checks[0].attempted if args.workload == "suites" else w.ops_per_pass
    lat = latency_stats(passes, w.op_weights())
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (ops / statistics.median(walls), "1/s"),
        "op_p50_ms": (lat["p50"], "ms"),
        "op_p99_ms": (lat["tail"], "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "failed_ratio": (failed / attempted if attempted else 1.0, "ratio"),
        "partial_ratio": (partial / attempted if attempted else 0.0, "ratio"),
    }
    if args.workload == "suites":
        d1 = [sum(t for (name, dim), t in zip(w.ops, p) if dim == 1) for p in passes]
        d2 = [sum(t for (name, dim), t in zip(w.ops, p) if dim == 2) for p in passes]
        e2e["suite_d1_s"] = (statistics.median(d1), "s")
        e2e["suite_d2_s"] = (statistics.median(d2), "s")
    # each class of operations' share of the measured time, over all passes
    by_class = {}
    for p in passes:
        for op, t in zip(w.ops, p):
            cls = w.op_class(op)
            by_class[cls] = by_class.get(cls, 0.0) + t
    total = sum(by_class.values())
    meta["class_share"] = {cls: round(t / total, 4) for cls, t in sorted(by_class.items(), key=lambda kv: -kv[1])}
    meta["samples"] = {
        "setup_probes": len(setups),
        "passes": len(walls),
        "ops_per_pass": w.ops_per_pass,
        "op_p99_percentile": lat["tail_pct"],
        "op_latency_samples_per_pass": lat["per_pass"],
    }
    return {
        "meta": meta,
        "e2e": e2e,
        "layers": traced["layers"] if traced else None,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }


def trace_run(w, args, passes, walls) -> dict:
    """One traced pass of the same work, plus the per-suite untraced times."""
    import tracing
    import workloads as W

    layers = {}
    untraced = statistics.median(walls)
    if args.workload == "suites":
        for i, (name, dim) in enumerate(w.ops):
            layers[f"suites.{name}.d{dim}.wall_s"] = (statistics.median(p[i] for p in passes), "s")
    else:
        for name in tracing.suite_metric_names():
            layers[name] = (0.0, "s")
    if args.workload == "cli":
        # cli.main is traced in this process; the untraced base is in-process too
        w.runner = W.in_process_runner()
        untraced = sum(measured_pass(w)[1])
    tracer = tracing.Tracer()
    with tracer:
        outcomes, scaled, _ = measured_pass(w)
    traced_wall = sum(scaled)
    check = w.check(outcomes)
    layers.update(tracing.layer_metrics(tracer))
    layers["cli.import_ms"] = (statistics.median(spawn_ms("import lexarith.cli") for _ in range(SPAWN_PROBES)), "ms")
    layers["cli.interp_ms"] = (statistics.median(spawn_ms("pass") for _ in range(SPAWN_PROBES)), "ms")
    layers["trace.overhead_ratio"] = (traced_wall / untraced, "ratio")
    return {"layers": layers, "check": check}


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    if args.setup_probe:
        import workloads as W

        W.WORKLOADS[args.workload](args.seed)
        ready = time.monotonic()
        print(ready, reference_seconds())
        return 0
    result = run(args)
    shown = result["layers"] if args.trace else {k: result["e2e"][k] for k in DECLARED_E2E}
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in result["e2e"].items():
        print(f"{name:>16} {value:14.6g} {unit}")
    if result["layers"]:
        for name, (value, unit) in result["layers"].items():
            print(f"{name:>40} {value:14.6g} {unit}")
    for note in result["notes"]:
        print(f"# FAILED {note}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
