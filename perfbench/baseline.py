#!/usr/bin/env python3
"""Time every suite once, per dim, at a given size and seed (pure kernel).

This reproduces the ROADMAP's `suite all` table, e.g.

    python3 perfbench/baseline.py --samples 1000 --seed 7

prints one JSON object: per-suite seconds, per-dim totals, violations and
the SHA-256 of the suite JSON documents, plus the machine it ran on.  Times
are raw wall seconds; ``reference_s`` gives the reference-loop readings of
``run.py`` before and after, so the machine's speed at the time is on record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    run.prepare_environment()
    import workloads as W

    from lexarith import backend_name

    w = W.SuitesWorkload(0, samples=args.samples, suite_seed=args.seed)
    ref_before = run.reference_seconds()
    outcomes = w.run_pass()
    ref_after = run.reference_seconds()
    check = w.check(outcomes)
    per_suite = {f"{name}.d{dim}": round(o.seconds, 3) for (name, dim), o in zip(w.ops, outcomes)}
    doc = {
        "samples": args.samples,
        "seed": args.seed,
        "backend": backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": run.cpu_model(),
        "date": time.strftime("%Y-%m-%d"),
        "dim1_s": round(sum(o.seconds for (_, d), o in zip(w.ops, outcomes) if d == 1), 2),
        "dim2_s": round(sum(o.seconds for (_, d), o in zip(w.ops, outcomes) if d == 2), 2),
        "reference_s": [round(ref_before, 5), round(ref_after, 5)],
        "violations": check.failed,
        "sha256": check.digest,
        "per_suite_s": per_suite,
    }
    print(json.dumps(doc, indent=2))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
