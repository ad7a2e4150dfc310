#!/usr/bin/env python3
"""Measure how the suite runner calls the model: the traffic the arith and automorph mixes follow.

    python3 perfbench/traffic.py --samples 1000 --seed 7 > perfbench/traffic.json

Runs every suite through ``run_suites``, one dim at a time, under the
tracer, and counts the *outer* calls of each model, automorph and analysis
entry point: the calls made while no other traced function of the same
layer is running.  Those are the calls the suite code issues itself; a
``mul`` inside ``pow_int`` is part of that ``pow_int``, not traffic of its
own.  Exceptions of outer calls are counted by type, so the share of
typed-partial outcomes (``NonTerminatingQuotient``,
``CoefficientNotRepresentable``) is part of the record, and so are the
shapes of the operands: how many ``*`` and ``+`` calls take an integer, and
the exponents ``pow_int`` is called with.  ``workloads.py`` derives its
arith and automorph mixes from the committed ``traffic.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

import run

SPANS = (
    "model.mul",
    "model.add",
    "model.sub",
    "model.cmp",
    "model.pow_int",
    "model.divmod_floor",
    "model.root_floor",
    "automorph.build_from_e2",
    "automorph.build_from_e3",
    "automorph.apply",
    "automorph.validate",
    "analysis.e0_seq",
    "analysis.e2_seq",
    "analysis.b11_seq",
    "analysis.real_embed",
)


def measure(samples: int, seed: int) -> dict:
    import tracing
    import workloads as W

    from lexarith import backend_name, suites

    doc = {"samples": samples, "seed": seed, "backend": backend_name(), "date": time.strftime("%Y-%m-%d"), "dims": {}}
    for dim in (1, 2):
        tracer = tracing.Tracer()
        shapes = Counter()
        with tracer:
            _watch_operands(tracer, shapes)
            for name in suites.SUITES:
                W._timed(suites.run_suites, name, samples, seed, dim)
        per_span = {}
        for span in SPANS:
            raised = {t: n for (s, t), n in sorted(tracer.outer_raised.items()) if s == span}
            per_span[span] = {"calls": tracer.outer_calls.get(span, 0), "raised": raised}
        for span in ("model.mul", "model.add"):
            per_span[span]["int_operand"] = shapes[(span, "int")]
        exponents = {k: n for (span, k), n in shapes.items() if span == "model.pow_int"}
        per_span["model.pow_int"]["exponents"] = {str(k): exponents[k] for k in sorted(exponents)}
        doc["dims"][str(dim)] = per_span
    return doc


def _watch_operands(tracer, shapes):
    """Count operand shapes of outer calls, around the tracer's own wrappers."""
    from lexarith import model

    active = tracer.active

    def watch(span, fn, shape):
        def wrapper(*args):
            if not active.get("model"):
                shapes[(span, shape(*args))] += 1
            return fn(*args)

        return wrapper

    E = model.Element
    operand = lambda a, b: "int" if isinstance(b, int) else "element"  # noqa: E731
    tracer._set(E, "__mul__", watch("model.mul", E.__dict__["__mul__"], operand))
    tracer._set(E, "__add__", watch("model.add", E.__dict__["__add__"], operand))
    pow_int = model.pow_int
    tracer._rebind(pow_int, watch("model.pow_int", pow_int, lambda a, n: n))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    run.prepare_environment()
    print(json.dumps(measure(args.samples, args.seed), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
