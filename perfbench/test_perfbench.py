"""Tests of the benchmark itself.

Run from the repository root:

    LEXARITH_PURE=1 PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from lexarith import model, oracle, suites  # noqa: E402
from lexarith.errors import CoefficientNotRepresentable  # noqa: E402


def _traced_counts(make, runner_factory=None):
    w = make()
    tracer = tracing.Tracer()
    if runner_factory is None:
        with tracer:
            outcomes = w.run_pass()
    else:
        w.open(HERE)
        w.runner = runner_factory()
        try:
            with tracer:
                outcomes = w.run_pass()
        finally:
            w.close()
    return tracer.calls, tracer.counters, w.check(outcomes)


def test_suite_layer_counts_repeat_exactly():
    first = _traced_counts(lambda: W.SuitesWorkload(0, samples=4))
    second = _traced_counts(lambda: W.SuitesWorkload(0, samples=4))
    assert first[0] == second[0] and first[1] == second[1]
    assert first[0]["oracle.check_witness.l4"] > 0 and first[0]["kernel.terms_mul"] > 0
    assert first[2].failed == 0


def test_cli_layer_counts_repeat_exactly():
    first = _traced_counts(lambda: W.CliWorkload(3), W.in_process_runner)
    second = _traced_counts(lambda: W.CliWorkload(3), W.in_process_runner)
    assert first[0] == second[0] and first[1] == second[1]
    assert first[0]["cli.main"] == W.CliWorkload(3).ops_per_pass
    assert first[0]["jsonio.descriptor_from_json"] > 0
    assert first[2].failed == 0


def test_bindings_are_restored():
    before = tracing.bindings_snapshot()
    original_pow = model.pow_int
    tracer = tracing.Tracer().install()
    try:
        assert oracle.pow_int is not original_pow
        assert tracing.bindings_snapshot() != before
    finally:
        tracer.uninstall()
    assert tracing.bindings_snapshot() == before
    assert oracle.pow_int is original_pow


def test_from_imports_are_rebound_everywhere():
    tracer = tracing.Tracer().install()
    try:
        wrapped = model.divmod_floor
        assert suites.divmod_floor is wrapped
        from lexarith import analysis, cli

        assert cli.root_floor is model.root_floor
        assert analysis.pow_int is model.pow_int is oracle.pow_int
    finally:
        tracer.uninstall()


def test_traced_functions_reraise_unchanged():
    a = model.Element([((2,), 2)], 1)  # 2*t^2: no rational square root of 2
    tracer = tracing.Tracer().install()
    try:
        with pytest.raises(CoefficientNotRepresentable):
            model.root_floor(a, 2)
    finally:
        tracer.uninstall()
    assert tracer.partial("model.root_floor") == 1
    assert tracer.calls["model.root_floor"] == 1


def _arith_pass(seed=2):
    w = W.ArithWorkload(seed, total=2000)
    outcomes = w.run_pass()
    clean = w.check(outcomes)
    assert clean.failed == 0 and clean.attempted == w.ops_per_pass
    return w, outcomes, clean


def _first(w, outcomes, kind, outcome="ok"):
    return next(i for i, (op, o) in enumerate(zip(w.ops, outcomes)) if op[0] == kind and o.kind == outcome)


def test_injected_wrong_result_counts_as_failed():
    w, outcomes, _ = _arith_pass()
    idx = _first(w, outcomes, "divmod")
    q, r = outcomes[idx].value
    outcomes[idx] = W.Outcome("ok", (q + 1, r), outcomes[idx].seconds)
    broken = w.verify(outcomes)
    assert broken.failed == 1
    assert broken.failed / broken.attempted > 0


def test_spurious_partial_counts_as_failed():
    w, outcomes, _ = _arith_pass()
    for kind in ("mul", "cmp", "pow", "root"):  # kinds that always give a result here
        broken = list(outcomes)
        broken[_first(w, outcomes, kind)] = W.Outcome("partial", "NonTerminatingQuotient")
        assert w.verify(broken).failed == 1, kind
    # a budget-exhausting root must stay partial, and partial of the right type
    idx = _first(w, outcomes, "root-column", "partial")
    broken = list(outcomes)
    broken[idx] = W.Outcome("ok", w.ops[idx][1])
    assert w.verify(broken).failed == 1
    broken[idx] = W.Outcome("partial", "CoefficientNotRepresentable")
    assert w.verify(broken).failed == 1


def test_later_pass_is_compared_with_the_verified_one():
    w, _, clean = _arith_pass()
    again = w.run_pass()
    res = w.check(again)
    assert res.failed == 0 and (res.partial, res.outcomes) == (clean.partial, clean.outcomes)
    idx = _first(w, again, "add")
    again[idx] = W.Outcome("ok", again[idx].value + 1)
    assert w.check(again).failed == 1


def test_partial_count_differing_from_the_pin_counts_as_failed():
    w, outcomes, clean = _arith_pass()
    assert clean.partial > 0
    w.pin = {"partial": clean.partial, "sha256": clean.outcomes}
    assert w.check(outcomes).failed == 0
    w.pin = {"partial": clean.partial + 1, "sha256": clean.outcomes}
    assert w.check(outcomes).failed == 1


def test_b11_partial_only_where_due():
    w = W.AutomorphWorkload(2, total=400)
    outcomes = w.run_pass()
    assert w.check(outcomes).failed == 0
    due = [op[0] == "b11" and o.kind == "partial" for op, o in zip(w.ops, outcomes)]
    ok = [op[0] == "b11" and o.kind == "ok" for op, o in zip(w.ops, outcomes)]
    assert any(due) and any(ok)
    broken = list(outcomes)
    broken[ok.index(True)] = W.Outcome("partial", "CoefficientNotRepresentable")
    assert w.verify(broken).failed == 1


def test_suite_violation_counts_as_failed():
    w = W.SuitesWorkload(0, samples=2)
    outcomes = w.run_pass()
    assert w.check(outcomes).failed == 0
    outcomes[0].value[0].violations.append({"case": 0, "law": "injected", "detail": ""})
    assert w.verify(outcomes).failed == 1


def test_cli_wrong_exit_code_counts_as_failed():
    w = W.CliWorkload(1)
    w.open(HERE)
    w.runner = W.in_process_runner()
    try:
        outcomes = w.run_pass()
    finally:
        w.close()
    assert w.check(outcomes).failed == 0
    code, out, err = outcomes[0].value  # an eval request: exit 0 only
    broken = list(outcomes)
    broken[0] = W.Outcome("ok", (1, out, err), 0.0)
    assert w.verify(broken).failed == 1

    def first(kind, code):
        return next(i for i, (req, o) in enumerate(zip(w.ops, outcomes)) if req.kind == kind and o.value[0] == code)

    # a divmod whose quotient ends within the budget must not give exit 3
    broken = list(outcomes)
    broken[first("divmod", 0)] = W.Outcome("partial", (3, '{"error": "NonTerminatingQuotient"}', ""), 0.0)
    assert w.verify(broken).failed == 1
    # a root whose leading coefficient has no root must give exit 3
    broken = list(outcomes)
    broken[first("root", 3)] = W.Outcome("ok", (0, '{"value": "1"}', ""), 0.0)
    assert w.verify(broken).failed == 1


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.DECLARED_E2E)

    names = tracing.suite_metric_names() + list(tracing.layer_metrics(tracing.Tracer())) + [
        "cli.import_ms",
        "cli.interp_ms",
        "trace.overhead_ratio",
    ]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert len(names) <= 128


def test_apportion_keeps_the_total_and_every_measured_kind():
    parts = W.apportion({"a": 700, "b": 299, "c": 1, "d": 0}, 100, at_least=1)
    assert parts == {"a": 70, "b": 30, "c": 1}
    assert sum(W.apportion({"x": 1, "y": 1, "z": 1}, 10).values()) == 10


def test_latency_counts_a_suite_call_as_its_cases():
    stats = run.latency_stats([[2.0, 0.3, 0.0]], [2, 1, 0])  # 1000, 1000 and 300 ms per case
    assert stats["per_pass"] == 3 and stats["p50"] == 1000.0
