"""Acceptance gate.

One test per criterion, each printing a PASS/FAIL line.  All arithmetic is
exact rational, so every check is equality or strict inequality with no
tolerance; the only numeric budgets are sample counts and wall-clock caps.

Run with output:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import time

import pytest

from lexarith import analysis, automorph, equiv, oracle, suites
from lexarith.cli import main as cli_main
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import parse_element

SEED = 7


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {tag} - {desc}"
    if extra:
        line += f" [{extra}]"
    print(line)
    assert ok, line


def _no_violations(results) -> tuple:
    bad = [v for r in results for v in r.violations]
    cases = sum(r.cases for r in results)
    return not bad, cases, bad[:3]


def test_criterion_1_algebra_and_order():
    t0 = time.perf_counter()
    results = [suites.suite_algebra(1000, SEED, dim) for dim in (1, 2)]
    elapsed = time.perf_counter() - t0
    ok, cases, bad = _no_violations(results)
    ok = ok and elapsed < 10.0
    _report(1, "semiring, order-translation and discreteness laws, 1000 samples per dim",
            ok, f"{cases} checks in {elapsed:.2f}s; first violations: {bad}")


def test_criterion_2_refinement_chain():
    results = [suites.suite_refinement(1000, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    positives = {k: v for r in results for k, v in r.stats.items()}
    nonvacuous = all(positives.get(f"positive_l{k}", 0) > 0 for k in range(5))
    _report(2, "each level refines the next on 1000 seeded pairs per dim",
            ok and nonvacuous, f"{cases} implications; positives per level: {positives}")


def test_criterion_3_convexity_and_closure():
    results = [suites.suite_convexity(500, SEED, dim) for dim in (1, 2)]
    results += [suites.suite_closure_add(500, SEED, dim) for dim in (1, 2)]
    results += [suites.suite_closure_mul(500, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    _report(3, "convexity on 500 triples per level; +/* closure on 500 quadruples",
            ok, f"{cases} checks; first violations: {bad}")


def test_criterion_4_decider_oracle_agreement():
    results = [suites.suite_agreement(500, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    _report(4, "every positive witness passes the definitional check; minimal bounds bracket",
            ok, f"{cases} checks across 500 pairs per dim; first violations: {bad}")


def test_criterion_5_strict_separation():
    results = [suites.suite_separation(1, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    exhibits = [e for r in results for e in r.stats["exhibits"]]
    strict_levels = {(e["strict_in"], e["holds_at"]) for e in exhibits}
    expected = {(0, 1), (1, 2), (2, 3), (3, 4)}
    ok = ok and expected <= strict_levels
    _report(5, "concrete pairs certify each strict inclusion, verified definitionally",
            ok, f"exhibits: {[(e['a'], e['b']) for e in exhibits]}")


def test_criterion_6_constructive_orbit_equivalence():
    t0 = time.perf_counter()
    results = [
        suites.suite_auto_e2(100, SEED, 1, probe_pairs=1000),
        suites.suite_auto_e2(100, SEED, 2, probe_pairs=1000),
        suites.suite_auto_e3(200, SEED, 2, probe_pairs=1000),
    ]
    elapsed = time.perf_counter() - t0
    ok, cases, bad = _no_violations(results)
    built = sum(r.stats.get("built", 0) for r in results)
    pairs = sum(r.stats.get("probe_pairs", 0) for r in results)
    ok = ok and built == 400 and pairs >= 400 * 1000 and elapsed < 30.0
    _report(6, "automorphisms built for 200 finite-ratio and 200 dominated-ratio pairs, "
               "exact anchors, 1000 validated probe pairs each",
            ok, f"{built} built, {pairs} probe pairs in {elapsed:.2f}s; first violations: {bad}")


def test_criterion_7_class_sequences():
    results = [suites.suite_sequences(100, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    _report(7, "sequence monotonicity exact; cofinality past 100 class-mates at witness index",
            ok, f"{cases} checks; first violations: {bad}")


def test_criterion_8_root_boundary_sequences():
    results = [suites.suite_b11(60, SEED, dim) for dim in (1, 2)]
    ok, cases, bad = _no_violations(results)
    partiality = {
        f"dim{r.dim}": {k: v for k, v in r.stats.items() if not k.startswith("emitted")}
        for r in results
    }
    emitted = sum(v for r in results for k, v in r.stats.items() if k.startswith("emitted"))
    ok = ok and emitted > 0
    _report(8, "boundary terms satisfy their max-predicate, neighbors refute; partiality counted",
            ok, f"{emitted} sequences emitted; partiality: {partiality}; first violations: {bad}")


def test_criterion_9_real_embedding():
    results = [suites.suite_embed(300, SEED, 2)]
    ok, cases, bad = _no_violations(results)
    _report(9, "embedding constant on classes, order-preserving, additive over products (300 pairs)",
            ok, f"{cases} checks; first violations: {bad}")


def test_criterion_10_full_suite_deterministic(capsys):
    t0 = time.perf_counter()
    codes = []
    outputs = []
    for _ in range(2):
        run_out = []
        for dim in (1, 2):
            code = cli_main(["suite", "--name", "all", "--samples", "1000",
                             "--seed", str(SEED), "--dim", str(dim)])
            run_out.append(capsys.readouterr().out)
            codes.append(code)
        outputs.append(run_out)
    elapsed = time.perf_counter() - t0
    identical = outputs[0] == outputs[1]
    clean = all(c == 0 for c in codes)
    violations = sum(
        json.loads(doc)["total_violations"] for doc in outputs[0]
    )
    # sha256 of each dim's stdout, trailing newline included
    digests = [hashlib.sha256(doc.encode()).hexdigest() for doc in outputs[0]]
    pinned = digests == [
        "6b86fb7e0f98f8ed9fe0c37c3f7e817a48537628ba6deb47b650305480604c37",
        "f69460177fece838571a5f6b58bf383025b341c51ab4f240c113d8a6bb9624b4",
    ]
    ok = identical and pinned and clean and violations == 0 and elapsed / 2 < 60.0
    with capsys.disabled():
        _report(10, "full suite byte-identical under fixed seed, zero violations",
                ok, f"{elapsed / 2:.1f}s per full run (both dims); sha256 {[d[:8] for d in digests]}")
