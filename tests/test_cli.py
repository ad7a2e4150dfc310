"""CLI contract: JSON shapes, exit codes, determinism."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from lexarith import equiv, model, suites, textform
from lexarith.cli import main
from lexarith.errors import ValidationFailure
from lexarith.model import Element, Exponent

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval(capsys):
    code, out = run(capsys, "eval", "t^2 + 3*t + 1")
    assert code == 0
    doc = json.loads(out)
    assert doc["text"] == "t^2 + 3*t + 1"
    assert doc["element"]["terms"][0] == {"exp": ["2"], "coeff": "1"}


def test_cmp(capsys):
    code, out = run(capsys, "cmp", "t", "1000")
    assert code == 0
    assert json.loads(out)["symbol"] == ">"


def test_equiv_positive_matches_contract(capsys):
    code, out = run(capsys, "equiv", "--level", "2", "t", "3*t+5")
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witness"] == {"n": 4}
    assert doc["level"] == 2 and "reason" in doc


def test_equiv_negative_exits_one(capsys):
    code, out = run(capsys, "equiv", "--level", "2", "t", "t^2")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_auto_negative(capsys):
    code, out = run(capsys, "auto", "--from", "t", "--to", "t^2")
    assert code == 1
    assert json.loads(out)["error"] == "cannot_prove"


def test_auto_apply_roundtrip(capsys, tmp_path):
    code, out = run(capsys, "auto", "--from", "t", "--to", "2*t+1")
    assert code == 0
    desc = tmp_path / "desc.json"
    desc.write_text(out)
    code, out = run(capsys, "apply", "--desc", str(desc), "t + 7")
    assert code == 0
    assert json.loads(out)["text"] == "2*t + 8"


# command -> (its command line, the package modules its process must not
# load, one it must); "DESC" stands for a descriptor file
HEAVY = {"analysis", "automorph", "equiv", "sampler", "suites"}
COMMAND_MODULES = {
    "eval": (("eval", "t^2 + 3*t + 1"), HEAVY, "textform"),
    "cmp": (("cmp", "t", "1000"), HEAVY, "model"),
    "arith": (("arith", "divmod", "t^2 + 1", "t"), HEAVY, "model"),
    "equiv": (("equiv", "--level", "2", "t", "3*t+5"), {"analysis", "automorph", "sampler", "suites"}, "equiv"),
    "auto": (("auto", "--from", "t", "--to", "2*t+1"), {"analysis", "sampler", "suites"}, "automorph"),
    "apply": (("apply", "--desc", "DESC", "t + 7"), {"analysis", "sampler", "suites"}, "automorph"),
    "seq": (("seq", "b11", "t^2", "--count", "3"), {"automorph", "sampler", "suites"}, "analysis"),
    "embed": (("embed", "--anchor", "t^(1,0)", "t^(2,3)", "--dim", "2"), {"automorph", "sampler", "suites"}, "analysis"),
}

# runs one command in a fresh interpreter, then prints its exit code and the
# package modules the process loaded
MODULES_PROBE = (
    "import json, sys; from lexarith.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(m[9:] for m in sys.modules if m.startswith('lexarith.'))]))"
)


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_command_loads_only_the_modules_it_runs(capsys, tmp_path, command):
    argv, not_loaded, loaded = COMMAND_MODULES[command]
    if "DESC" in argv:
        desc = tmp_path / "desc.json"
        desc.write_text(run(capsys, "auto", "--from", "t", "--to", "2*t+1")[1])
        argv = [str(desc) if a == "DESC" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], env=env, capture_output=True, text=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stdout
    assert loaded in modules and not_loaded.isdisjoint(modules), modules


def test_auto_e3_route(capsys, tmp_path):
    code, out = run(capsys, "auto", "--from", "t^(1,0)", "--to", "t^(1,1)", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "e3_shift"
    desc = tmp_path / "d.json"
    desc.write_text(out)
    code, out = run(capsys, "apply", "--desc", str(desc), "t^(1,0) + 3", "--dim", "2")
    assert json.loads(out)["text"] == "t^(1,1) + 3"


def _affine_doc(capsys):
    code, out = run(capsys, "auto", "--from", "t", "--to", "2*t+1")
    assert code == 0
    return json.loads(out)


def _nested_text(depth):
    # built as text: json.dumps itself cannot nest this deep
    return '{"kind":"inverse","of":' * depth + '{"kind":"identity"}' + "}" * depth


def _element(*terms):
    return {"terms": [{"exp": list(e), "coeff": c} for e, c in terms]}


T = _element((["1"], "1"))  # t in dim 1
T2 = _element((["1", "0"], "1"))  # t^(1,0) in dim 2

# case -> (descriptor document from the affine one, a phrase of the error detail)
MALFORMED = {
    "missing-fields": (lambda aff: {"kind": "e2_affine"}, "needs exactly the fields"),
    "not-an-object": (lambda aff: [1], "must be an object with a kind"),
    "int-as-string": (lambda aff: dict(aff, n="3"), "expected a JSON integer, got '3'"),
    "int-as-bool": (lambda aff: dict(aff, m=True), "expected a JSON integer, got True"),
    "int-as-float": (lambda aff: dict(aff, n=3.0), "expected a JSON integer, got 3.0"),
    "tampered-affine": (
        lambda aff: dict(aff, b=_element((["1"], "3"), (["0"], "1"))), "must satisfy b - a = (n-1)*(a - c) + m",
    ),
    "unknown-kind": (lambda aff: {"kind": "rotate"}, "must be an object with a kind"),
    "unhashable-kind": (lambda aff: {"kind": [1]}, "must be an object with a kind"),
    "extra-field": (lambda aff: dict(aff, z=1), "needs exactly the fields"),
    "float-coefficient": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], 1.5)), "offset": 1},
        'rational must be a "p" or "p/q" string',
    ),
    "zero-denominator": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], "1/0")), "offset": 1},
        'rational must be a "p" or "p/q" string',
    ),
    "element-not-terms": (
        lambda aff: {"kind": "e0_class_shift", "anchor": ["1"], "offset": 1}, 'element must be {"terms"',
    ),
    "parts-not-a-list": (lambda aff: {"kind": "compose", "parts": {"0": aff}}, "parts must be a JSON list"),
    "too-deep": (lambda aff: _nested_text(2000), "nests too deeply"),
    # loads as JSON, but nests too deeply for the descriptor loader
    "too-deep-to-load": (lambda aff: _nested_text(400), "nests too deeply"),
    # built as text: json.dumps cannot write an int longer than int() converts
    "overlong-integer": (
        lambda aff: '{"kind": "e0_class_shift", "anchor": ' + json.dumps(T) + ', "offset": ' + "7" * 5000 + "}",
        f"integers must have at most {sys.get_int_max_str_digits()} digits",
    ),
    "segment-not-glued": (
        lambda aff: {
            "kind": "segment_extend", "below": {"kind": "identity"},
            "a": _element((["1"], "1")), "b": _element((["1"], "1/2")),
        },
        "needs below(a) == b",
    ),
    "threshold-above-anchor-class": (
        lambda aff: {
            "kind": "e2_affine", "a": _element((["1"], "1")), "b": _element((["1"], "1"), (["0"], "-1")),
            "n": 2, "c": _element((["1"], "1"), (["0"], "1")), "m": 0,
        },
        "threshold c must lie below",
    ),
    "threshold-in-anchor-class": (
        lambda aff: {
            "kind": "e2_affine", "a": _element((["1"], "1")), "b": _element((["1"], "1"), (["0"], "1")),
            "n": 2, "c": _element((["1"], "1"), (["0"], "-1")), "m": 0,
        },
        "threshold c must lie below",
    ),
    "zero-e3-anchor": (
        lambda aff: {"kind": "e3_shift", "a1": _element(), "a2": _element(), "c": _element((["0", "1"], "1"))},
        "anchor must dominate every power",
    ),
    "not-json": (lambda aff: "{nope", "not UTF-8 JSON"),
    "not-utf8": (lambda aff: b'{"kind": "identity\xff"}', "not UTF-8 JSON"),
    # each constructor check, one case apiece
    "e0-standard-anchor": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["0"], "5")), "offset": 1},
        "anchor of a class shift must be nonstandard",
    ),
    "e2-factor-below-two": (lambda aff: dict(aff, n=1, m=0), "affine factor n must be >= 2"),
    "e2-remainder-out-of-range": (lambda aff: dict(aff, m=aff["n"] - 1), "remainder m must satisfy"),
    "e2-standard-anchors": (
        lambda aff: dict(aff, a=_element((["0"], "1")), b=_element((["0"], "3")), c=_element(), m=0),
        "affine anchors must be nonstandard",
    ),
    "e3-dim-one": (lambda aff: {"kind": "e3_shift", "a1": T, "a2": T, "c": T}, "needs the dim-2 lattice"),
    "e3-standard-companion": (
        lambda aff: {"kind": "e3_shift", "a1": T2, "a2": T2, "c": _element((["0", "0"], "2"))},
        "must be a nonstandard monomial",
    ),
    "e3-companion-not-dominated": (
        lambda aff: {"kind": "e3_shift", "a1": T2, "a2": _element((["2", "0"], "1")), "c": T2},
        "must be dominated by the anchors",
    ),
    # the element loader
    "duplicate-exponent": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], "1"), (["1"], "2")), "offset": 1},
        "duplicate exponent (1)",
    ),
    "zero-coefficient": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], "0")), "offset": 1},
        "zero coefficient",
    ),
    "exponent-wrong-length": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1", "1"], "1")), "offset": 1},
        "exponent (1,1) has wrong dimension",
    ),
    "term-not-exp-coeff": (
        lambda aff: {"kind": "e0_class_shift", "anchor": {"terms": [{"exp": ["1"]}]}, "offset": 1},
        'element term must be {"exp"',
    ),
    "overlong-rational": (
        lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], "1" * 5000)), "offset": 1},
        f"at most {sys.get_int_max_str_digits()} digits",
    ),
}
DIM2 = {"zero-e3-anchor", "e3-standard-companion", "e3-companion-not-dominated"}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_descriptor_exit_two(capsys, tmp_path, case):
    desc = tmp_path / "d.json"
    build, phrase = MALFORMED[case]
    doc = build(_affine_doc(capsys))
    if not isinstance(doc, (str, bytes)):
        doc = json.dumps(doc)
    desc.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    dim = "2" if case in DIM2 else "1"
    code, out = run(capsys, "apply", "--desc", str(desc), "t + 7", "--dim", dim)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "InvariantViolation"
    assert phrase in doc["detail"]


def test_parse_error_exit_two(capsys):
    code, out = run(capsys, "eval", "t + %")
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_invariant_violation_exit_two(capsys):
    code, out = run(capsys, "eval", "t + 1/2")
    assert code == 2
    # an exponent in a detail is written by its "p/q" texts
    code, out = run(capsys, "eval", "t^(0,-1)", "--dim", "2")
    assert code == 2
    assert json.loads(out) == {"error": "InvariantViolation", "detail": "negative exponent (0,-1)"}


@pytest.mark.parametrize("text", ["1" * 5000, "t^" + "1" * 5000], ids=["coefficient", "exponent"])
def test_overlong_digit_run_exit_two(capsys, text):
    code, out = run(capsys, "eval", text)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize(
    "argv", [("arith", "pow", "3", "9013"), ("arith", "mul", "9" * 4300, "9" * 4300)], ids=["pow", "mul"]
)
def test_overlong_result_is_a_resource_limit(capsys, argv):
    # a coefficient longer than the parser reads is not printed either
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "ResourceLimit"


# N = 4300 nines, the most digits the parser reads: a witness or descriptor
# integer of the answer has more
N = "9" * 4300
OVERLONG_INTEGERS = {
    "level0-witness": ("equiv", "--level", "0", f"t + {N}", "t"),
    "level2-witness": ("equiv", "--level", "2", f"1/{N}*t", f"{N}*t"),
    "level4-witness": ("equiv", "--level", "4", f"t^{N} + 1", "t"),
    "e2-affine": ("auto", "--from", "t", "--to", f"{N}*t + {N}"),
}


@pytest.mark.parametrize("pretty", [(), ("--pretty",)], ids=["compact", "pretty"])
@pytest.mark.parametrize("case", sorted(OVERLONG_INTEGERS))
def test_overlong_document_integer_is_a_resource_limit(capsys, case, pretty):
    start = time.perf_counter()
    code, out = run(capsys, *pretty, *OVERLONG_INTEGERS[case])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {
        "error": "ResourceLimit",
        "detail": "an integer of more than 4300 digits is too long to print",
    }


def test_partiality_exit_three(capsys):
    code, out = run(capsys, "arith", "divmod", "t^(2,0)", "t^(1,0) - t^(1,-1)", "--dim", "2")
    assert code == 3
    assert json.loads(out)["error"] == "NonTerminatingQuotient"
    code, out = run(capsys, "arith", "root", "2*t^2", "2")
    assert code == 3
    assert json.loads(out)["error"] == "CoefficientNotRepresentable"


def test_internal_error_exit_four(capsys, monkeypatch):
    def broken(*_):
        raise AssertionError("closed form failed its check")

    monkeypatch.setattr(equiv, "decide", broken)
    code, out = run(capsys, "equiv", "--level", "2", "t", "2*t")
    assert code == 4
    assert json.loads(out) == {"error": "internal", "detail": "closed form failed its check"}


def test_validation_failure_is_negative_not_internal(capsys, monkeypatch):
    # a failed probe check is a negative result (exit 1), not a bug (exit 4)
    def failing(*_):
        raise ValidationFailure("monotone", "probe order broken")

    monkeypatch.setattr(equiv, "decide", failing)
    code, out = run(capsys, "equiv", "--level", "2", "t", "2*t")
    assert code == 1
    assert json.loads(out) == {"error": "ValidationFailure", "detail": "monotone: probe order broken"}


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, TypeError, KeyError, RecursionError])
def test_any_other_exception_is_internal(capsys, monkeypatch, error):
    def broken(*_):
        raise error("injected")

    monkeypatch.setattr(Element, "__mul__", broken)
    code, out = run(capsys, "arith", "mul", "t", "t")
    assert code == 4
    assert json.loads(out) == {"error": "internal", "detail": str(error("injected"))}


def test_missing_descriptor_file_is_io(capsys, tmp_path):
    code, out = run(capsys, "apply", "--desc", str(tmp_path / "missing.json"), "t")
    assert code == 2
    assert json.loads(out)["error"] == "io"


def test_unsettled_floor_root_is_internal_not_partial(capsys, monkeypatch):
    # a wrong leading root puts the candidate far from the floor root
    monkeypatch.setattr(model, "_rat_root", lambda c, k: (2, 1))
    code, out = run(capsys, "arith", "root", "t^2", "2")
    assert code == 4
    assert json.loads(out)["error"] == "internal"


# case -> (command line, a phrase of the error detail)
BAD_LIMITS = {
    "budget-zero": (("arith", "divmod", "t^(1,0)", "t^(0,1)", "--dim", "2", "--budget", "0"), "budget must be >= 1"),
    "budget-negative": (("arith", "divmod", "t^2", "t", "--budget", "-1"), "budget must be >= 1"),
    "count-negative": (("seq", "e2", "t", "--count", "-3"), "count must be >= 0"),
    "samples-negative": (("suite", "--name", "algebra", "--samples", "-5"), "samples must be >= 1"),
    "unknown-suite": (("suite", "--name", "nope"), "unknown suite 'nope'"),
    "pow-not-int": (("arith", "pow", "t", "x"), "pow needs an integer"),
    "divisor-zero": (("arith", "divmod", "t", "0"), "divisor must be positive"),
    "root-index-zero": (("arith", "root", "t", "0"), "root index must be >= 1"),
    "root-of-zero": (("arith", "root", "0", "2"), "requires a >= 1"),
    # command lines the argument parser refuses
    "option-unknown": (("eval", "-t"), "lexarith eval: unrecognized arguments: -t"),
    "option-unknown-before-command": (("-t", "eval"), "lexarith: unrecognized arguments: -t"),
    "option-unknown-before-command-and-argument": (("-t", "eval", "t"), "lexarith: unrecognized arguments: -t"),
    "option-known-before-command": (("--pretty", "eval"), "the following arguments are required: expr"),
    "dim-not-a-choice": (("eval", "t", "--dim", "3"), "invalid choice: 3"),
    "level-missing": (("equiv", "t", "t"), "--level"),
    "command-unknown": (("nope", "t"), "invalid choice: 'nope'"),
}


@pytest.mark.parametrize("case", sorted(BAD_LIMITS))
def test_bad_limits_exit_two(capsys, case):
    argv, phrase = BAD_LIMITS[case]
    code, out = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "InvariantViolation"
    assert phrase in doc["detail"]


def test_budget_above_the_ceiling_is_a_resource_limit(capsys):
    argv = ("arith", "divmod", "t^(2,0)", "t^(1,0) - t^(1,-1)", "--dim", "2", "--budget")
    start = time.perf_counter()
    code, out = run(capsys, *argv, "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {"error": "ResourceLimit", "detail": "term budget must be <= 1024, got 100000"}
    # the ceiling itself is still worked: the expansion runs out of budget
    code, out = run(capsys, *argv, "1024")
    assert code == 3
    assert json.loads(out)["error"] == "NonTerminatingQuotient"


def test_samples_above_the_ceiling_are_a_resource_limit(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "suite", "--name", "algebra", "--samples", "100000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {
        "error": "ResourceLimit",
        "detail": f"samples must be <= {suites.MAX_SAMPLES}, got 100000000000",
    }
    # the ceiling is checked before any suite runs, and admits the acceptance gate's 1000
    code, out = run(capsys, "suite", "--name", "all", "--samples", str(suites.MAX_SAMPLES + 1))
    assert code == 2 and json.loads(out)["error"] == "ResourceLimit"
    assert suites.MAX_SAMPLES >= 1000


def test_sequence_count_above_the_ceiling_is_a_resource_limit(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "seq", "e0", "t", "--count", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {"error": "ResourceLimit", "detail": "sequence count must be <= 1024, got 100000"}
    # the ceiling itself is still answered
    for kind in ("e0", "e2"):
        for direction in ("up", "down"):
            code, out = run(capsys, "seq", kind, "t^2 + t", "--count", "1024", "--direction", direction)
            assert code == 0
            assert len(json.loads(out)["terms"]) == 1024


def test_root_expansion_ends_within_the_budget(capsys):
    # every power of the tail has a term above the window: the budget runs
    # out, counted on exponents before any coefficient work
    argv = ("arith", "root", "t^(2,0) + t^(2,-1) + t^(2,-3)", "2", "--dim", "2", "--budget", "1024")
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out)["error"] == "NonTerminatingQuotient"


@pytest.mark.parametrize("a", ("t^2 + 2*t^(1999/1000) + t^(1998/1000)", "t^2000 + t^(3999/2)"))
def test_dim1_root_expansion_past_the_ceiling_is_a_resource_limit(capsys, a):
    # about 1000 and 2000 expansion steps: refused on exponents, before the
    # coefficient work that grows with the square of the steps
    start = time.perf_counter()
    code, out = run(capsys, "arith", "root", a, "2")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {"error": "ResourceLimit", "detail": "root expansion needs more than 64 steps"}


# t^64 + t^63 + the terms t^(63 - 1/j) for j = 2..13 (2..9 in dim 2): each
# power of the tail has more exponents inside the window than the one before
WIDE_ROOT_TAIL = " + ".join(["t^64", "t^63"] + [f"t^({63 * j - 1}/{j})" for j in range(2, 14)])
WIDE_ROOT_TAIL_DIM2 = " + ".join(["t^(64,0)", "t^(63,0)"] + [f"t^({63 * j - 1}/{j},0)" for j in range(2, 10)])


@pytest.mark.parametrize("argv", [
    (WIDE_ROOT_TAIL,),
    (WIDE_ROOT_TAIL_DIM2, "--dim", "2"),
    # 1000 steps, each adding j + 1 terms to the series
    ("t^(2000,0) + t^(1999,5) + t^(1999,0)", "--dim", "2", "--budget", "1024"),
])
def test_root_expansion_past_its_terms_is_a_resource_limit(capsys, argv):
    # the windowed powers of the tail grow, and the series with them, past
    # MAX_DIV_BUDGET terms: refused at that step, not after the series is built
    a, *options = argv
    start = time.perf_counter()
    code, out = run(capsys, "arith", "root", a, "2", *options)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "ResourceLimit"


# case -> (command line, exit code, result text or error type) of a root
# whose index has more bits than the radicand's integers
HUGE_ROOT_INDEX = {
    "integer": (("arith", "root", "4", "9510524971336384590"), 0, "1"),
    "irrational-lead": (("arith", "root", "2*t", "18446744073709551616"), 3, "CoefficientNotRepresentable"),
    "certifier-square": (("arith", "root", "t^2", "18446744073709551616"), 2, "ResourceLimit"),
}


@pytest.mark.parametrize("case", sorted(HUGE_ROOT_INDEX))
def test_huge_root_index_ends_fast(capsys, case):
    argv, exit_code, answer = HUGE_ROOT_INDEX[case]
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == exit_code
    doc = json.loads(out)
    assert doc.get("text", doc.get("error")) == answer


# powers past a ceiling: too many terms or products, or too wide a coefficient
POWER_LIMITS = {
    "pow-terms": ("arith", "pow", "t+1", "100000"),
    "b11-terms": ("seq", "b11", "t^2", "--count", "30"),
    "level4-terms": ("equiv", "--level", "4", "t^1600 + 1", "t + 1"),
    "pow-bits": ("arith", "pow", "7*t", "1073741824"),
    "level4-bits": ("equiv", "--level", "4", "t^1000000000000", "2*t"),
    # 600-digit coefficients: refused on the word products of one multiply
    "pow-words": ("arith", "pow", "t + 1" + "0" * 600, "500"),
}


@pytest.mark.parametrize("case", sorted(POWER_LIMITS))
def test_power_above_the_ceiling_is_a_resource_limit(capsys, case):
    start = time.perf_counter()
    code, out = run(capsys, *POWER_LIMITS[case])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "ResourceLimit"


def _wide(digits: int) -> str:
    """A 16-term element whose coefficients have distinct denominators of
    the given number of digits."""
    return " + ".join(f"1/{10 ** (digits - 1) + k}*t^{16 - k}" for k in range(16))


def _wide_exponents(digits: int, offset: int = 0) -> str:
    """t^(16/w) + t^(15/(w + 1)) + ... + t^(2/(w + 14)) + 1, where w is
    offset plus a number of the given digits."""
    w = 10 ** (digits - 1) + offset
    return " + ".join(f"t^({16 - k}/{w + k})" for k in range(15)) + " + 1"


def _many(terms: int) -> str:
    """t^(terms - 1) + ... + t + 1."""
    return " + ".join(f"t^{i}" for i in range(terms - 1, -1, -1))


# multiplies past the kernel's work ceiling, refused before its double loop
MULTIPLY_LIMITS = {
    "mul-products": ("arith", "mul", _many(257), _many(257)),
    "mul-words": ("arith", "mul", _wide(1000), _wide(1000)),
    "pow-words": ("arith", "pow", _wide(4300), "2"),
    # 30 distinct 4000-digit exponent denominators: keys of about 400,000 bits
    "mul-exponent-words": ("arith", "mul", _wide_exponents(4000), _wide_exponents(4000, 100)),
    # (t^256 + ... + 1)^2 by t^256 + ... + 1: the closing q*b of a quotient
    # of 257 terms
    "divmod-products": ("arith", "divmod", " + ".join(f"{min(k, 512 - k) + 1}*t^{k}" for k in range(512, -1, -1)),
                        _many(257)),
}


@pytest.mark.parametrize("case", sorted(MULTIPLY_LIMITS))
def test_multiply_above_the_ceiling_is_a_resource_limit(capsys, case):
    start = time.perf_counter()
    code, out = run(capsys, *MULTIPLY_LIMITS[case])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["error"] == "ResourceLimit"
    assert "word products" in out or "257x257 term products" in out


def test_wide_exponent_numerators_over_small_denominators_are_answered(capsys):
    a = " + ".join(f"t^({10 ** 3999 * (16 - k) + k}/3)" for k in range(15)) + " + 1"
    code, out = run(capsys, "arith", "mul", a, a)
    assert code == 0
    terms = json.loads(out)["element"]["terms"]
    assert len(terms) == 45 and terms[0]["exp"] == [f"{2 * 16 * 10 ** 3999}/3"]


# quotients whose coefficients are powers of a wide one, so that the shifts
# of the divisor grow with the steps: 3.8 s in dim 1, and 72 s in dim 2
# before the budget ran out
QUOTIENT_WORDS = {
    "dim1": ("t^256", "t - " + "7" * 1000 + "*t^(1/2)"),
    "dim2": ("t^(9,0)", "t^(1,0) - " + "9" * 4000 + "*t^(1,-1)", "--dim", "2", "--budget", "1024"),
}


@pytest.mark.parametrize("case", sorted(QUOTIENT_WORDS))
def test_quotient_past_its_word_ceiling_is_a_resource_limit(capsys, case):
    start = time.perf_counter()
    code, out = run(capsys, "arith", "divmod", *QUOTIENT_WORDS[case])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out)["detail"].startswith("quotient needs ")


def test_dim1_quotient_past_the_ceiling_is_a_resource_limit(capsys):
    # t^n by t - t^(1/2) has 2n - 1 terms: finite, but refused past 1024
    start = time.perf_counter()
    code, out = run(capsys, "arith", "divmod", "t^10000000", "t - t^(1/2)")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(out) == {
        "error": "ResourceLimit",
        "detail": "quotient expansion exceeded 1024 nonnegative-exponent terms",
    }
    # the ceiling itself is still answered, also with wider coefficients
    for b in ("t - t^(1/2)", "t - 12345*t^(1/2)"):
        code, out = run(capsys, "arith", "divmod", "t^(1025/2)", b)
        assert code == 0
        assert len(json.loads(out)["q"]["terms"]) == 1024


def test_power_of_a_monomial_is_not_limited_by_its_index(capsys):
    code, out = run(capsys, "arith", "pow", "t", "1073741824")
    assert code == 0
    assert json.loads(out)["text"] == "t^1073741824"


def test_help_exits_zero(capsys):
    assert main(["eval", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lexarith eval")


def test_arith_ops(capsys):
    code, out = run(capsys, "arith", "mul", "t + 1", "t + 1")
    assert json.loads(out)["text"] == "t^2 + 2*t + 1"
    code, out = run(capsys, "arith", "divmod", "t^2 + 1", "t")
    doc = json.loads(out)
    assert doc["q_text"] == "t" and doc["r_text"] == "1"
    code, out = run(capsys, "arith", "pow", "t + 1", "2")
    assert json.loads(out)["text"] == "t^2 + 2*t + 1"


def test_seq_command(capsys):
    code, out = run(capsys, "seq", "e2", "t^2", "--count", "3", "--direction", "down")
    assert code == 0
    assert json.loads(out)["texts"] == ["t^2", "1/2*t^2", "1/3*t^2"]


def test_embed_command(capsys):
    code, out = run(capsys, "embed", "--anchor", "t^(1,0)", "t^(2,3)", "--dim", "2")
    assert code == 0
    assert json.loads(out) == {"degenerate": False, "value": "2"}


def test_suite_exit_codes_and_determinism(capsys):
    code1, out1 = run(capsys, "suite", "--name", "refinement", "--samples", "60", "--seed", "5", "--dim", "2")
    code2, out2 = run(capsys, "suite", "--name", "refinement", "--samples", "60", "--seed", "5", "--dim", "2")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["total_violations"] == 0


def test_suite_unknown_name(capsys):
    code, out = run(capsys, "suite", "--name", "nope")
    assert code == 2


def test_pretty_flag(capsys):
    code, out = run(capsys, "--pretty", "eval", "t")
    assert code == 0 and "\n  " in out


def test_internal_paths_read_no_fraction_views(capsys, monkeypatch):
    def view(*_):
        raise AssertionError("an internal path read a Fraction view")

    monkeypatch.setattr(Element, "terms", view)
    monkeypatch.setattr(Exponent, "components", property(view))
    for dim in (1, 2):
        assert sum(len(r.violations) for r in suites.run_suites("all", 10, 7, dim)) == 0
    for argv in (
        ("eval", "t^(1,-1/2) + 3/2*t^(0,2) + 4", "--dim", "2"),
        ("equiv", "--level", "3", "t^(2,1) + t^(1,0)", "3*t^(2,4) + 1", "--dim", "2"),
        ("equiv", "--level", "4", "t^(2,1/2) + 1", "t^(1,3)", "--dim", "2"),
        ("equiv", "--level", "4", "t^(1/2)", "7/3*t^3 + 1"),
        ("embed", "--anchor", "t^(1,0)", "t^(2,3)", "--dim", "2"),
        ("embed", "--anchor", "t^(0,1)", "t^(0,7/3) + 5", "--dim", "2"),
        ("auto", "--from", "t^(1,0) + t^(1,-1)", "--to", "5*t^(1,3) + 7", "--dim", "2"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0 and "error" not in json.loads(out), argv


def test_check_formats_its_subjects_only_for_a_violation(monkeypatch):
    a = textform.parse_element("t^2 + 1", 1)
    formatted = []
    format_element = textform.format_element

    def counted(e):
        formatted.append(e)
        return format_element(e)

    monkeypatch.setattr(textform, "format_element", counted)
    r = suites.SuiteResult("demo", 1, 2, 7)
    assert r.check(True, 0, "holds", a, 3, "n=3")
    assert formatted == [] and r.violations == []
    assert not r.check(False, 1, "fails", a, 3, "n=3")
    assert r.violations == [{"case": 1, "law": "fails", "detail": "t^2 + 1 ; 3 ; n=3"}]
    assert formatted == [a]
    assert r.cases == 2
    # a clean suite run formats nothing
    formatted.clear()
    assert suites.run_suites("algebra", 20, 7, 2)[0].ok
    assert formatted == []


@pytest.mark.parametrize("dim", [1, 2])
def test_suites_decide_each_pair_once(monkeypatch, dim):
    calls = {}
    decide = equiv.decide

    def counted(level, a, b):
        calls[level] = calls.get(level, 0) + 1
        return decide(level, a, b)

    monkeypatch.setattr(equiv, "decide", counted)
    suites.suite_agreement(4, 7, dim)
    # (a, b) once per sample and level; the minimal-bound checks reuse it
    assert calls == {level: 4 for level in range(5)}
    calls.clear()
    r = suites.suite_equivalence(4, 7, dim)
    # (a, a), (a, b), (b, a) and (b, c) per sample and level, (a, c) per chain
    assert calls == {level: 4 * 4 + r.stats.get(f"chains_l{level}", 0) for level in range(5)}


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    """Every ``lexarith`` line of the README's CLI block exits 0 with one JSON
    document, which shows what a ``->`` line under it states."""
    text = README.read_text(encoding="utf-8")
    lines = re.search(r"\n## CLI\n.*?\n```\n(.*?)\n```\n", text, re.S).group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    docs = {}
    for line, below in zip(lines, lines[1:] + [""]):
        # criterion 10 of the acceptance gate runs the 1000-sample suite
        if not line.startswith("lexarith ") or "--samples 1000" in line:
            continue
        argv, _, target = line.partition(" > ")
        code, out = run(capsys, *shlex.split(argv)[1:])
        assert code == 0 and out.count("\n") == 1 and out.endswith("\n"), line
        docs[line] = json.loads(out)
        if target:
            pathlib.Path(target).write_text(out)
        stated = below.strip()
        if stated.startswith("-> {"):
            for part in stated[4:-1].split(",...,"):
                assert part in out, (line, part)
    assert len(docs) == 11
    assert docs['lexarith equiv --level 2 "t" "3*t+5"']["witness"] == {"n": 4}
