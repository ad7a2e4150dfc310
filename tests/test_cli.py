"""CLI contract: JSON shapes, exit codes, determinism."""

import json

import pytest

from lexarith import equiv, model, suites, textform
from lexarith.cli import main
from lexarith.errors import ValidationFailure
from lexarith.model import Element, Exponent


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


MALFORMED = {
    "missing-fields": lambda aff: {"kind": "e2_affine"},
    "not-an-object": lambda aff: [1],
    "int-as-string": lambda aff: dict(aff, n="3"),
    "int-as-bool": lambda aff: dict(aff, m=True),
    "int-as-float": lambda aff: dict(aff, n=3.0),
    "tampered-affine": lambda aff: dict(aff, b=_element((["1"], "3"), (["0"], "1"))),
    "unknown-kind": lambda aff: {"kind": "rotate"},
    "unhashable-kind": lambda aff: {"kind": [1]},
    "extra-field": lambda aff: dict(aff, z=1),
    "float-coefficient": lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], 1.5)), "offset": 1},
    "zero-denominator": lambda aff: {"kind": "e0_class_shift", "anchor": _element((["1"], "1/0")), "offset": 1},
    "element-not-terms": lambda aff: {"kind": "e0_class_shift", "anchor": ["1"], "offset": 1},
    "parts-not-a-list": lambda aff: {"kind": "compose", "parts": {"0": aff}},
    "too-deep": lambda aff: _nested_text(2000),
    "segment-not-glued": lambda aff: {
        "kind": "segment_extend", "below": {"kind": "identity"},
        "a": _element((["1"], "1")), "b": _element((["1"], "1/2")),
    },
    "threshold-above-anchor-class": lambda aff: {
        "kind": "e2_affine", "a": _element((["1"], "1")), "b": _element((["1"], "1"), (["0"], "-1")),
        "n": 2, "c": _element((["1"], "1"), (["0"], "1")), "m": 0,
    },
    "threshold-in-anchor-class": lambda aff: {
        "kind": "e2_affine", "a": _element((["1"], "1")), "b": _element((["1"], "1"), (["0"], "1")),
        "n": 2, "c": _element((["1"], "1"), (["0"], "-1")), "m": 0,
    },
    "zero-e3-anchor": lambda aff: {
        "kind": "e3_shift", "a1": _element(), "a2": _element(), "c": _element((["0", "1"], "1")),
    },
    "not-json": lambda aff: "{nope",
    "not-utf8": lambda aff: b'{"kind": "identity\xff"}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_descriptor_exit_two(capsys, tmp_path, case):
    desc = tmp_path / "d.json"
    doc = MALFORMED[case](_affine_doc(capsys))
    if not isinstance(doc, (str, bytes)):
        doc = json.dumps(doc)
    desc.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    dim = "2" if case == "zero-e3-anchor" else "1"
    code, out = run(capsys, "apply", "--desc", str(desc), "t + 7", "--dim", dim)
    assert code == 2
    assert json.loads(out)["error"] == "InvariantViolation"


def test_parse_error_exit_two(capsys):
    code, out = run(capsys, "eval", "t + %")
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_invariant_violation_exit_two(capsys):
    code, out = run(capsys, "eval", "t + 1/2")
    assert code == 2


@pytest.mark.parametrize("text", ["1" * 5000, "t^" + "1" * 5000], ids=["coefficient", "exponent"])
def test_overlong_digit_run_exit_two(capsys, text):
    code, out = run(capsys, "eval", text)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


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


@pytest.mark.parametrize("argv", [
    ("arith", "divmod", "t^(1,0)", "t^(0,1)", "--dim", "2", "--budget", "0"),
    ("arith", "divmod", "t^2", "t", "--budget", "-1"),
    ("seq", "e2", "t", "--count", "-3"),
    ("suite", "--name", "algebra", "--samples", "-5"),
    ("suite", "--name", "nope"),
    ("arith", "pow", "t", "x"),
], ids=["budget-zero", "budget-negative", "count-negative", "samples-negative", "unknown-suite", "pow-not-int"])
def test_bad_limits_exit_two(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "InvariantViolation"


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
