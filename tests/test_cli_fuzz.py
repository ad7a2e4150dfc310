"""Fuzzing the input boundary: every input to the CLI ends in one JSON
document with a documented exit code, and every input to the element
loaders in an element or a lexarith error, fast, and never as an internal
error or a traceback.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from hypothesis import given, settings, strategies as st

from lexarith.automorph import KINDS, Descriptor
from lexarith.cli import main
from lexarith.errors import LexarithError
from lexarith.jsonio import descriptor_from_json, element_from_json
from lexarith.model import Element
from lexarith.textform import parse_element

# each run must answer within a second
FUZZ = settings(max_examples=150, deadline=1000)

DIMS = st.sampled_from(("1", "2"))
# the grammar's own alphabet reaches deeper than arbitrary text does
texts = st.text(max_size=40) | st.text(alphabet="t^()+-*/, 0123456789", max_size=40)
rationals = st.integers(-9, 9).map(str) | st.sampled_from(("1/2", "-3/2", "4/1", "1/0"))
exponents = st.integers(0, 3).map(str) | rationals
elements = st.fixed_dictionaries({"terms": st.lists(
    st.fixed_dictionaries({"exp": st.lists(exponents, min_size=1, max_size=2), "coeff": rationals}),
    max_size=3,
)})


def _descriptors(inner):
    """Objects of a known kind with exactly its fields, so that drawn values
    reach the loader's field checks and the constructors."""
    return st.sampled_from(sorted(KINDS.values(), key=lambda cls: cls.kind)).flatmap(
        lambda cls: st.fixed_dictionaries(
            {"kind": st.just(cls.kind), **{name: inner for name in cls._fields}}
        )
    )


# integers on both sides of the most digits int() converts (4300 by default)
long_integers = st.integers(10**4290, 10**4310)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.integers() | long_integers | st.floats()
    | st.text(max_size=8) | rationals | elements,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | _descriptors(inner),
    max_leaves=24,
)


def _element_texts(dim: str, wide: bool = False):
    """Element texts of up to four signed terms with small exponents and
    coefficients, some of them hundreds of digits wide if wide, in the
    grammar of dim."""
    comps = st.sampled_from(("0", "1", "2", "3", "1/2", "5/3"))
    if dim == "1":
        exps = comps
    else:
        signed = st.tuples(st.sampled_from(("", "-")), comps).map("".join)
        exps = st.tuples(signed, signed).map(lambda p: f"({p[0]},{p[1]})")
    coeffs = st.sampled_from(("", "2*", "1/2*", "9/4*"))
    consts = st.integers(0, 9).map(str)
    if wide:
        digits = st.integers(10**100, 10**700).map(str)
        coeffs = coeffs | digits.map(lambda d: f"{d}*") | digits.map(lambda d: f"1/{d}*")
        consts = consts | digits
    terms = st.tuples(coeffs, exps).map(lambda t: f"{t[0]}t^{t[1]}") | consts
    signs = st.sampled_from((" + ", " - "))
    return st.lists(st.tuples(signs, terms), min_size=1, max_size=4).map(
        lambda ts: ts[0][1] + "".join(sign + term for sign, term in ts[1:])
    )


def _wide_denominators(dim: str):
    """Element texts of 2 to 16 terms whose coefficients have distinct
    denominators of hundreds to thousands of digits, in the grammar of dim."""
    exp = "{}" if dim == "1" else "({},0)"
    offsets = st.lists(st.integers(1, 999), min_size=2, max_size=16, unique=True)
    return st.tuples(st.integers(100, 3000), offsets).map(
        lambda p: " + ".join(f"1/{10 ** p[0] + k}*t^{exp.format(len(p[1]) - i)}" for i, k in enumerate(p[1]))
    )


# a dim with an element text in its grammar, with small or also with wide
# coefficients
dim_elements = DIMS.flatmap(lambda dim: st.tuples(st.just(dim), _element_texts(dim)))
dim_wide_elements = DIMS.flatmap(lambda dim: st.tuples(st.just(dim), _element_texts(dim, wide=True)))

# an element to apply a loaded descriptor to, in each dim
POINTS = {"1": ("0", "t + 7", "2*t^2 - t"), "2": ("0", "t^(1,0) + 3", "t^(0,1)")}


def run(*argv) -> tuple:
    """(exit code, document) of one CLI run, which must print one JSON
    document and end in a documented, non-internal exit code; an error
    exit reports a lexarith error type."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2, 3), (code, doc)
    if code > 1:
        assert type(doc) is dict and type(doc.get("error")) is str and doc["error"] != "internal", doc
    return code, doc


@FUZZ
@given(DIMS, texts)
def test_eval_any_text(dim, text):
    assert run("eval", "--dim", dim, "--", text)[0] in (0, 2)


@FUZZ
@given(DIMS, texts, texts)
def test_cmp_any_texts(dim, a, b):
    assert run("cmp", "--dim", dim, "--", a, b)[0] in (0, 2)


@FUZZ
@given(dim_wide_elements, st.integers())
def test_pow_any_element_and_integer(dim_a, n):
    dim, a = dim_a
    assert run("arith", "pow", "--dim", dim, "--", a, str(n))[0] in (0, 2)


@FUZZ
@given(DIMS, st.data())
def test_mul_and_pow_of_wide_distinct_denominators(dim, draw):
    # the lcm of each factor's denominators is what the kernel multiplies
    a = draw.draw(_wide_denominators(dim))
    b = draw.draw(_wide_denominators(dim))
    assert run("arith", "mul", "--dim", dim, "--", a, b)[0] in (0, 2)
    assert run("arith", "pow", "--dim", dim, "--", a, str(draw.draw(st.integers(0, 4))))[0] in (0, 2)


@FUZZ
@given(dim_elements, st.data(), st.integers(-3, 1100))
def test_divmod_any_elements_and_budget(dim_a, draw, budget):
    # budgets on both sides of the floor (1) and of the ceiling (1024); a
    # budget runs out only in dim 2
    dim, a = dim_a
    b = draw.draw(_element_texts(dim))
    argv = ("arith", "divmod", "--dim", dim, "--budget", str(budget))
    assert run(*argv, "--", a, b)[0] in ((0, 2) if dim == "1" else (0, 2, 3))


@FUZZ
@given(dim_elements, st.integers(), st.integers(-3, 1100))
def test_root_any_element_index_and_budget(dim_a, k, budget):
    # budgets on both sides of the floor (1) and of the ceiling (1024)
    dim, a = dim_a
    argv = ("arith", "root", "--dim", dim, "--budget", str(budget))
    assert run(*argv, "--", a, str(k))[0] in (0, 2, 3)


@FUZZ
@given(dim_elements, st.integers(), st.sampled_from(("up", "down")))
def test_b11_any_element_and_count(dim_a, count, direction):
    dim, a = dim_a
    argv = ("seq", "b11", "--dim", dim, "--count", str(count), "--direction", direction)
    assert run(*argv, "--", a)[0] in (0, 2, 3)


@FUZZ
@given(st.sampled_from(("e0", "e2")), dim_elements, st.integers(), st.sampled_from(("up", "down")))
def test_e0_e2_any_element_and_count(kind, dim_a, count, direction):
    dim, a = dim_a
    argv = ("seq", kind, "--dim", dim, "--count", str(count), "--direction", direction)
    assert run(*argv, "--", a)[0] in (0, 2)


@FUZZ
@given(dim_elements, st.data())
def test_equiv_level_four_any_elements(dim_a, draw):
    dim, a = dim_a
    b = draw.draw(_element_texts(dim))
    assert run("equiv", "--level", "4", "--dim", dim, "--", a, b)[0] in (0, 1, 2)


def _apply_file(dim: str, data: bytes, point: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        desc = pathlib.Path(tmp) / "d.json"
        desc.write_bytes(data)
        code, _ = run("apply", "--desc", str(desc), "--dim", dim, "--", point)
    return code


@FUZZ
@given(DIMS, st.binary(max_size=200), st.data())
def test_apply_any_file_bytes(dim, data, draw):
    assert _apply_file(dim, data, draw.draw(st.sampled_from(POINTS[dim]))) in (0, 2)


@FUZZ
@given(DIMS, json_values, st.data())
def test_apply_any_json_value(dim, value, draw):
    # json.dumps writes no int longer than int() converts unless allowed to
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        data = json.dumps(value).encode()
    finally:
        sys.set_int_max_str_digits(limit)
    assert _apply_file(dim, data, draw.draw(st.sampled_from(POINTS[dim]))) in (0, 2)


def _loads(load, value, dim):
    """What the loader makes of a value: an element or a lexarith error."""
    try:
        return load(value, dim)
    except LexarithError as exc:
        return exc


@FUZZ
@given(st.sampled_from((1, 2)), texts)
def test_parse_element_any_text(dim, text):
    assert isinstance(_loads(parse_element, text, dim), (Element, LexarithError))


@FUZZ
@given(st.sampled_from((1, 2)), elements | json_values)
def test_element_from_json_any_value(dim, value):
    assert isinstance(_loads(element_from_json, value, dim), (Element, LexarithError))


@FUZZ
@given(st.sampled_from((1, 2)), json_values)
def test_descriptor_from_json_any_value(dim, value):
    assert isinstance(_loads(descriptor_from_json, value, dim), (Descriptor, LexarithError))
