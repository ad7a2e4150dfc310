"""Grammar, rendering, and round-trips."""

from fractions import Fraction

import pytest

from lexarith import jsonio
from lexarith.errors import InvariantViolation, ParseError
from lexarith.model import Element
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import format_element, format_rational, parse_element


def test_parse_examples():
    e = parse_element("t^2 + 3*t + 1", 1)
    assert format_element(e) == "t^2 + 3*t + 1"
    e2 = parse_element("t^(1,0) + 2*t^(0,1/2) + 5", 2)
    assert len(e2.terms()) == 3


def test_noninteger_constant_rejected():
    with pytest.raises(InvariantViolation):
        parse_element("t + 1/2", 1)


def test_format_examples():
    assert format_element(parse_element("t^2+1", 1)) == "t^2 + 1"
    assert format_element(Element.zero(1)) == "0"
    assert format_element(parse_element("t^(1,1)", 2)) == "t^(1,1)"


def test_whitespace_insensitive():
    assert parse_element(" t^2+3*t \t+ 1 ", 1) == parse_element("t^2 + 3*t + 1", 1)


def test_signs_and_merging():
    assert parse_element("-t + t^2 + 2*t", 1) == parse_element("t^2 + t", 1)
    assert parse_element("t - t", 1).is_zero()
    with pytest.raises(InvariantViolation):
        parse_element("t - t^2", 1)  # negative result


def test_fractional_exponents():
    e = parse_element("t^(3/2) + 2*t^(1/2)", 1)
    assert format_element(e) == "t^(3/2) + 2*t^(1/2)"
    assert parse_element("t^3/2", 1) == parse_element("t^(3/2)", 1)


def test_negative_second_component():
    e = parse_element("t^(1,-5) + 4", 2)
    assert format_element(e) == "t^(1,-5) + 4"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_element("t^2 + $", 1)
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_element("", 1)
    with pytest.raises(ParseError):
        parse_element("t^(1,2)", 1)  # dim mismatch
    with pytest.raises(ParseError):
        parse_element("t^(1)", 2)
    with pytest.raises(ParseError):
        parse_element("t^(1/0)", 1)
    with pytest.raises(ParseError):
        parse_element("3 * ", 1)
    with pytest.raises(ParseError) as exc:
        parse_element("t^2", 2)  # a bare exponent in dim 2
    assert (exc.value.position, exc.value.expected) == (2, "'(' starting a dim-2 exponent")
    with pytest.raises(ParseError) as exc:
        parse_element("t^(1", 1)  # an unclosed exponent
    assert (exc.value.position, exc.value.expected, exc.value.found) == (4, "')'", "end of input")
    for text in ("t^\u0663", "t^\u00b2"):  # an Arabic-Indic three, a superscript two
        with pytest.raises(ParseError) as exc:
            parse_element(text, 1)
        assert exc.value.position == 2 and exc.value.expected == "digits", text


@pytest.mark.parametrize("dim", [1, 2])
def test_roundtrip_sampled(dim):
    s = Sampler(SampleProfile(dim=dim, seed=99))
    for _ in range(300):
        e = s.element()
        assert parse_element(format_element(e), dim) == e


def test_sampler_determinism():
    p = SampleProfile(dim=2, seed=1)
    s1 = [Sampler(p).element() for _ in range(1)]
    s2 = [Sampler(p).element() for _ in range(1)]
    assert s1 == s2


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "5", "-7", "7/2", "-7/2", "12/4", "-123456789/1000", "1000000007/998244353", "007/010"],
)
def test_rational_codec_matches_fraction(text):
    f = Fraction(text)
    r = jsonio.rational_from_json(text)
    assert r == (f.numerator, f.denominator)
    assert format_rational(r) == str(f)
    assert parse_element(f"t^(2,{text})", 2) == Element([((2, f), 1)], 2)
    e = Element([((2, r), 1)] + ([((1, r), r)] if r[0] else []), 2)
    assert parse_element(format_element(e), 2) == e
    doc = jsonio.element_to_json(e)
    assert doc["terms"][0]["exp"] == ["2", str(f)]
    assert jsonio.element_from_json(doc, 2) == e


@pytest.mark.parametrize("text, position", [("1" * 5000, 0), ("t^" + "1" * 5000, 2)], ids=["coefficient", "exponent"])
def test_overlong_digit_run_is_a_parse_error(text, position):
    # more digits than the interpreter's int-string limit
    with pytest.raises(ParseError) as info:
        parse_element(text, 1)
    assert info.value.position == position
