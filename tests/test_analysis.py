"""Class sequences, root-based boundaries, and the rational embedding."""

from fractions import Fraction

import pytest

from lexarith import analysis as an
from lexarith.equiv import decide
from lexarith.errors import (
    CoefficientNotRepresentable,
    InvariantViolation,
    NotE4Equivalent,
    StandardInput,
)
from lexarith.model import Element, pow_int
from lexarith.textform import parse_element


def P(text, dim=1):
    return parse_element(text, dim)


@pytest.mark.parametrize("seq", [an.e0_seq, an.e2_seq, an.b11_seq])
def test_negative_count_rejected(seq):
    with pytest.raises(InvariantViolation):
        seq(P("t^2"), -1, "up")
    assert seq(P("t^2"), 0, "up").terms == ()


@pytest.mark.parametrize("seq", [an.e0_seq, an.e2_seq, an.b11_seq])
def test_bad_direction_rejected_before_any_term(monkeypatch, seq):
    calls = []
    root_floor = an.root_floor
    monkeypatch.setattr(an, "root_floor", lambda *args: calls.append(args) or root_floor(*args))
    with pytest.raises(InvariantViolation, match="direction"):
        seq(P("t^2"), 3, "sideways")
    assert calls == []


class TestE0Seq:
    def test_terms(self):
        assert [t for t in an.e0_seq(P("t"), 3, "up").terms] == [P("t"), P("t + 1"), P("t + 2")]
        assert [t for t in an.e0_seq(P("t"), 2, "down").terms] == [P("t"), P("t - 1")]

    def test_cofinality_from_witness(self):
        a, b = P("t"), P("t + 17")
        idx = an.e0_passing_index(a, b)
        assert idx == 18
        assert an.e0_seq(a, idx + 1, "up").terms[idx] > b
        assert an.e0_seq(a, idx + 1, "down").terms[idx] < b

    def test_terms_stay_in_class(self):
        for t in an.e0_seq(P("t^(1,1) + 2", 2), 5, "down").terms:
            assert decide(0, P("t^(1,1) + 2", 2), t).equivalent

    def test_standard_base_rejected(self):
        with pytest.raises(InvariantViolation):
            an.e0_seq(P("7"), 3, "up")


class TestE2Seq:
    def test_terms_up(self):
        assert list(an.e2_seq(P("t^2"), 3, "up").terms) == [P("t^2"), P("2*t^2"), P("3*t^2")]

    def test_terms_down_uses_ceiling_division(self):
        terms = an.e2_seq(P("t^2"), 3, "down").terms
        assert list(terms) == [P("t^2"), P("1/2*t^2"), P("1/3*t^2")]
        # min{b : n*b >= a} exactly: b*n >= a and (b-1)*n < a
        a = P("t^2 + 3")
        for n, b in enumerate(an.e2_seq(a, 4, "down").terms, start=1):
            assert b * n >= a
            assert (b - 1) * n < a

    def test_coinitiality_from_witness(self):
        a, b = P("t^2"), P("1/4*t^2")
        idx = an.e2_passing_index(a, b, "down")
        assert an.e2_seq(a, idx, "down").terms[idx - 1] < b
        up_idx = an.e2_passing_index(a, b, "up")
        assert an.e2_seq(a, up_idx, "up").terms[up_idx - 1] > b


class TestB11Seq:
    def test_upper_terms(self):
        seq = an.b11_seq(P("t^2"), 2, "up")
        assert list(seq.terms) == [P("t^3"), P("t^(5/2)")]
        # defining max-predicate holds, +1 and next multiple refute it
        a = P("t^2")
        for n, term in enumerate(seq.terms, start=1):
            assert an.b11_upper_holds(a, n, term)
            assert not an.b11_upper_holds(a, n, term + 1)
            assert not an.b11_upper_holds(a, n, term + a)

    def test_lower_terms(self):
        seq = an.b11_seq(P("t^2"), 2, "down")
        assert list(seq.terms) == [P("t"), P("t^(3/2)")]
        a = P("t^2")
        for n, term in enumerate(seq.terms, start=1):
            assert an.b11_lower_holds(a, n, term)
            assert not an.b11_lower_holds(a, n, term + 1)

    def test_terms_bound_the_class(self):
        a = P("t^2 + t")
        up = an.b11_seq(a, 2, "up").terms
        down = an.b11_seq(a, 2, "down").terms
        for mate in (a, a * 5, a + 40):
            assert all(t > mate for t in up)
            assert all(t < mate for t in down)

    def test_partiality_propagates(self):
        with pytest.raises(CoefficientNotRepresentable):
            an.b11_seq(P("2*t^2"), 1, "up")


class TestRealEmbed:
    def test_examples(self):
        anchor = P("t^(1,0)", 2)
        assert an.real_embed(anchor, P("t^(2,3)", 2)).value == 2
        assert an.real_embed(anchor, anchor).value == 1

    def test_additivity_over_products(self):
        anchor = P("t^(1,0)", 2)
        b1, b2 = P("t^(2,3)", 2), P("t^(3,1)", 2)
        v1 = an.real_embed(anchor, b1).value
        v2 = an.real_embed(anchor, b2).value
        v12 = an.real_embed(anchor * anchor, b1 * b2).value
        assert v12 == v1 + v2 == 5

    def test_constant_on_level3_classes(self):
        anchor = P("t^(1,0)", 2)
        b1, b2 = P("t^(3/2,1) + t^(1,5)", 2), P("9*t^(3/2,-4)", 2)
        assert decide(3, b1, b2).equivalent
        assert an.real_embed(anchor, b1).value == an.real_embed(anchor, b2).value == Fraction(3, 2)

    def test_degenerate_class_flag(self):
        anchor = P("t^(0,1)", 2)
        r = an.real_embed(anchor, P("t^(0,5)", 2))
        assert r.degenerate and r.value == 5

    def test_not_in_class(self):
        with pytest.raises(NotE4Equivalent):
            an.real_embed(P("t^(1,0)", 2), P("t^(0,1)", 2))
        with pytest.raises(StandardInput):
            an.real_embed(P("t^(1,0)", 2), P("3", 2))
