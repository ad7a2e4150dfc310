"""Closed-form deciders, witness synthesis, and the level-5 prover."""

import itertools
import math

import pytest

from lexarith import automorph, equiv, oracle, suites
from lexarith.automorph import prove_E5
from lexarith.equiv import LEVELS, decide, minimal_bound_n, related
from lexarith.errors import CannotProve, InvariantViolation, NotEquivalent, StandardInput
from lexarith.model import Element, const_value, deg, divmod_floor, pow_int, sub
from lexarith.oracle import BoundN, Companion
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import parse_element


def P(text, dim=1):
    return parse_element(text, dim)


class TestDecide:
    def test_level0_positive_with_minimal_bound(self):
        v = decide(0, P("t^2 + 3"), P("t^2"))
        assert v.equivalent and v.witness == BoundN(4)
        # n = 3 fails one side of the defining condition, n = 4 passes
        assert not oracle.check_witness(0, P("t^2 + 3"), P("t^2"), BoundN(3))
        assert oracle.check_witness(0, P("t^2 + 3"), P("t^2"), BoundN(4))

    def test_wrong_synthesis_is_an_internal_error(self, monkeypatch):
        # one synthesis and one check: a witness that fails is never retried
        checks = []

        def rejecting(*args):
            checks.append(args)
            return False

        monkeypatch.setattr(oracle, "check_witness", rejecting)
        for level in LEVELS:
            checks.clear()
            with pytest.raises(AssertionError):
                decide(level, P("t + 5"), P("t"))
            assert len(checks) == 1, level

    def test_level2_negative(self):
        v = decide(2, P("t"), P("t^2"))
        assert not v.equivalent and v.witness is None
        assert v.reason["rule"] == "degrees-differ"

    def test_level1_positive(self):
        v = decide(1, P("t^2 + t"), P("t^2"))
        assert v.equivalent
        assert oracle.check_witness(1, P("t^2 + t"), P("t^2"), v.witness)

    def test_level3_dim2_positive(self):
        a, b = P("t^(1,0)", 2), P("t^(1,5)", 2)
        v = decide(3, a, b)
        assert v.equivalent
        assert v.witness == Companion(P("t^(0,6)", 2))
        assert oracle.check_witness(3, a, b, v.witness)

    def test_level3_dim2_negative(self):
        v = decide(3, P("t^(1,0)", 2), P("t^(2,0)", 2))
        assert not v.equivalent
        found = oracle.search(3, P("t^(1,0)", 2), P("t^(2,0)", 2), n_max=8)
        assert found is None

    def test_level3_collapses_to_level2_in_dim1(self):
        assert decide(3, P("t"), P("3*t")).equivalent
        assert not decide(3, P("t"), P("t^2")).equivalent

    def test_level4(self):
        assert decide(4, P("t^(1,0)", 2), P("t^(2,0)", 2)).witness == BoundN(3)
        assert not decide(4, P("t^(0,1)", 2), P("t^(1,0)", 2)).equivalent
        # dim 1: all nonstandard elements are polynomially linked
        assert decide(4, P("t"), P("t^9 + t")).equivalent

    def test_standard_inputs_rejected(self):
        with pytest.raises(StandardInput):
            decide(0, P("5"), P("t"))
        with pytest.raises(StandardInput):
            decide(2, P("t"), P("0"))

    def test_levels_outside_0_to_4_are_refused(self):
        a, b = P("t"), P("t + 1")
        for level in (-1, 5):
            for ask in (related, decide):
                with pytest.raises(InvariantViolation, match="undecidable level"):
                    ask(level, a, b)
            with pytest.raises(InvariantViolation, match="no searcher"):
                oracle.search(level, a, b)

    def test_positive_needs_witness(self):
        for level, a, b in [
            (0, P("t + 7"), P("t")),
            (1, P("t^2 + t"), P("t^2 + 2*t")),
            (2, P("t"), P("9*t + 4")),
            (3, P("t^(2,1)", 2), P("t^(2,3)", 2)),
            (4, P("t^2"), P("t^5")),
        ]:
            v = decide(level, a, b)
            assert v.equivalent and v.witness is not None
            assert oracle.check_witness(level, a, b, v.witness)


@pytest.mark.parametrize("dim", [1, 2])
def test_level1_closed_form_matches_the_definition(dim):
    # a == b, or the difference is dominated in degree by the elements
    s = Sampler(SampleProfile(dim=dim, seed=37))
    positive = 0
    for _ in range(400):
        a, b = suites.related_pair(s)
        literal = a == b or deg(sub(a, b) if a > b else sub(b, a)) < deg(a)
        assert related(1, a, b) == literal, (a, b)
        positive += literal
    assert 0 < positive < 400


class TestMinimalBound:
    def test_examples(self):
        assert minimal_bound_n(0, P("t^2 + 3"), P("t^2")) == 4
        assert minimal_bound_n(2, P("t"), P("3*t + 5")) == 4
        assert minimal_bound_n(4, P("t^2"), P("t^3")) == 2

    def test_minimality_bracketing(self):
        cases = [
            (0, P("t + 9"), P("t")),
            (2, P("t^(1,2) + 5", 2), P("7*t^(1,2)", 2)),
            (4, P("t"), P("t^7")),
        ]
        for level, a, b in cases:
            n = minimal_bound_n(level, a, b)
            assert oracle.check_witness(level, a, b, BoundN(n))
            assert not oracle.check_witness(level, a, b, BoundN(n - 1))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", [2, 4])
    def test_level4_closed_form_matches_search(self, level, dim):
        """The closed-form level-2 and level-4 bounds are the least n found by
        trying n = 1, 2, ... against the literal definition."""
        s = Sampler(SampleProfile(dim=dim, seed=11))
        one = Element.integer(1, dim)
        pairs = []
        for _ in range(60):
            pairs.append(suites.equivalent_pair(s, level))
            c = s.nonstandard()
            k = s.integer(1, 3)
            if level == 2:
                # ratio ties: c itself, k*c on either side, and its neighbours
                pairs += [(c, c), (c * k, c), (c, c * k), (c * k + 1, c), (sub(c * k, one), c)]
                continue
            ck = pow_int(c, k)
            # degree ties: a**k itself and its neighbours on either side
            pairs += [(c, ck), (ck + 1, c), (c, sub(ck, one))]
            if dim == 2:
                # first components tie, the second ones do not
                pairs.append((ck * Element.monomial(1, (0, s.integer(1, 3)), dim=2), c))
        for a, b in pairs:
            n = minimal_bound_n(level, a, b)
            # n passes its check, so the search below ends at n at the latest
            least = next(m for m in itertools.count(1) if oracle.check_witness(level, a, b, BoundN(m)))
            assert n == least, (a, b)

    def test_not_equivalent(self):
        with pytest.raises(NotEquivalent):
            minimal_bound_n(2, P("t"), P("t^2"))
        with pytest.raises(ValueError):
            minimal_bound_n(1, P("t"), P("t"))


def _bound_witness(level, n, dim):
    """The witness of bound n: a constant companion at level 3."""
    return Companion(Element.integer(n, dim)) if level == 3 else BoundN(n)


def _assert_least_bound(level, a, b):
    """decide's witness is the least n >= 1 the oracle accepts, counted up;
    at levels 2 and 3 it is also floor(hi/lo) + 1, by Euclidean division."""
    least = next(
        n for n in itertools.count(1) if oracle.check_witness(level, a, b, _bound_witness(level, n, a.dim))
    )
    assert decide(level, a, b).witness == _bound_witness(level, least, a.dim), (level, a, b)
    if level < 4:
        lo, hi = (a, b) if a <= b else (b, a)
        assert least == const_value(divmod_floor(hi, lo)[0]) + 1, (level, a, b)


class TestLeastBound:
    """The least bound at levels 2 and 4, and level 3's constant companion
    for a pair of equal degree, against the definition."""

    # (level, dim, a, b, least bound): ties of the leading terms that the
    # lower terms keep, and ties that they tip to the next n
    TABLE = [
        (2, 1, "2*t - 1", "t", 2),
        (2, 1, "2*t + 1", "t", 3),
        (2, 1, "t", "t", 2),
        (2, 1, "5*t", "2*t", 3),
        (4, 1, "t^2 - 1", "t", 2),
        (4, 1, "t^2", "t", 3),
        (4, 2, "t^(0,2) + 1", "t^(0,1)", 3),
        (4, 2, "t^(0,4)", "t^(0,2) + t^(0,1)", 2),
        (3, 2, "3*t^(1,0) + 1", "t^(1,0)", 4),
    ]

    @pytest.mark.parametrize("level, dim, a, b, n", TABLE)
    def test_table(self, level, dim, a, b, n):
        a, b = P(a, dim), P(b, dim)
        assert decide(level, a, b).witness == _bound_witness(level, n, dim)
        _assert_least_bound(level, a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_sampled_pairs(self, level, dim):
        s = Sampler(SampleProfile(dim=dim, seed=23))
        checked = 0
        for _ in range(40):
            a, b = suites.equivalent_pair(s, level)
            # level 3's companion is a constant only for equal degrees
            if level != 3 or deg(a) == deg(b):
                _assert_least_bound(level, a, b)
                checked += 1
        assert checked > 0


def _counting_below(monkeypatch):
    """The n of every ``below`` call the least bound makes: mul_lt at levels
    2 and 3, pow_lt at level 4, counted in equiv only (the oracle's check
    keeps its own)."""
    calls = []
    for name in ("mul_lt", "pow_lt"):
        def counted(a, b, n, real=getattr(equiv, name)):
            calls.append(n)
            return real(a, b, n)

        monkeypatch.setattr(equiv, name, counted)
    return calls


def _leading_tie(level, a, b):
    """Whether the leading terms tie at n = max(ceil(x/y), ceil(y/x)), from
    the public views: x and y are the leading coefficients at levels 2 and
    3, the degrees' first nonzero components at level 4."""
    if level == 4:
        lvl = deg(a).level()
        x, y = deg(a).components[lvl], deg(b).components[lvl]
    else:
        x, y = a.terms()[0].coeff, b.terms()[0].coeff
    n = max(math.ceil(x / y), math.ceil(y / x))
    return x == n * y or y == n * x


class TestLeastBoundReadsLowerTermsOnlyOnATie:
    # (level, dim, a, b, least bound) with no leading tie at the first
    # candidate n: the leading terms alone decide
    UNTIED = [
        (2, 1, "5*t", "2*t", 3),
        (2, 1, "7*t + 3", "2*t", 4),
        (2, 2, "2*t^(1,1) + t^(0,5)", "5*t^(1,1)", 3),
        (3, 2, "5*t^(1,0) + 1", "2*t^(1,0)", 3),
        (4, 1, "t^3", "t^2 + 9", 2),
        (4, 2, "t^(0,3) + t^(0,1)", "t^(0,2)", 2),
    ]

    @pytest.mark.parametrize("level, dim, a, b, n", UNTIED)
    def test_no_tie_makes_no_below_call(self, monkeypatch, level, dim, a, b, n):
        calls = _counting_below(monkeypatch)
        a, b = P(a, dim), P(b, dim)
        assert not _leading_tie(level, a, b)
        assert decide(level, a, b).witness == _bound_witness(level, n, dim)
        assert calls == []
        _assert_least_bound(level, a, b)

    @pytest.mark.parametrize(
        "level, dim, a, b, n", [row for row in TestLeastBound.TABLE if row[2:4] != ("5*t", "2*t")]
    )
    def test_a_tie_is_settled_by_below(self, monkeypatch, level, dim, a, b, n):
        calls = _counting_below(monkeypatch)
        a, b = P(a, dim), P(b, dim)
        assert _leading_tie(level, a, b)
        assert decide(level, a, b).witness == _bound_witness(level, n, dim)
        assert calls

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_sampled_pairs_call_below_exactly_on_a_tie(self, monkeypatch, level, dim):
        calls = _counting_below(monkeypatch)
        s = Sampler(SampleProfile(dim=dim, seed=23))
        seen = set()
        for _ in range(60):
            # leading ratios p/q, with lower terms that keep or tip a tie
            c, p, q = s.nonstandard(), s.integer(1, 5), s.integer(1, 5)
            if level == 4:
                a, b = pow_int(c, p), pow_int(c, q) + s.integer(0, 3)
            else:
                a, b = c * p, c * q + s.integer(0, 3)
            calls.clear()
            decide(level, a, b)
            tie = _leading_tie(level, a, b)
            assert bool(calls) == tie, (level, a, b, calls)
            seen.add(tie)
            _assert_least_bound(level, a, b)
        assert seen == {True, False}


class TestCompanion:
    def test_level1(self):
        # the difference plus one
        assert decide(1, P("t^2 + t"), P("t^2")).witness == Companion(P("t + 1"))

    def test_level3_gap_formula(self):
        assert decide(3, P("t^(1,2)", 2), P("t^(1,7)", 2)).witness == Companion(P("t^(0,6)", 2))

    def test_reflexive_level3_uses_constant_two(self):
        a = P("t^3 + t")
        assert decide(3, a, a).witness == Companion(P("2"))

    def test_not_equivalent(self):
        assert not decide(3, P("t^(1,0)", 2), P("t^(2,0)", 2)).equivalent


class TestProveE5:
    def test_level2_route(self):
        d = prove_E5(P("t"), P("2*t + 1"))
        assert automorph.apply(d, P("t")) == P("2*t + 1")

    def test_level3_route(self):
        a, b = P("t^(1,0)", 2), P("t^(1,1)", 2)
        d = prove_E5(a, b)
        assert automorph.apply(d, a) == b

    def test_no_route(self):
        with pytest.raises(CannotProve):
            prove_E5(P("t"), P("t^2"))


class TestSeparationExhibits:
    """The canonical pairs certifying that each level refines the next strictly."""

    def test_e0_strict_in_e1(self):
        a, b = P("t^2 + t"), P("t^2")
        assert not decide(0, a, b).equivalent
        assert decide(1, a, b).equivalent

    def test_e1_strict_in_e2(self):
        a, b = P("t^2"), P("2*t^2")
        assert not decide(1, a, b).equivalent
        assert decide(2, a, b).equivalent

    def test_e2_strict_in_e3_dim2(self):
        a, b = P("t^(1,0)", 2), P("t^(1,1)", 2)
        assert not decide(2, a, b).equivalent
        assert decide(3, a, b).equivalent

    def test_e3_strict_in_e4_dim2(self):
        a, b = P("t^(1,0)", 2), P("t^(2,0)", 2)
        assert not decide(3, a, b).equivalent
        assert decide(4, a, b).equivalent
