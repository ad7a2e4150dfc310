"""Closed-form deciders, witness synthesis, and the level-5 prover."""

import pytest

from lexarith import automorph, equiv, oracle, suites
from lexarith.automorph import prove_E5
from lexarith.equiv import decide, minimal_bound_n
from lexarith.errors import CannotProve, NotEquivalent, StandardInput
from lexarith.model import Element, deg, pow_int, sub
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
        check = oracle.check_witness

        def counted(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(equiv, "_synth_companion", lambda level, a, b: Element.integer(1, 1))
        monkeypatch.setattr(oracle, "check_witness", counted)
        with pytest.raises(AssertionError):
            decide(1, P("t + 5"), P("t"))
        assert len(checks) == 1

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
    def test_level4_closed_form_matches_search(self, dim):
        """The closed-form level-4 bound is the least n found by trying n = 1, 2, ..."""

        def least_n_by_search(a, b):
            da, db = deg(a), deg(b)
            lvl = da.level()
            (an, ad), (bn, bd) = da.component(lvl), db.component(lvl)
            cap = max(an * bd // (ad * bn), ad * bn // (an * bd)) + 2
            return next(n for n in range(1, cap + 1) if oracle.check_witness(4, a, b, BoundN(n)))

        s = Sampler(SampleProfile(dim=dim, seed=11))
        pairs = []
        for _ in range(60):
            pairs.append(suites.equivalent_pair(s, 4))
            c = s.nonstandard()
            k = s.integer(1, 3)
            ck = pow_int(c, k)
            # degree ties: a**k itself and its neighbours on either side
            pairs += [(c, ck), (ck + 1, c), (c, sub(ck, Element.integer(1, dim)))]
            if dim == 2:
                # first components tie, the second ones do not
                pairs.append((ck * Element.monomial(1, (0, s.integer(1, 3)), dim=2), c))
        for a, b in pairs:
            assert equiv._minimal_n(4, a, b) == least_n_by_search(a, b), (a, b)

    def test_not_equivalent(self):
        with pytest.raises(NotEquivalent):
            minimal_bound_n(2, P("t"), P("t^2"))
        with pytest.raises(ValueError):
            minimal_bound_n(1, P("t"), P("t"))


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
