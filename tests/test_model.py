"""Arithmetic, order, division and roots of the concrete model."""

import re
from fractions import Fraction

import pytest

from lexarith import model
from lexarith._backend import kernel as K
from lexarith.errors import (
    CoefficientNotRepresentable,
    InvariantViolation,
    NonTerminatingQuotient,
    ResourceLimit,
    Underflow,
)
from lexarith.model import (
    MAX_DIV_BUDGET,
    MAX_POW_BITS,
    Element,
    Exponent,
    cmp,
    const_value,
    deg,
    divmod_floor,
    divmod_scalar,
    from_key,
    is_standard,
    monomial_inverse,
    mul_lt,
    pow_int,
    pow_lt,
    root_floor,
    split_const,
    split_level,
    sub,
    trunc_const,
)
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import format_element, parse_element


def P(text, dim=1):
    return parse_element(text, dim)


class TestExponent:
    def test_lexicographic_order(self):
        assert Exponent([1, 0]) > Exponent([0, 9])
        assert Exponent([0, 1]) > Exponent([0, 0])
        assert Exponent([Fraction(1, 2)]) < Exponent([1])

    def test_group_operations(self):
        e = Exponent([1, Fraction(-1, 2)]) + Exponent([0, 2])
        assert e == Exponent([1, Fraction(3, 2)])
        assert e - e == Exponent.zero(2)
        assert Exponent([2, 4]) * Fraction(1, 2) == Exponent([1, 2])

    def test_levels(self):
        assert Exponent([1, 0]).level() == 0
        assert Exponent([0, 3]).level() == 1
        assert Exponent.zero(2).level() == 2


class TestInvariants:
    def test_rejects_negative_exponent(self):
        with pytest.raises(InvariantViolation):
            Element([((Fraction(-1),), 1)], 1)

    def test_rejects_fractional_constant(self):
        with pytest.raises(InvariantViolation):
            Element([((Fraction(0),), Fraction(1, 2))], 1)

    def test_rejects_negative_leading(self):
        with pytest.raises(InvariantViolation):
            Element([((Fraction(1),), -1)], 1)
        with pytest.raises(InvariantViolation):
            Element.integer(-3, 1)

    def test_rejects_string_rationals(self):
        with pytest.raises(TypeError):
            Element.monomial("1/2", (1,))
        with pytest.raises(TypeError):
            Element.monomial(1, ("1/2",))

    def test_pairs_are_reduced_on_the_way_in(self):
        assert Element.monomial((2, 4), ((4, 2), (0, 7))).raw == ((((2, 1), (0, 1)), (1, 2)),)

    def test_dim2_mixed_sign_exponent_is_legal(self):
        e = P("t^(1,-5)", 2)
        assert deg(e) == Exponent([1, -5])

    def test_interior_negative_coefficients_are_legal(self):
        e = P("t^2 - t + 3", 1)
        assert e > Element.zero(1)

    def test_config_validation(self):
        # dimension and budget are checked where they are read
        with pytest.raises(InvariantViolation):
            Element([], 3)
        with pytest.raises(InvariantViolation):
            Exponent((1, 2, 3))
        with pytest.raises(InvariantViolation):
            divmod_floor(P("t^2"), P("t"), budget=0)


class TestAddMul:
    def test_add_examples(self):
        assert P("t^2 + t") + P("t + 1") == P("t^2 + 2*t + 1")
        a = P("t^2 + 5")
        assert a + Element.zero(1) == a

    def test_lex_merge(self):
        e = P("t^(1,0)", 2) + P("t^(0,1)", 2)
        assert deg(e) == Exponent([1, 0])
        assert len(e.terms()) == 2

    def test_mul_examples(self):
        assert P("t") * P("t") == P("t^2")
        assert P("t + 1") * P("t + 1") == P("t^2 + 2*t + 1")
        assert P("t^(1,0)", 2) * P("t^(0,1)", 2) == P("t^(1,1)", 2)

    def test_sub_examples(self):
        assert sub(P("t^2 + 2*t"), P("t")) == P("t^2 + t")
        a = P("t^2 + 3")
        assert sub(a, a) == Element.zero(1)
        with pytest.raises(Underflow):
            sub(P("t"), P("t^2"))

    def test_sub_is_inverse_of_add(self):
        a, b = P("t^(2,1) + 4", 2), P("t^(1,-3) + t^(0,2)", 2)
        assert sub(a + b, b) == a

    @pytest.mark.parametrize("text,dim", [
        ("0", 1), ("3", 1), ("t", 1), ("t + 2", 1), ("1/2*t^(1/3) + 5", 1),
        ("0", 2), ("4", 2), ("t^(0,1)", 2), ("t^(1,-2) + 1", 2),
    ])
    def test_add_int_agrees_with_element_arithmetic(self, text, dim):
        # a + n and a - n with an int n of either sign, against the element n
        a = P(text, dim)
        for n in range(-6, 7):
            k = Element.integer(abs(n), dim)
            if n >= 0:
                assert a + n == a + k
                assert a - -n == a + k
            elif k <= a:
                assert a + n == sub(a, k)
                assert a - -n == sub(a, k)
            else:
                message = f"^{re.escape(f'{k!r} > {a!r}')}$"
                with pytest.raises(Underflow, match=message):
                    a + n
                with pytest.raises(Underflow, match=message):
                    a - -n


class TestOrder:
    def test_nonstandard_dominates(self):
        assert cmp(P("t"), P("1000")) > 0

    def test_translation(self):
        assert cmp(P("t + 1"), P("t + 2")) < 0

    def test_lex(self):
        assert cmp(P("t^(1,0)", 2), P("t^(0,9)", 2)) > 0

    def test_discreteness_via_sub(self):
        # x < y implies x + 1 <= y: the difference is never a proper fraction
        pairs = [(P("t"), P("t + 1")), (P("t^(1,0)", 2), P("t^(1,1)", 2))]
        for x, y in pairs:
            assert sub(y, x) >= Element.integer(1, x.dim)


class TestDivision:
    def test_divmod_scalar_examples(self):
        q, r = divmod_scalar(P("t + 1"), 2)
        assert (q, r) == (P("1/2*t"), 1)
        assert q * 2 + r == P("t + 1")
        assert divmod_scalar(P("6"), 4) == (P("1"), 2)
        q, r = divmod_scalar(P("3*t^2 + 5"), 3)
        assert (q, r) == (P("t^2 + 1"), 2)

    def test_divmod_examples(self):
        assert divmod_floor(P("t^2 + 1"), P("t")) == (P("t"), P("1"))
        q, r = divmod_floor(P("t^2"), P("t^(3/2)"))
        assert q == P("t^(1/2)") and r.is_zero()
        assert q * P("t^(3/2)") + r == P("t^2")

    def test_divmod_contract_rechecked(self):
        a, b = P("t^(2,0) + 3*t^(1,1) + 7", 2), P("t^(1,0) + 2", 2)
        q, r = divmod_floor(a, b)
        assert q * b + r == a
        assert Element.zero(2) <= r < b

    def test_nonterminating_quotient(self):
        a = P("t^(2,0)", 2)
        b = P("t^(1,0) - t^(1,-1)", 2)
        with pytest.raises(NonTerminatingQuotient):
            divmod_floor(a, b)

    def test_budget_controls_nontermination(self):
        # terminating expansion of exactly two quotient terms: a budget of two
        # is enough, and one is not
        a = P("t^(2,0)", 2)
        b = P("t^(1,0) - t^(0,5)", 2)
        assert divmod_floor(a, b, budget=2) == (P("t^(1,0) + t^(0,5)", 2), P("t^(0,10)", 2))
        message = "^quotient expansion exceeded 1 nonnegative-exponent terms$"
        with pytest.raises(NonTerminatingQuotient, match=message):
            divmod_floor(a, b, budget=1)

    def test_budget_below_one_is_a_usage_error(self):
        for budget in (0, -1):
            with pytest.raises(InvariantViolation):
                divmod_floor(P("t^2"), P("t"), budget)
            with pytest.raises(InvariantViolation):
                root_floor(P("t^2"), 2, budget)

    def test_budget_above_the_ceiling_is_a_resource_limit(self):
        # refused before any work, in both dims and for roots too
        for a, b, dim in (("t^2", "t", 1), ("t^(2,0)", "t^(1,0)", 2)):
            with pytest.raises(ResourceLimit):
                divmod_floor(P(a, dim), P(b, dim), MAX_DIV_BUDGET + 1)
            with pytest.raises(ResourceLimit):
                root_floor(P(a, dim), 2, MAX_DIV_BUDGET + 1)
        assert divmod_floor(P("t^2"), P("t"), MAX_DIV_BUDGET)[0] == P("t")

    def test_dim1_divmod_total(self):
        # the same shape that diverges in dim 2 terminates in dim 1
        a, b = P("t^2"), P("t - 1")
        q, r = divmod_floor(a, b)
        assert q * b + r == a and r < b

    def test_dim1_total_beyond_budget(self):
        # 72 nonnegative-exponent quotient terms: the budget is a dim-2 guard only
        a, b = P("t^9"), P("t^(1/8) - 1")
        q, r = divmod_floor(a, b, budget=4)
        assert q * b + r == a and r < b
        assert len(q.terms()) == 72

    def test_floor_quotient_examples(self):
        q = divmod_floor(P("t + 3"), P("t"))[0]
        assert q == P("1")
        assert q * P("t") <= P("t + 3") < (q + 1) * P("t")
        a = P("t^2 + 4*t + 1")
        assert divmod_floor(a, P("1"))[0] == a
        assert divmod_floor(P("t"), P("t^2"))[0].is_zero()


class TestWork:
    """Exponent comparisons, counted in the kernel, stay linear in the terms
    built where no merge is needed.  ``model.exponent_key`` holds the
    original comparison, so a sort through it is not counted."""

    @pytest.fixture
    def comparisons(self, monkeypatch):
        exp_cmp = K.exp_cmp
        calls = [0]

        def counted(e, f):
            calls[0] += 1
            return exp_cmp(e, f)

        monkeypatch.setattr(K, "exp_cmp", counted)
        return calls

    def test_quotient_terms_are_appended(self, comparisons):
        # every step of this dim-2 division leaves a two-term remainder
        budget = MAX_DIV_BUDGET
        with pytest.raises(NonTerminatingQuotient):
            divmod_floor(P("t^(2,0)", 2), P("t^(1,0) - t^(1,-1)", 2), budget)
        assert comparisons[0] <= 20 * budget

    def test_parsed_terms_are_collected_once(self, comparisons):
        n = 2000
        text = format_element(Element([((k,), 1) for k in range(1, n + 1)], 1))
        comparisons[0] = 0
        assert len(parse_element(text, 1).raw) == n
        assert comparisons[0] <= 20 * n

    def test_root_expansion_is_sized_before_the_coefficients(self, monkeypatch):
        # the tail leads with t^(0,-1) and the window reaches t^(-1,0), so
        # every power of the tail has a term in it: the budget is exhausted
        # on exponents alone, with one multiply for the tail
        terms_mul = K.terms_mul
        calls = [0]

        def counted(A, B):
            calls[0] += 1
            return terms_mul(A, B)

        monkeypatch.setattr(K, "terms_mul", counted)
        with pytest.raises(NonTerminatingQuotient):
            root_floor(P("t^(2,0) + t^(2,-1) + t^(2,-3)", 2), 2, MAX_DIV_BUDGET)
        assert calls[0] <= 2


class TestPowRoot:
    def test_pow_examples(self):
        assert pow_int(P("t"), 3) == P("t^3")
        assert pow_int(P("t^2 + 7"), 0) == P("1")
        assert pow_int(P("t + 1"), 2) == P("t^2 + 2*t + 1")

    def test_power_term_ceiling(self):
        # exponents 2^i: the square has a term for each pair i <= j
        def sidon(n):
            return Element([((2**i,), 1) for i in range(n)], 1)

        assert len(pow_int(sidon(44), 2).raw) == 44 * 45 // 2 <= MAX_DIV_BUDGET
        with pytest.raises(ResourceLimit, match="exceeded 1024 terms"):
            pow_int(sidon(45), 2)

    def test_power_product_ceiling_refuses_before_the_multiply(self, monkeypatch):
        terms_mul = K.terms_mul
        products = []

        def recorded(A, B):
            # the kernel refuses inside the call: record the calls that return
            xy = terms_mul(A, B)
            products.append(len(A) * len(B))
            return xy

        monkeypatch.setattr(K, "terms_mul", recorded)
        # the next squaring would be of the 257-term (t^2 - 10)^256
        with pytest.raises(ResourceLimit, match="257x257"):
            pow_int(P("t^2 - 10"), 1214)
        assert max(products) <= K.MAX_MUL_PRODUCTS

    def test_power_bit_ceiling(self):
        n = MAX_POW_BITS
        assert pow_int(P("2*t"), n).raw[0][1] == (2**n, 1)
        with pytest.raises(ResourceLimit, match="2-bit coefficient"):
            pow_int(P("2*t"), n + 1)
        with pytest.raises(ResourceLimit, match="2-bit coefficient"):
            pow_lt(P(f"t^{n + 1}"), P("2*t"), n + 1)

    def test_root_floor_examples(self):
        assert root_floor(P("t^2"), 2) == P("t")
        m = root_floor(P("t^2 + 2*t"), 2)
        assert m == P("t")
        assert pow_int(m, 2) <= P("t^2 + 2*t") < pow_int(m + 1, 2)

    def test_root_floor_irrational_leading(self):
        with pytest.raises(CoefficientNotRepresentable):
            root_floor(P("2*t^2"), 2)

    def test_root_floor_standard(self):
        assert root_floor(Element.integer(17, 1), 2) == Element.integer(4, 1)
        assert root_floor(Element.integer(16, 1), 2) == Element.integer(4, 1)

    def test_root_floor_contract_with_offsets(self):
        for text, k in [("t^4 + t^2 + 9", 2), ("t^3 + 5", 3), ("t^(2,4) + t^(1,1)", 2)]:
            dim = 2 if "," in text else 1
            a = P(text, dim)
            m = root_floor(a, k)
            assert pow_int(m, k) <= a < pow_int(m + 1, k)

    def test_root_floor_lands_one_step_down(self):
        a = P("4*t^(5/3,3/2) + 5/3*t^(3/2,2) + 1", 2)
        m = root_floor(a, 2)
        assert pow_int(m, 2) <= a < pow_int(m + 1, 2)
        # the truncated expansion has no constant term; the floor is one below it
        assert const_value(m) == -1

    def test_root_floor_nonterminating_dim2(self):
        with pytest.raises(NonTerminatingQuotient):
            root_floor(P("t^(2,0) + t^(2,-1)", 2), 2)

    def test_root_floor_budget_boundary(self):
        # (t^(5,6) + 3)^2 + 4: one expansion step has an exponent in the
        # window, so a budget of 1 is exhausted and a budget of 2 is not
        a = P("t^(10,12) + 6*t^(5,6) + 13", 2)
        with pytest.raises(NonTerminatingQuotient) as info:
            root_floor(a, 2, 1)
        assert str(info.value) == "root expansion exceeded 1 terms with nonnegative exponent"
        assert root_floor(a, 2, 2) == P("t^(5,6) + 3", 2)

    @pytest.mark.xfail(
        strict=True,
        raises=NonTerminatingQuotient,
        reason="the dim-2 series does not see that the expansion of an exact power "
        "cancels; a fix changes the suite outputs pinned in perfbench/pins.json, "
        "so it waits for a change that pins them again",
    )
    def test_root_floor_of_an_exact_dim2_square(self):
        m = P("t^(1,0) + t^(1,-1)", 2)
        a = pow_int(m, 2)
        assert divmod_floor(a, m) == (m, P("0", 2))
        assert root_floor(a, 2) == m


class TestPowLt:
    """``pow_lt(x, y, n)`` against its literal definition ``x < pow_int(y, n)``."""

    @staticmethod
    def cases(dim):
        s = Sampler(SampleProfile(dim=dim, seed=31))
        one = Element.integer(1, dim)
        bases = [Element.zero(dim), one, Element.integer(3, dim)] + [s.element() for _ in range(40)]
        for y in bases:
            for n in range(7):
                power = pow_int(y, n)
                # sampled x, exact ties, and ties of the degree alone
                xs = [s.element(), s.element(), Element.zero(dim), power, power + one, power * 2]
                if power:
                    xs += [sub(power, one), divmod_scalar(power, 2)[0], power + y]
                for x in xs:
                    yield x, y, n, power

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_literal_comparison(self, dim):
        lead_ties = 0
        for x, y, n, power in self.cases(dim):
            assert pow_lt(x, y, n) == (x < power), (x, y, n)
            lead_ties += bool(x) and bool(power) and x.raw[0] == power.raw[0]
        assert lead_ties > 300

    def test_usage_errors_match_pow_int(self):
        with pytest.raises(InvariantViolation):
            pow_lt(P("t"), P("t"), -1)
        with pytest.raises(InvariantViolation):
            pow_lt(P("t"), P("t^(1,0)", 2), 2)

    def test_a_power_too_large_to_build_is_decided_on_its_leading_terms(self):
        # 20 terms t^(1 + 1/p), one for each prime p up to 71: b**2 has 210
        # terms and b**4 more than MAX_DIV_BUDGET, while t^1000 clears
        # t^(4*(1 + 1/2)) on degrees alone
        primes = [p for p in range(2, 72) if all(p % q for q in range(2, p))]
        b = Element([((Fraction(p + 1, p),), 1) for p in primes], 1)
        assert len(primes) == 20
        with pytest.raises(ResourceLimit, match="power exceeded 1024 terms"):
            pow_int(b, 4)
        assert pow_lt(P("t^1000"), b, 4) is False


class TestMulLt:
    """``mul_lt(x, y, c)`` against its literal definition ``x < y * c``."""

    @staticmethod
    def cases(dim):
        s = Sampler(SampleProfile(dim=dim, seed=37))
        one = Element.integer(1, dim)
        ys = [Element.zero(dim), one, Element.integer(3, dim)] + [s.element() for _ in range(30)]
        for y in ys:
            # c: a sampled element, a monomial, a constant, an int, and zeros
            mono = Element([(deg(s.nonstandard()) if s.chance(0.5) else [0] * dim, 1)], dim)
            for c in (s.element(), mono, Element.integer(s.integer(0, 4), dim), s.integer(0, 5), 0, Element.zero(dim)):
                product = y * c
                # sampled x, exact ties, and ties of the degree alone
                xs = [s.element(), Element.zero(dim), product, product + one, product * 2]
                if product:
                    xs += [sub(product, one), divmod_scalar(product, 2)[0]]
                for x in xs:
                    yield x, y, c, product

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_literal_comparison(self, dim):
        lead_ties = 0
        for x, y, c, product in self.cases(dim):
            assert mul_lt(x, y, c) == (x < product), (x, y, c)
            lead_ties += bool(x) and bool(product) and x.raw[0] == product.raw[0]
        assert lead_ties > 250

    def test_usage_errors_match_the_product(self):
        for c, error in ((-1, "negative integer"), (P("t^(1,0)", 2), "dimension mismatch")):
            with pytest.raises(InvariantViolation, match=error):
                P("t") * c
            with pytest.raises(InvariantViolation, match=error):
                mul_lt(P("t"), P("t"), c)

    def test_a_product_too_large_to_build_is_decided_on_its_leading_terms(self):
        # 257 terms times 257 terms is past the kernel's product ceiling
        y = Element([((k,), 1) for k in range(257)], 1)
        with pytest.raises(ResourceLimit, match="257x257 term products"):
            y * y
        assert mul_lt(P("t^1000"), y, y) is False
        assert mul_lt(P("t^100"), y, y) is True


class TestStandardness:
    def test_examples(self):
        assert is_standard(P("7"))
        assert not is_standard(P("t"))
        assert is_standard(Element.zero(1))

    def test_deg(self):
        assert deg(P("t^2 + t")) == Exponent([2])
        assert deg(P("5")) == Exponent([0])
        assert deg(Element.zero(1)) is None

    def test_trunc_const(self):
        assert trunc_const(P("t^2 - t + 9")) == P("t^2 - t")
        assert trunc_const(P("42")).is_zero()


def _keyed_samples(dim, seed, count=200):
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    return [s.element() for _ in range(count)] + [Element.zero(dim), Element.integer(5, dim)]


class TestClassKeys:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_split_const_and_from_key_invert(self, dim):
        for x in _keyed_samples(dim, 71):
            key, c = split_const(x)
            assert type(c) is int and c == const_value(x)
            assert from_key(key, dim, c) == x
            assert from_key(key, dim) == trunc_const(x)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_split_level_and_from_key_invert(self, dim):
        for x in _keyed_samples(dim, 73):
            for lvl in range(dim + 1):
                key, rest = split_level(x, lvl)
                assert from_key(key, dim, rest=rest) == x
            # at the last level the key is the finite-distance one
            assert split_level(x, dim)[0] == split_const(x)[0]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_monomial_times_its_inverse_is_one(self, dim):
        s = Sampler(SampleProfile(dim=dim, seed=79))
        for _ in range(100):
            e = [s.integer(0, 4) for _ in range(dim)]
            # a constant has an integer coefficient
            m = Element.monomial(Fraction(s.integer(1, 9), s.integer(1, 9) if any(e) else 1), e)
            assert K.terms_mul(m.raw, monomial_inverse(m)) == Element.integer(1, dim).raw

    def test_monomial_inverse_refuses_other_elements(self):
        for text in ("t + 1", "0"):
            with pytest.raises(InvariantViolation):
                monomial_inverse(P(text))


class TestSettleRoot:
    A = Element.integer(100, 1)
    ROOT = Element.integer(10, 1)

    def settle(self, start, monkeypatch):
        powers = []

        def counted_pow_int(x, k):
            powers.append(x)
            return pow_int(x, k)

        monkeypatch.setattr(model, "pow_int", counted_pow_int)
        return model._settle_root(self.A, 2, Element.integer(start, 1)), len(powers)

    def test_settles_without_moving(self, monkeypatch):
        # one power for each side of the bracket 10**2 <= 100 < 11**2
        assert self.settle(10, monkeypatch) == (self.ROOT, 2)

    def test_settles_after_four_moves_either_way(self, monkeypatch):
        assert self.settle(6, monkeypatch)[0] == self.ROOT
        assert self.settle(14, monkeypatch)[0] == self.ROOT

    def test_fifth_move_is_an_internal_error(self, monkeypatch):
        for start in (5, 15):
            with pytest.raises(AssertionError):
                self.settle(start, monkeypatch)
