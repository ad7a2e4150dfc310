"""Hypothesis property tests for the model laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lexarith import automorph as am
from lexarith import oracle, suites
from lexarith.errors import InvariantViolation, NonTerminatingQuotient, Underflow
from lexarith.model import (
    Element,
    const_value,
    deg_level,
    divmod_floor,
    divmod_scalar,
    is_standard,
    pow_int,
    sub,
    trunc_const,
)
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import format_element, parse_element

rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(8), max_denominator=4)
coeffs = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3).filter(bool)


@st.composite
def elements(draw, dim=1):
    if dim == 1:
        exp_strategy = st.tuples(rationals)
    else:
        second = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=3)
        exp_strategy = st.tuples(rationals, second)

    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        e = draw(exp_strategy)
        if dim == 2 and e[0] == 0 and e[1] <= 0:
            continue
        if dim == 1 and e[0] == 0:
            continue
        terms[e] = draw(coeffs)
    constant = draw(st.integers(min_value=-9, max_value=9))
    items = sorted(terms.items(), reverse=True)
    if items and terms[items[0][0]] < 0:
        items[0] = (items[0][0], -items[0][1])
    elif not items:
        constant = abs(constant)
    if constant:
        items.append(((Fraction(0),) * dim, Fraction(constant)))
    return Element(items, dim)


def nonstandard(dim):
    return elements(dim=dim).filter(lambda x: not is_standard(x))


@given(elements(), elements(), elements())
@settings(max_examples=80, deadline=None)
def test_semiring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements(dim=2), elements(dim=2))
@settings(max_examples=60, deadline=None)
def test_order_translation_dim2(a, b):
    if a < b:
        assert a + 1 < b + 1
        assert a * 2 < b * 2
    assert not (a < b and b < a)


@given(elements(), elements())
@settings(max_examples=80, deadline=None)
def test_discreteness(a, b):
    assert not (a < b < a + 1)


@given(elements(dim=2), elements(dim=2))
@settings(max_examples=60, deadline=None)
def test_sub_add_roundtrip(a, b):
    assert sub(a + b, b) == a


@given(elements(), st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_divmod_scalar_contract(a, n):
    q, r = divmod_scalar(a, n)
    assert q * n + r == a
    assert 0 <= r < n


@given(elements(dim=2), elements(dim=2))
@settings(max_examples=60, deadline=None)
def test_euclidean_contract_dim2(a, b):
    if b.is_zero():
        return
    lo = b if not is_standard(b) else b + Element.monomial(1, (1, 0), dim=2)
    try:
        q, r = divmod_floor(a, lo)
    except NonTerminatingQuotient:
        return
    assert q * lo + r == a
    assert r < lo


@given(elements(dim=1))
@settings(max_examples=60, deadline=None)
def test_dim1_divmod_never_budget_limited(a):
    b = a + Element.monomial(1, (Fraction(1, 2),), dim=1)
    q, r = divmod_floor(a, b)  # must not raise NonTerminatingQuotient
    assert q * b + r == a


@given(elements(dim=2))
@settings(max_examples=60, deadline=None)
def test_text_roundtrip(a):
    assert parse_element(format_element(a), 2) == a


@given(elements(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_pow_agrees_with_iterated_mul(a, n):
    direct = Element.integer(1, 1)
    for _ in range(n):
        direct = direct * a
    assert pow_int(a, n) == direct


@given(elements(dim=2), st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_trunc_const_is_class_invariant(a, k):
    if is_standard(a):
        return
    assert trunc_const(a + k) == trunc_const(a)


# a pair without a finite ratio whose map is a composite of an E3Shift and an
# affine map (its normalized target c*a1 is not a2)
COMPOSITE_PAIR = (
    parse_element("t^(1,0) + t^(1,-1)", 2),
    parse_element("5*t^(1,3) + 7", 2),
)


@st.composite
def built_maps(draw, dim):
    """(map, a, b): the map built from an equivalent pair a, b of the suites'
    sampler (level 3 only in dim 2), or its inverse."""
    level = draw(st.sampled_from((2, 3))) if dim == 2 else 2
    s = Sampler(SampleProfile(dim=dim, seed=draw(st.integers(min_value=0, max_value=2**16))))
    a, b = suites.equivalent_pair(s, level)
    if level == 3 and draw(st.booleans()):
        if draw(st.booleans()):
            a, b = COMPOSITE_PAIR
        elif deg_level(a) == 0:
            # no finite ratio left: build_from_e3 shifts the dominated classes
            b = b * Element.monomial(1, (0, 1), dim=2)
    d = (am.build_from_e2 if level == 2 else am.build_from_e3)(a, b)
    return (d.inverse() if draw(st.booleans()) else d), a, b


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_built_maps_invert_exactly(dim, data):
    d, a, b = data.draw(built_maps(dim))
    # any element, standard or not, alone or added to an anchor
    y = data.draw(elements(dim=dim))
    near = data.draw(st.sampled_from((None, a, b)))
    if near is not None:
        y = near + y
    assert d.apply(d.apply_inverse(y)) == y
    assert d.apply_inverse(d.apply(y)) == y


# The oracle's universal conditions "for every standard n", against the
# literal inequalities.  Where a condition fails, the breaking n is found
# without the degree rule: from a Euclidean quotient for multiples, by
# raising the power one step at a time for powers.  The drawn exponents
# need at most 33 steps: a positive first component lies in [1/4, 8], and
# a positive second one in [1/3, 6].
POWER_STEPS = 40


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_multiples_stay_below_is_the_literal_condition(dim, data):
    c, a = data.draw(elements(dim=dim)), data.draw(nonstandard(dim))
    if oracle.multiples_stay_below(c, a):
        for n in (data.draw(st.integers(min_value=1, max_value=10**6)), 10**40):
            assert c * n < a
    else:
        # a = q*c + r with r < c, so (q + 1)*c > a
        q, _ = divmod_floor(a, c)
        assert is_standard(q)
        assert not c * (const_value(q) + 1) < a


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_powers_stay_below_is_the_literal_condition(dim, data):
    c, a = data.draw(elements(dim=dim)), data.draw(nonstandard(dim))
    if oracle.powers_stay_below(c, a):
        assert pow_int(c, data.draw(st.integers(min_value=1, max_value=8))) < a
    else:
        power = c
        for _ in range(POWER_STEPS):
            if not power < a:
                break
            power = power * c
        else:
            raise AssertionError(f"no power of {c!r} up to {POWER_STEPS} reaches {a!r}")


@st.composite
def descriptor_fields(draw, dim, depth=2):
    """(descriptor, its field elements): constructor fields drawn for a kind
    of automorph.KINDS, mostly tied as the kind needs and sometimes free, so
    that the constructor's own checks decide.  None when it refuses them, or
    when no element meets the kind's equation."""
    kinds = sorted(am.KINDS) if depth else ["e0_class_shift", "e2_affine", "e3_shift", "identity"]
    kind = draw(st.sampled_from([k for k in kinds if dim == 2 or k != "e3_shift"]))
    free = draw(st.integers(min_value=0, max_value=3)) == 0
    inner = descriptor_fields(dim, depth - 1)
    cls = am.KINDS[kind]
    try:
        if kind == "identity":
            return cls(), []
        if kind == "e0_class_shift":
            anchor = draw(nonstandard(dim))
            return cls(anchor, draw(st.integers(min_value=-9, max_value=9))), [anchor]
        if kind == "e2_affine":
            a, c = draw(nonstandard(dim)), draw(elements(dim=dim))
            n = draw(st.integers(min_value=2, max_value=6))
            m = draw(st.integers(min_value=0, max_value=n - 2))
            if not free:
                # below a/k, so below a's finite-distance class
                c = min(c, divmod_scalar(a, draw(st.integers(min_value=2, max_value=5)))[0])
            # b - a = (n-1)*(a - c) + m
            b = sub(a * n + m, c * (n - 1))
            return cls(a=a, b=b, n=n, c=c, m=m), [a, b, c]
        if kind == "e3_shift":
            a1 = draw(nonstandard(2).filter(lambda x: deg_level(x) == 0))
            c = Element.monomial(draw(coeffs.map(abs)), (0, draw(rationals.filter(bool))), dim=2)
            a2 = draw(nonstandard(2)) if free else a1 * c
            return cls(a1=a1, a2=a2, c=c), [a1, a2]
        if kind == "compose":
            drawn = [x for x in draw(st.lists(inner, max_size=3)) if x is not None]
            return cls(tuple(d for d, _ in drawn)), [p for _, points in drawn for p in points]
        below = draw(inner)
        if below is None:
            return None
        d, points = below
        if kind == "inverse":
            return cls(d), points
        a = draw(nonstandard(dim))
        b = draw(elements(dim=dim)) if free else d.apply(a)
        return cls(below=d, a=a, b=b), points + [a, b]
    except (InvariantViolation, Underflow):  # Underflow: no b meets c's equation
        return None


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_accepted_descriptor_is_an_automorphism(dim, data):
    drawn = data.draw(descriptor_fields(dim))
    if drawn is None:
        return
    d, points = drawn
    one = Element.integer(1, dim)
    # the drawn probes, and each field element with its neighbours
    probes = data.draw(st.lists(elements(dim=dim), max_size=20)) + points
    probes += [p + 1 for p in points] + [sub(p, one) for p in points if p >= one]
    am.validate(d, probes)
    am.validate(d.inverse(), probes)
