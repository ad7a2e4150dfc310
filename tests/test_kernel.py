"""The term-arithmetic kernel: canonical rationals, and term arithmetic checked
against a plain ``{exponent: Fraction}`` reference."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

import lexarith
from lexarith import _backend, _kernel_py
from lexarith.errors import ResourceLimit
from lexarith.model import Element


def _random_terms(rng, dim):
    n_terms = rng.randint(0, 4)
    exps = set()
    while len(exps) < n_terms:
        e = tuple(_kernel_py.rat(rng.randint(-6, 8), rng.randint(1, 3)) for _ in range(dim))
        exps.add(e)
    items = []
    for e in exps:
        coeff = _kernel_py.rat(rng.choice([-5, -2, -1, 1, 2, 3, 7]), rng.choice([1, 1, 2]))
        items.append((e, coeff))
    items.sort(key=lambda t: tuple(n / d for n, d in t[0]), reverse=True)
    return tuple(items)


def test_rat_normalization():
    assert _kernel_py.rat(4, -6) == (-2, 3)
    assert _kernel_py.rat(0, 5) == (0, 1)
    assert _kernel_py.rat(0, -5) == (0, 1)
    with pytest.raises(ZeroDivisionError):
        _kernel_py.rat(1, 0)


def test_terms_cmp_is_sign_of_difference():
    rng = random.Random(5)
    for _ in range(300):
        A = _random_terms(rng, 2)
        B = _random_terms(rng, 2)
        diff = _kernel_py.terms_sub(A, B)
        assert _kernel_py.terms_cmp(A, B) == _kernel_py.terms_sign(diff)


def _as_dict(terms):
    return {tuple(Fraction(*r) for r in e): Fraction(*c) for e, c in terms}


def _from_dict(d):
    items = sorted(((e, c) for e, c in d.items() if c), reverse=True)
    return tuple((tuple((r.numerator, r.denominator) for r in e), (c.numerator, c.denominator)) for e, c in items)


def _ref_add(A, B):
    out = dict(A)
    for e, c in B.items():
        out[e] = out.get(e, 0) + c
    return out


def _ref_mul(A, B):
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_terms_ops_match_fraction_reference(dim):
    rng = random.Random(17 + dim)
    for _ in range(400):
        A = _random_terms(rng, dim)
        B = _random_terms(rng, dim)
        r = _kernel_py.rat(rng.randint(-5, 5), rng.randint(1, 4))
        dA, dB = _as_dict(A), _as_dict(B)
        neg_B = {e: -c for e, c in dB.items()}
        assert _kernel_py.terms_add(A, B) == _from_dict(_ref_add(dA, dB))
        assert _kernel_py.terms_sub(A, B) == _from_dict(_ref_add(dA, neg_B))
        assert _kernel_py.terms_mul(A, B) == _from_dict(_ref_mul(dA, dB))
        assert _kernel_py.terms_scale(A, r) == _from_dict({e: c * Fraction(*r) for e, c in dA.items()})
        # a square passes one object; monomials of coefficient 1 and of
        # exponent 0 take the shift's shortcuts, on either side
        assert _kernel_py.terms_mul(A, A) == _from_dict(_ref_mul(dA, dA))
        e = tuple(_kernel_py.rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        for m in (((e, (1, 1)),), ((((0, 1),) * dim, r if r[0] else (1, 1)),), ((((0, 1),) * dim, (1, 1)),)):
            dm = _as_dict(m)
            assert _kernel_py.terms_mul(A, m) == _from_dict(_ref_mul(dA, dm))
            assert _kernel_py.terms_mul(m, A) == _from_dict(_ref_mul(dm, dA))


def test_kernel_binding_is_the_pure_kernel():
    assert _backend.kernel is _kernel_py
    assert lexarith.backend_name() == "pure"


@pytest.mark.parametrize("dim", [1, 2])
def test_splits_of_nonnegative_series(dim):
    rng = random.Random(31 + dim)
    for _ in range(300):
        A = tuple(t for t in _random_terms(rng, dim) if all(r[0] >= 0 for r in t[0]))
        head, const = _kernel_py.terms_split_const(A)
        assert head == tuple(t for t in A if not _kernel_py.exp_is_zero(t[0]))
        assert const == next((c for e, c in A if _kernel_py.exp_is_zero(e)), (0, 1))
        for lvl in range(dim + 1):
            above, rest = _kernel_py.terms_split_level(A, lvl)
            assert above == tuple(t for t in A if any(r[0] for r in t[0][:lvl]))
            assert rest == tuple(t for t in A if not any(r[0] for r in t[0][:lvl]))


def _counted(monkeypatch, name):
    """A list that grows by one at each call of the kernel's global name."""
    calls = []
    f = getattr(_kernel_py, name)

    def counted(*args):
        calls.append(1)
        return f(*args)

    monkeypatch.setattr(_kernel_py, name, counted)
    return calls


def _series(n, den=lambda k: 1):
    """n descending terms t^(n-1) .. t^0 in dim 1, the k-th with
    coefficient 1/den(k)."""
    return tuple((((n - 1 - k, 1),), (1, den(k))) for k in range(n))


def test_a_multiply_past_the_product_ceiling_does_no_scaling(monkeypatch):
    lcms = _counted(monkeypatch, "lcm")
    with pytest.raises(ResourceLimit, match="257x257 term products, over 65536"):
        _kernel_py.terms_mul(_series(257), _series(257))
    with pytest.raises(ResourceLimit, match="65537x1 term products"):
        _kernel_py.terms_mul(_series(65537), _series(1))
    assert lcms == []


def test_the_plain_multiply_takes_the_product_ceiling():
    a, b = Element(_series(256), 1), Element(_series(257), 1)
    assert len((a * a).raw) == 511
    with pytest.raises(ResourceLimit, match="256x257 term products"):
        a * b


def test_wide_distinct_denominators_are_refused_before_the_loop(monkeypatch):
    # the lcm of 16 distinct 1000-digit denominators has about 16,000 digits;
    # the gcds that reduce each output term come only after the loop
    A = _series(16, lambda k: 10**999 + k)
    reductions = _counted(monkeypatch, "gcd")
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="word products, over 70000000"):
        _kernel_py.terms_mul(A, A)
    assert time.perf_counter() - start < 1.0
    assert reductions == []
    # one 1000-digit denominator is far under the ceiling
    assert len(_kernel_py.terms_mul(A[:1] + _series(15), A[:1] + _series(15))) == 31
    assert len(reductions) == 2 * 31


def _wide_exponents(digits, num=lambda k, w: 16 - k, den=lambda k, w: w + k):
    """16 descending dim-1 terms: 15 with the k-th exponent num/den, where w
    is a number of the given digits, then the constant 1."""
    w = 10 ** (digits - 1)
    return tuple((((num(k, w), den(k, w)),), (1, 1)) for k in range(15)) + ((((0, 1),), (1, 1)),)


def test_wide_exponent_keys_are_refused_before_the_loop(monkeypatch):
    # the two factors' 30 distinct 1000-digit exponent denominators make
    # keys of about 100,000 bits; each coefficient is one word
    A = _wide_exponents(1000)
    B = _wide_exponents(1000, den=lambda k, w: w + 100 + k)
    reductions = _counted(monkeypatch, "gcd")
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="word products, over 70000000"):
        _kernel_py.terms_mul(A, B)
    assert time.perf_counter() - start < 1.0
    assert reductions == []
    # 4000-digit numerators over small denominators make keys of 208 words
    C = _wide_exponents(4000, num=lambda k, w: w * (16 - k) + k, den=lambda k, w: 3)
    assert _kernel_py.terms_mul(C, C) == _from_dict(_ref_mul(_as_dict(C), _as_dict(C)))


def test_a_square_is_refused_as_the_same_product_of_distinct_tuples():
    # wide coefficient denominators, then wide exponent keys
    for A in (_series(16, lambda k: 10**999 + k), _wide_exponents(1000)):
        twin = tuple(list(A))
        assert twin == A and twin is not A
        with pytest.raises(ResourceLimit, match="word products") as distinct:
            _kernel_py.terms_mul(A, twin)
        with pytest.raises(ResourceLimit, match="word products") as square:
            _kernel_py.terms_mul(A, A)
        assert str(square.value) == str(distinct.value)


def _exps(d):
    """Terms from a ``{exponent: coefficient}`` dict of ints and Fractions."""
    return _from_dict({tuple(Fraction(x) for x in e): Fraction(c) for e, c in d.items()})


_W = 2**70 + 1
_F = Fraction
# dim-2 factors that probe the packing of (x0, x1) into one key
PACKING = {
    # signed series, as the lead_inv of root_floor
    "negative-first": ({(-1, 0): 1, (-2, 3): -2, (-3, -1): 5}, {(-1, 0): 1, (-1, -4): 3, (-5, 2): -1}),
    # M = 1 + 3, and the products reach both x1 = 4 and x1 = -4; 2M is a
    # power of two, the one case where b = (2M - 1).bit_length() is short
    "second-sums-to-plus-and-minus-M": ({(2, 1): 1, (1, -1): 2}, {(1, -3): -3, (0, 3): 1}),
    "second-all-zero": ({(3, 0): 1, (1, 0): 2, (0, 0): -1}, {(2, 0): 1, (-1, 0): 4}),
    "equal-first-straddling-zero": ({(1, 2): 1, (1, -2): 1, (1, 0): 3}, {(1, 1): 1, (1, -1): -1}),
    "distinct-denominators": (
        {(_F(1, 3), _F(2, 5)): 1, (_F(1, 7), _F(-3, 11)): _F(2, 9), (0, _F(1, 13)): 5},
        {(_F(5, 6), _F(-1, 4)): _F(-3, 2), (_F(-2, 9), _F(7, 10)): 1},
    ),
    "numerators-past-64-bits": (
        {(_W, -_W): 1, (_W - 1, _W): 3, (_F(-_W, 3), 0): 1},
        {(2 * _W, _F(_W, 7)): -1, (0, -_W * _W): 2, (0, _F(-_W * _W - 1, 5)): 1},
    ),
    # (x + y)(x - y): the cross terms cancel to zero
    "cancelling": ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),
    "cancelling-wide": ({(_W, 0): 1, (0, -_W): 2, (-1, 5): 1}, {(_W, 0): 2, (0, -_W): -4, (-1, 5): 7}),
}


def _assert_canonical(terms):
    """Every rational a canonical pair, no zero coefficient, exponents
    strictly descending."""
    for e, c in terms:
        for n, d in e + (c,):
            assert d > 0 and gcd(n, d) == 1
        assert c[0]
    keys = [tuple(Fraction(*r) for r in e) for e, _ in terms]
    assert keys == sorted(set(keys), reverse=True)


@pytest.mark.parametrize("case", sorted(PACKING))
def test_packed_keys_match_the_fraction_reference(case):
    A, B = (_exps(d) for d in PACKING[case])
    for X, Y in ((A, B), (B, A), (A, A)):
        product = _kernel_py.terms_mul(X, Y)
        _assert_canonical(product)
        assert product == _from_dict(_ref_mul(_as_dict(X), _as_dict(Y)))
    if case.startswith("cancelling"):
        assert len(_kernel_py.terms_mul(A, B)) < len(A) * len(B)


@pytest.mark.parametrize("dim", [1, 2])
def test_wide_signed_multiplies_match_the_fraction_reference(dim):
    rng = random.Random(41 + dim)

    def component():
        num = rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-_W, _W), rng.choice([_W, -_W])])
        return _kernel_py.rat(num, rng.choice([1, 1, 2, 3, 7, 12, _W]))

    def series():
        d = {tuple(Fraction(*component()) for _ in range(dim)): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(rng.randint(2, 6))}
        return _from_dict(d)

    for _ in range(300):
        A, B = series(), series()
        product = _kernel_py.terms_mul(A, B)
        _assert_canonical(product)
        assert product == _from_dict(_ref_mul(_as_dict(A), _as_dict(B)))
