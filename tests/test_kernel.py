"""The term-arithmetic kernel: canonical rationals, and term arithmetic checked
against a plain ``{exponent: Fraction}`` reference."""

import random
import time
from fractions import Fraction

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
    # the lcm of 16 distinct 1000-digit denominators has about 16,000 digits
    A = _series(16, lambda k: 10**999 + k)
    loop = _counted(monkeypatch, "add")
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="word products, over 70000000"):
        _kernel_py.terms_mul(A, A)
    assert time.perf_counter() - start < 1.0
    assert loop == []
    # one 1000-digit denominator is far under the ceiling
    assert len(_kernel_py.terms_mul(A[:1] + _series(15), A[:1] + _series(15))) == 31
