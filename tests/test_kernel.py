"""The term-arithmetic kernel: canonical rationals, and term arithmetic checked
against a plain ``{exponent: Fraction}`` reference."""

import random
from fractions import Fraction

import pytest

import lexarith
from lexarith import _backend, _kernel_py


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
