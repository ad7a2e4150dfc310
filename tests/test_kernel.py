"""Backend parity: the compiled kernel must agree with the pure one bit-for-bit."""

import random

import pytest

from lexarith import _kernel_py

try:
    from lexarith import _kernel as _kernel_cy
except ImportError:
    _kernel_cy = None

needs_compiled = pytest.mark.skipif(_kernel_cy is None, reason="compiled kernel not built")


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


@needs_compiled
@pytest.mark.parametrize("dim", [1, 2])
def test_backends_agree(dim):
    rng = random.Random(17 + dim)
    for _ in range(400):
        A = _random_terms(rng, dim)
        B = _random_terms(rng, dim)
        assert _kernel_py.terms_add(A, B) == _kernel_cy.terms_add(A, B)
        assert _kernel_py.terms_sub(A, B) == _kernel_cy.terms_sub(A, B)
        assert _kernel_py.terms_mul(A, B) == _kernel_cy.terms_mul(A, B)
        assert _kernel_py.terms_cmp(A, B) == _kernel_cy.terms_cmp(A, B)
        r = _kernel_py.rat(rng.randint(-5, 5), rng.randint(1, 4))
        if r[0]:
            assert _kernel_py.terms_scale(A, r) == _kernel_cy.terms_scale(A, r)


@needs_compiled
def test_rat_ops_agree():
    rng = random.Random(3)
    for _ in range(300):
        a = _kernel_py.rat(rng.randint(-9, 9), rng.randint(1, 9))
        b = _kernel_py.rat(rng.randint(-9, 9), rng.randint(1, 9))
        assert _kernel_py.rat_add(a, b) == _kernel_cy.rat_add(a, b)
        assert _kernel_py.rat_sub(a, b) == _kernel_cy.rat_sub(a, b)
        assert _kernel_py.rat_mul(a, b) == _kernel_cy.rat_mul(a, b)
        assert _kernel_py.rat_cmp(a, b) == _kernel_cy.rat_cmp(a, b)
        if b[0]:
            assert _kernel_py.rat_div(a, b) == _kernel_cy.rat_div(a, b)
