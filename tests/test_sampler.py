"""The sampler's stream, pinned directly: every suite, the benchmark's inputs
and their pinned outcomes are drawn from it, so a change to how an element
is built must leave both the elements and the number of RNG draws alone.

Its one integer primitive is checked against the literal definition, a twin
``random.Random``, its exponent sort key against the model's order, and its
shared tables by identity: every sampled exponent, negated coefficient and
constant term is the table's one object."""

import hashlib
import random
from itertools import product

import pytest

from lexarith.model import exponent_key, is_standard, rat
from lexarith.sampler import (
    _COMPONENT,
    _EXPONENT,
    _LCM,
    _SPAN,
    COEFF_DENS,
    EXP_DEN_BOUND,
    EXP_NUM_BOUND,
    SampleProfile,
    Sampler,
)
from lexarith.textform import format_element

# SHA-256 of the lines below, for dim 1 and 2 by seed 0 and 7
STREAM_SHA256 = "5a0624242c657719a178c14a5db1e745103f588713b1eb1f643c8fbc983e2764"
# the same for the small profile, its elements interleaved with integer,
# choice and chance draws
SMALL_STREAM_SHA256 = "20eb7437e355bd92fc3b2f72c8c1512bdc3052bfa5d1aea139bfc2c01467467d"


def test_element_stream_is_pinned():
    lines = []
    for dim in (1, 2):
        for seed in (0, 7):
            s = Sampler(SampleProfile(dim=dim, seed=seed))
            lines += [format_element(s.element()) for _ in range(500)]
            # the next draw moves if the stream took more or fewer draws
            lines.append(repr(s.rng.random()))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == STREAM_SHA256


def test_small_profile_stream_is_pinned():
    # the profile the division suite's roots and the benchmark's root bases use
    lines = []
    for dim in (1, 2):
        for seed in (0, 7):
            s = Sampler(SampleProfile(max_terms=2, coeff_bound=4, dim=dim, seed=seed))
            for _ in range(300):
                lines.append(format_element(s.element()))
                lines.append(f"{s.integer(-3, 9)} {s.choice((2, 2, 3))} {s.chance(0.4)} {s.integer(1, 1)}")
            lines.append(repr(s.rng.random()))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SMALL_STREAM_SHA256


def test_draws_are_randint_and_choice_of_a_twin_rng():
    # every range the sampler draws from: exponent numerators and
    # denominators, coefficients of both profiles, standard values and the
    # constant term
    bounds = [(1, EXP_NUM_BOUND), (0, EXP_NUM_BOUND), (1, EXP_DEN_BOUND)]
    bounds += [(lo, hi) for cb in (4, 9) for lo, hi in ((1, cb), (0, cb), (-cb, cb))]
    assert COEFF_DENS == (1, 1, 1, 2, 3)
    for seed in range(50):
        s, twin = Sampler(SampleProfile(seed=seed)), random.Random(seed)
        for _ in range(20):
            for lo, hi in bounds:
                assert lo + s._below(hi - lo + 1) == twin.randint(lo, hi)
                assert s.integer(lo, hi) == twin.randint(lo, hi)
            assert s.choice(COEFF_DENS) == twin.choice(COEFF_DENS)
            assert s.choice((2, 2, 3)) == twin.choice((2, 2, 3))
        assert s.rng.random() == twin.random()


def _no_draws(k):
    raise AssertionError(f"drew {k} bits for an empty range")


@pytest.mark.parametrize("draw, error", [
    (lambda s: s.integer(5, 4), ValueError),
    (lambda s: s.integer(5, 3), ValueError),
    (lambda s: s._below(0), ValueError),
    (lambda s: s.choice(()), IndexError),
], ids=["integer(5, 4)", "integer(5, 3)", "_below(0)", "choice(())"])
def test_an_empty_range_raises_before_any_draw(draw, error):
    # as randint and choice do; getrandbits(0) is 0, so a redraw loop
    # without the check would never end
    s = Sampler(SampleProfile())
    s._getrandbits = _no_draws
    with pytest.raises(error):
        draw(s)


def _component(p, q):
    pair, key = _COMPONENT[q][p]
    assert pair == rat(p, q)
    return pair, key


@pytest.mark.parametrize("dim", [1, 2])
def test_the_sort_key_orders_every_drawable_exponent_as_the_model(dim):
    # dim 1 draws p in 1..EXP_NUM_BOUND, and p = 0 is the constant term's
    # exponent; dim 2 is checked on signed p in both places
    nums = range(0, EXP_NUM_BOUND + 1) if dim == 1 else range(-EXP_NUM_BOUND, EXP_NUM_BOUND + 1)
    comps = [_component(p, q) for p in nums for q in range(1, EXP_DEN_BOUND + 1)]
    if dim == 1:
        keyed = [(key, (pair,)) for pair, key in comps]
    else:
        keyed = [(high * _SPAN + low, (first, second)) for (first, high), (second, low) in product(comps, comps)]
    keyed.sort(key=lambda t: exponent_key(t[1]))
    # in the model's order, the key rises exactly when the exponent does
    for (k, e), (l, f) in zip(keyed, keyed[1:]):
        assert (k < l, k == l) == (e != f, e == f), (e, f)
    # the shared table holds the exponent of each key whose first component
    # is drawn, p >= 0, and nothing else
    assert _EXPONENT[dim] == {k: e for k, e in keyed if e[0][0] >= 0}


def _key(e: tuple) -> int:
    """The sort key of an exponent, from its canonical pairs."""
    keys = [p * (_LCM // q) for p, q in e]
    return keys[0] if len(e) == 1 else keys[0] * _SPAN + keys[1]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("profile", [{}, {"max_terms": 2, "coeff_bound": 4}], ids=["default", "small"])
def test_samples_share_the_tables_objects(dim, profile):
    s = Sampler(SampleProfile(dim=dim, seed=5, **profile))
    bound = s.profile.coeff_bound
    # the tables live as long as s, so their objects' ids are theirs alone
    neg_ids = {id(c) for row in s._negs for c in row}
    coeff_ids = {id(c) for row in s._coeffs for c in row}
    negs = consts = 0
    for _ in range(2000):
        e = s.element()
        if is_standard(e):
            continue
        for term in e.raw:
            exp, coeff = term
            num = coeff[0]
            if not any(p for p, _ in exp):
                # the constant term, always the last
                assert term is s._consts[bound + num]
                consts += 1
                continue
            assert exp is _EXPONENT[dim][_key(exp)]
            # rat(6, 2) is (3, 1): a pair may sit in another denominator's row
            if num < 0:
                assert id(coeff) in neg_ids
                negs += 1
            else:
                assert id(coeff) in coeff_ids
    # both tables were reached
    assert negs and consts
