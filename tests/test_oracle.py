"""Literal witness checking and bounded search."""

import pytest

from lexarith import model, oracle, suites
from lexarith.equiv import decide
from lexarith.errors import StandardInput
from lexarith.model import Element, pow_int
from lexarith.oracle import BoundN, Companion, check_witness, search
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import parse_element


def P(text, dim=1):
    return parse_element(text, dim)


def test_check_witness_level2():
    assert check_witness(2, P("t"), P("3*t"), BoundN(4))
    assert not check_witness(2, P("t"), P("3*t"), BoundN(3))


def test_check_witness_level3_degree_criterion():
    a, b = P("t^(1,0)", 2), P("t^(1,5)", 2)
    assert check_witness(3, a, b, Companion(P("t^(0,6)", 2)))
    # the gap itself is too small: b < a*c fails at equality
    assert not check_witness(3, a, b, Companion(P("t^(0,5)", 2)))
    # a companion in the same Archimedean class fails the universal condition
    assert not check_witness(3, a, b, Companion(P("t^(1,0)", 2)))


def test_check_witness_malformed():
    a, b = P("t"), P("t + 1")
    assert not check_witness(0, a, b, BoundN(0))
    assert not check_witness(0, a, b, Companion(P("1")))
    assert not check_witness(1, a, b, BoundN(3))
    assert not check_witness(1, a, b, Companion(P("t^(0,1)", 2)))  # wrong dim
    with pytest.raises(StandardInput):
        check_witness(0, P("3"), b, BoundN(1))


def test_universal_conditions_are_degreewise_exact():
    # n*c < a for all n is a strict degree comparison, not a sample
    assert oracle.multiples_stay_below(P("t"), P("t^2"))
    assert not oracle.multiples_stay_below(P("t"), P("9*t"))
    # c**n < a for all n is an Archimedean-class comparison
    assert oracle.powers_stay_below(P("5"), P("t"))
    assert not oracle.powers_stay_below(P("t^(0,1)", 2), P("t^(0,9)", 2))
    assert oracle.powers_stay_below(P("t^(0,9)", 2), P("t^(1,0)", 2))


def test_search_finds_least_bound():
    w = search(0, P("t + 2"), P("t"), n_max=8)
    assert w == BoundN(3)


def test_search_exhausts_without_refuting():
    assert search(2, P("t"), P("t^2"), n_max=64) is None


def test_search_level3_pool_from_degree_lattice():
    a, b = P("t^(1,0)", 2), P("t^(1,3)", 2)
    w = search(3, a, b, n_max=8)
    assert isinstance(w, Companion)
    assert check_witness(3, a, b, w)


def test_bounds_seeded_with_decider_witness():
    a, b = P("t^(2,0) + t^(1,1)", 2), P("t^(2,4)", 2)
    v = decide(3, a, b)
    assert v.equivalent
    found = search(3, a, b, hint=v.witness)
    assert found is not None and check_witness(3, a, b, found)


def test_search_rejects_a_bound_below_two():
    with pytest.raises(ValueError):
        search(0, P("t"), P("t"), n_max=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_level4_check_matches_the_definition(dim):
    s = Sampler(SampleProfile(dim=dim, seed=29))
    for _ in range(60):
        a, b = suites.related_pair(s)
        for n in range(1, 9):
            literal = a < pow_int(b, n) and b < pow_int(a, n)
            assert check_witness(4, a, b, BoundN(n)) == literal, (a, b, n)


@pytest.mark.parametrize("dim", [1, 2])
def test_level4_check_builds_a_power_only_on_a_leading_tie(monkeypatch, dim):
    b = P("2*t + 3", 1) if dim == 1 else P("2*t^(1,1) + 3*t^(0,2)", 2)
    a = pow_int(b, 2) + 1
    built = []

    def counted(x, n):
        built.append(n)
        return pow_int(x, n)

    monkeypatch.setattr(model, "pow_int", counted)
    # the leading terms differ by degree, or only by coefficient (a against
    # b**2 with b scaled by 4, and b*4 against b)
    for n in (1, 3, 4, 5, 6):
        check_witness(4, a, b, BoundN(n))
    check_witness(4, a, b * 4, BoundN(2))
    check_witness(4, b * 4, b, BoundN(1))
    assert built == []
    # a and b**2 share their leading term: one power, and a < b**2 fails
    assert not check_witness(4, a, b, BoundN(2))
    assert built == [2]


def _search_calls(dim, count):
    """Sampled (level, a, b, kwargs) in the suites' three call shapes."""
    s = Sampler(SampleProfile(dim=dim, seed=23))
    for _ in range(count):
        a, b = suites.related_pair(s)
        for level in range(5):
            yield level, a, b, {"hint": decide(level, a, b).witness}
            yield level, a, b, {"n_max": 8}
            yield level, a, b, {"n_max": 12}


def _bounded_search_as_before(level, a, b, hint=None, n_max=16):
    """The earlier two-step search: build the bounds and the pool, then walk them."""
    if isinstance(hint, BoundN):
        n_max = max(n_max, hint.n + 1)
    pool = list(oracle.default_pool(a, b, n_max=min(n_max, 9)))
    if isinstance(hint, Companion):
        pool.extend([hint.c, hint.c + Element.integer(1, a.dim)])
    if level in (0, 2, 4):
        for n in range(1, max(n_max, 2) + 1):
            if check_witness(level, a, b, BoundN(n)):
                return BoundN(n)
        return None
    for c in sorted(set(pool)):
        if check_witness(level, a, b, Companion(c)):
            return Companion(c)
    return None


@pytest.mark.parametrize("dim", [1, 2])
def test_search_matches_the_two_step_search(dim):
    for level, a, b, kwargs in _search_calls(dim, 30):
        assert search(level, a, b, **kwargs) == _bounded_search_as_before(level, a, b, **kwargs), (
            level, a, b, kwargs,
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_search_builds_a_pool_only_at_companion_levels(monkeypatch, dim):
    built = {level: 0 for level in range(5)}
    pool = oracle.default_pool

    def counted(a, b, n_max=8):
        built[current_level] += 1
        return pool(a, b, n_max)

    monkeypatch.setattr(oracle, "default_pool", counted)
    searches = {level: 0 for level in range(5)}
    for current_level, a, b, kwargs in _search_calls(dim, 10):
        searches[current_level] += 1
        search(current_level, a, b, **kwargs)
    assert built == {0: 0, 1: searches[1], 2: 0, 3: searches[3], 4: 0}
