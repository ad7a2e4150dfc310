"""Literal witness checking and bounded search."""

from fractions import Fraction

import pytest

from lexarith import analysis, automorph, equiv, model, oracle, suites
from lexarith.equiv import decide
from lexarith.errors import InvariantViolation, StandardInput
from lexarith.model import Element, deg, pow_int
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



@pytest.mark.parametrize("dim", [1, 2])
def test_level2_and_level3_checks_multiply_only_on_a_leading_tie(monkeypatch, dim):
    a = P("6*t + 1", 1) if dim == 1 else P("6*t^(1,1) + t^(0,2)", 2)
    b = P("2*t", 1) if dim == 1 else P("2*t^(1,1)", 2)
    c = Element.integer(3, dim)
    products = []
    times = Element.__mul__

    def counted(x, y):
        products.append(y)
        return times(x, y)

    monkeypatch.setattr(Element, "__mul__", counted)
    # the leading terms differ by coefficient (a against b*n for n != 3, and
    # b against a*n), or by degree (a companion of degree 1 or more)
    for n in (1, 2, 4, 5):
        check_witness(2, a, b, BoundN(n))
    check_witness(3, a, b, Companion(Element.integer(4, dim)))
    if dim == 2:
        check_witness(3, a, b, Companion(P("t^(0,1)", 2)))
    assert products == []
    # a and b*3 share their leading term: one product, and a < b*3 fails
    assert not check_witness(2, a, b, BoundN(3))
    assert not check_witness(3, a, b, Companion(c))
    assert products == [3, c]


def _level(e):
    """The index of the first nonzero component of the degree e, its
    dimension for 0: the Archimedean class of the lexicographic group."""
    return next((i for i, x in enumerate(e.components) if x), len(e.components))


def _literal_check(level, a, b, w):
    """check_witness at level 2 or 3 with its products built: the literal
    inequalities, and level 3's universal condition as the degrees' levels."""
    if level == 2:
        return a < b * w.n and b < a * w.n
    c = w.c
    dominated = c.is_zero() or _level(deg(c)) > max(_level(deg(a)), _level(deg(b)))
    return dominated and a < b * c and b < a * c


@pytest.mark.parametrize("dim", [1, 2])
def test_level2_and_level3_checks_match_the_definition(dim):
    s = Sampler(SampleProfile(dim=dim, seed=31))
    for _ in range(40):
        a, b = suites.related_pair(s)
        witnesses = [(2, BoundN(n)) for n in range(1, 9)]
        witnesses += [(3, Companion(c)) for c in oracle.default_pool(a, b) + (Element.zero(dim),)]
        for level, w in witnesses:
            assert check_witness(level, a, b, w) == _literal_check(level, a, b, w), (level, a, b, w)

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


def _pool_by_definition(a, b, n_max):
    """The companion pool as defined: the integers 1..min(n_max, 9), and
    t^e, t^e + 1 and 2*t^e for every e > 0 of the difference set of the
    exponents of a, b and 0 (in dim 2 with (0, j) up to a bound), without
    repeats, sorted as elements, the first 96."""
    dim = a.dim
    # exponents as tuples of Fraction, which compare lexicographically
    zero = (Fraction(0),) * dim
    exps = {zero} | {term.exponent.components for x in (a, b) for term in x.terms()}
    diffs = {tuple(x - y for x, y in zip(e, f)) for e in exps for f in exps}
    if dim == 2:
        bound = max([2] + [int(abs(e[1])) + 2 for e in exps])
        diffs |= {(Fraction(0), Fraction(j)) for j in range(1, min(bound, 12) + 1)}
    pool = {Element.integer(k, dim) for k in range(1, min(n_max, 9) + 1)}
    for e in diffs:
        if e > zero:
            mono = Element([(e, 1)], dim)
            pool |= {mono, mono + 1, mono * 2}
    return tuple(sorted(pool)[:96])


@pytest.mark.parametrize("dim", [1, 2])
def test_default_pool_matches_the_definition(dim):
    s = Sampler(SampleProfile(dim=dim, seed=31))
    for _ in range(60):
        a, b = suites.related_pair(s)
        for n_max in (6, 8, 12, 16):
            assert oracle.default_pool(a, b, n_max) == _pool_by_definition(a, b, n_max), (a, b, n_max)


@pytest.mark.parametrize("dim", [1, 2])
def test_default_pool_compares_no_elements(monkeypatch, dim):
    # the pool is generated in ascending order: nothing is sorted or deduplicated
    cmp = Element._cmp
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return cmp(x, y)

    monkeypatch.setattr(Element, "_cmp", counted)
    if dim == 1:
        a, b = P("t^3 + 2*t^(3/2) + t + 5"), P("t^2 + t^(1/2)")
    else:
        a, b = P("t^(2,3) + t^(1,-1) + 4", 2), P("t^(1,2) + t^(0,5)", 2)
    assert len(oracle.default_pool(a, b)) > 20
    assert calls[0] == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_a_companion_hint_is_merged_as_sorting_would(dim):
    # hints inside the pool, and outside it: below and above every
    # candidate, the deciders' companions and sampled elements in between
    s = Sampler(SampleProfile(dim=dim, seed=41))
    inside = outside = 0
    for _ in range(40):
        a, b = suites.related_pair(s)
        for n_max in (8, 16):
            pool = oracle.default_pool(a, b, n_max)
            assert all(x < y for x, y in zip(pool, pool[1:]))
            hints = [pool[0], pool[len(pool) // 2], pool[-1], Element.zero(dim), pool[-1] * 2, s.nonstandard()]
            hints += [v.witness.c for v in (decide(1, a, b), decide(3, a, b)) if v.equivalent]
            for c in hints:
                merged = oracle._merged(pool, c)
                assert merged == tuple(sorted({*pool, c})), (a, b, c)
                inside += c in pool
                outside += c not in pool
    assert inside and outside


def _search_by_scan(level, a, b, n_max=16, hint=None, check=check_witness):
    """search as defined: every candidate in ascending order through
    check_witness, the first that passes.  The bounds run 1..n_max, raised
    to hint.n + 1 by a bound hint; the companions are the pool with a
    companion hint added, sorted."""
    if level in oracle.BOUND_LEVELS:
        if isinstance(hint, BoundN):
            n_max = max(n_max, hint.n + 1)
        candidates = [BoundN(n) for n in range(1, n_max + 1)]
    else:
        pool = set(oracle.default_pool(a, b, n_max))
        if isinstance(hint, Companion):
            pool.add(hint.c)
        candidates = [Companion(c) for c in sorted(pool)]
    return next((w for w in candidates if check(level, a, b, w)), None)


@pytest.mark.parametrize("dim", [1, 2])
def test_search_matches_a_linear_scan(monkeypatch, dim):
    # the companion levels bisect to the first candidate their inequalities
    # can accept: the same witness as the scan, in at most half its checks
    check = oracle.check_witness
    made = {"search": 0, "scan": 0}
    side = ["search"]

    def counted(level, a, b, w):
        if level in (1, 3):
            made[side[0]] += 1
        return check(level, a, b, w)

    monkeypatch.setattr(oracle, "check_witness", counted)
    s = Sampler(SampleProfile(dim=dim, seed=43))
    found = 0
    for _ in range(30):
        a, b = suites.related_pair(s)
        for level in range(5):
            for hint in (None, decide(level, a, b).witness):
                for n_max in (2, 8, 16):
                    side[0] = "search"
                    w = search(level, a, b, n_max, hint)
                    side[0] = "scan"
                    assert w == _search_by_scan(level, a, b, n_max, hint, counted), (level, a, b, n_max, hint)
                    found += w is not None and level in (1, 3)
    assert found
    assert made["search"] * 2 <= made["scan"], made


def test_a_pair_of_different_dimensions_is_refused():
    a, b = P("t^2 + t"), P("t^(1,0)", 2)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(InvariantViolation, match="dimension mismatch"):
            oracle.default_pool(x, y)
        for level in range(5):
            with pytest.raises(InvariantViolation, match="dimension mismatch"):
                search(level, x, y)


@pytest.mark.parametrize(
    "level, hint",
    [
        (0, BoundN("x")),
        (2, BoundN("x")),
        (4, BoundN("x")),
        (1, Companion(3)),
        (3, Companion(3)),
        (1, Companion(P("t^(0,1)", 2))),
        (3, Companion(P("t^(0,1)", 2))),
    ],
)
def test_a_malformed_hint_is_ignored(level, hint):
    # a hint is only a candidate: one that check_witness rejects for its
    # form leaves the search as it is without one
    a, b = P("t^2 + t + 3"), P("t^2 + t")
    assert not check_witness(level, a, b, hint)
    assert search(level, a, b, hint=hint) == search(level, a, b)
    assert search(level, a, b, hint=hint) is not None


def _pair_calls(a, b):
    """Every decide-layer entry point that takes a pair, by name, as a call
    on a pair: the checker at each level with a bound and with a companion
    of a's and of b's dimension, the search, the pool, the deciders, the
    builders and the embedding."""
    calls = {}
    for level in oracle.LEVELS:
        for w in (BoundN(2), Companion(a), Companion(b)):
            calls[f"check_witness({level}, {w})"] = lambda x, y, level=level, w=w: check_witness(level, x, y, w)
        calls[f"search({level})"] = lambda x, y, level=level: search(level, x, y)
        calls[f"related({level})"] = lambda x, y, level=level: equiv.related(level, x, y)
        calls[f"decide({level})"] = lambda x, y, level=level: decide(level, x, y)
    for level in oracle.BOUND_LEVELS:
        calls[f"minimal_bound_n({level})"] = lambda x, y, level=level: equiv.minimal_bound_n(level, x, y)
    calls["default_pool"] = oracle.default_pool
    calls["build_from_e2"] = automorph.build_from_e2
    calls["build_from_e3"] = automorph.build_from_e3
    calls["real_embed"] = analysis.real_embed
    return calls


@pytest.mark.parametrize("dim_a, dim_b", [(1, 2), (2, 1)])
def test_every_pair_entry_point_refuses_a_mixed_pair(dim_a, dim_b):
    # one pair rule: two dimensions are an InvariantViolation whatever the
    # level, witness or companion; a standard element is refused first
    nonstandard = {1: P("t^2 + t"), 2: P("t^(1,0) + t^(0,1)", 2)}
    a, b = nonstandard[dim_a], nonstandard[dim_b]
    for name, call in _pair_calls(a, b).items():
        with pytest.raises(InvariantViolation, match="dimension mismatch"):
            call(a, b)
        for x, y in ((Element.integer(3, dim_a), b), (a, Element.integer(3, dim_b))):
            with pytest.raises(StandardInput, match="defined on nonstandard elements only"):
                call(x, y)


def test_a_large_bound_hint_costs_logarithmically_many_checks(monkeypatch):
    # the bound levels bisect on check_witness itself: a hint of 10**9 makes
    # about log2(10**9) = 30 checks, failing or not
    t, a = P("t"), P("9*t + 4")
    least = decide(2, a, t).witness
    check = oracle.check_witness
    calls = []

    def counted(level, x, y, w):
        calls.append(w)
        if len(calls) > 100:
            raise AssertionError("the search scans its bounds")
        return check(level, x, y, w)

    monkeypatch.setattr(oracle, "check_witness", counted)
    assert search(0, P("t^2"), t, hint=BoundN(10**9)) is None
    assert len(calls) <= 40, len(calls)
    calls.clear()
    assert search(2, a, t, hint=BoundN(10**9)) == least == BoundN(10)
    assert len(calls) <= 40, len(calls)
