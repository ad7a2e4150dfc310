"""Seeded property suites.

Each suite draws deterministic samples, checks a family of exact laws, and
reports violations as data (never by raising): the CLI turns a non-empty
violation list into a nonzero exit.  Pair generators produce *correlated*
pairs so that every equivalence level is exercised with both positive and
negative instances; the per-level stats in the result make vacuous runs
visible.

A check names the law and its subjects: ``r.check(cond, case, law,
*subjects)``.  Only a failed check writes a violation record ``{"case",
"law", "detail"}``; its detail is the subjects joined by ``" ; "``, each
element in its text form and anything else through ``str``.  A passing
check formats nothing.

A suite decides each pair at each level once and reads that verdict
wherever a later check needs it; the agreement suite hands a positive
verdict's witness to the oracle's ``search`` as its ``hint``.

A suite is added as one decorated body: ``@_suite(name, scale)`` over
``body(r, s, **kw)`` registers it in ``SUITES``, whose order (the order of
definition) is the order of ``all``, and returns the public
``suite_x(samples, seed, dim, **kw)``.  That builds the ``SuiteResult``
``r`` and the ``Sampler`` ``s`` seeded with ``seed``, runs the body, which
reads ``r.samples``, ``r.seed`` and ``r.dim``, and returns ``r``.  A suite
declared with ``dim2_only=reason`` runs nothing in dim 1 and records the
reason as ``stats["skipped"]``.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

from . import analysis, automorph, equiv, jsonio, oracle, textform
from .errors import (
    CoefficientNotRepresentable,
    InvariantViolation,
    NonTerminatingQuotient,
    ResourceLimit,
    ValidationFailure,
)
from .model import (
    Element,
    ceil_quotient_scalar,
    deg_level,
    divmod_floor,
    divmod_scalar,
    lead_term,
    pow_int,
    root_floor,
    sub,
)
from .oracle import BoundN
from .sampler import SampleProfile, Sampler


class SuiteResult(SimpleNamespace):
    """A suite's arguments and what it found; the suite body fills in the
    cases, violations and stats.  Equal results have equal fields, and a
    result, being mutable, has no hash."""

    def __init__(self, name: str, dim: int, samples: int, seed: int):
        super().__init__(name=name, dim=dim, samples=samples, seed=seed, cases=0, violations=[], stats={})

    @property
    def ok(self) -> bool:
        return not self.violations

    def bump(self, key: str, by: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + by

    def check(self, cond: bool, case: int, law: str, *subjects) -> bool:
        self.cases += 1
        if not cond:
            detail = " ; ".join(
                textform.format_element(x) if isinstance(x, Element) else str(x) for x in subjects
            )
            self.violations.append({"case": case, "law": law, "detail": detail})
        return cond


# --- correlated generators ----------------------------------------------------


def _lower_perturbation(s: Sampler, a: Element) -> Element:
    """A positive element of strictly smaller degree than a."""
    # half of a's degree: p/(2q) for each pair, which Element(...) reduces
    mono = Element([([(p, 2 * q) for p, q in lead_term(a)[0]], s.integer(1, 5))], a.dim)
    return mono + Element.integer(s.integer(0, 3), a.dim)


def equivalent_to(s: Sampler, a: Element, level: int) -> Element:
    """A varied class-mate of a at the given level."""
    if level == 0:
        return a + s.integer(-3, 9) if s.chance(0.9) else a
    if level == 1:
        d = _lower_perturbation(s, a)
        if s.chance(0.3) and a > d + 1:
            return sub(a, d)
        return a + d
    if level == 2:
        b = a * s.integer(1, 4)
        if s.chance(0.5):
            b = b + _lower_perturbation(s, a)
        return b + s.integer(-2, 4)
    if level == 3:
        if a.dim == 1 or deg_level(a) > 0:
            return equivalent_to(s, a, 2)
        shift = Element.monomial(1, (0, s.integer(1, 4)), dim=2)
        b = a * shift * s.integer(1, 3)
        if s.chance(0.5):
            b = b + _lower_perturbation(s, b)
        return b
    if level == 4:
        if a.dim == 1:
            return s.nonstandard()
        b = pow_int(a, 2) if s.chance(0.4) else a * s.integer(1, 3)
        if s.chance(0.4):
            b = b + _lower_perturbation(s, b)
        return b
    raise AssertionError(level)


def equivalent_pair(s: Sampler, level: int) -> tuple:
    a = s.nonstandard()
    return a, equivalent_to(s, a, level)


def related_pair(s: Sampler) -> tuple:
    """A nonstandard pair with a mixed relation profile across all levels."""
    mode = s.integer(0, 6)
    if mode == 6:
        return s.nonstandard(), s.nonstandard()
    if mode == 5:
        a = s.nonstandard()
        return a, a
    return equivalent_pair(s, mode)


def ordered_equiv_triple(s: Sampler, level: int) -> tuple:
    """lo < mid < hi with lo and hi equivalent at the level."""
    a, b = equivalent_pair(s, level)
    lo, hi = (a, b) if a < b else (b, a)
    if hi < lo + 2:
        hi = hi + 2
    mid, _ = divmod_scalar(lo + hi, 2)
    return lo, mid, hi


# --- registry -----------------------------------------------------------------

# Each suite, in the order of ``all``, with the share of the requested sample
# count it runs: the heavier suites run a fraction.
SUITES = {}


def _suite(name: str, scale: float, dim2_only: str = "", **bound):
    """Register ``body(r, s, **bound, **kw)`` as the suite ``name``."""

    def register(body):
        def suite(samples: int, seed: int, dim: int, **kw) -> SuiteResult:
            r = SuiteResult(name, dim, samples, seed)
            if dim2_only and dim != 2:
                r.stats["skipped"] = dim2_only
            else:
                body(r, Sampler(SampleProfile(dim=dim, seed=seed)), **bound, **kw)
            return r

        SUITES[name] = (suite, scale)
        return suite

    return register


# --- suites -------------------------------------------------------------------


@_suite("algebra", 1.0)
def suite_algebra(r: SuiteResult, s: Sampler) -> None:
    one = Element.integer(1, r.dim)
    for i in range(r.samples):
        a, b, c = s.element(), s.element(), s.element()
        r.check(a + b == b + a, i, "add-commutative", a, b)
        r.check((a + b) + c == a + (b + c), i, "add-associative", a, b, c)
        r.check(a * b == b * a, i, "mul-commutative", a, b)
        r.check((a * b) * c == a * (b * c), i, "mul-associative", a, b, c)
        r.check(a * (b + c) == a * b + a * c, i, "distributive", a, b, c)
        r.check(one * a == a, i, "mul-identity", a)
        r.check(a + Element.zero(r.dim) == a, i, "add-identity", a)
        # total, transitive order
        lo, mid = (a, b) if a <= b else (b, a)
        hi = c if c >= mid else mid
        r.check(lo <= mid <= hi and lo <= hi, i, "order-transitive", lo, mid, hi)
        if a < b:
            r.check(a + c < b + c, i, "order-add-translation", a, b, c)
            if not c.is_zero():
                r.check(a * c < b * c, i, "order-mul-translation", a, b, c)
        r.check(not (a < b and b < a + 1), i, "discreteness", a, b)


@_suite("division", 0.25)
def suite_division(r: SuiteResult, s: Sampler) -> None:
    roots = Sampler(SampleProfile(dim=r.dim, seed=r.seed + 1, max_terms=2, coeff_bound=4))
    for i in range(r.samples):
        a = s.element()
        n = s.integer(1, 9)
        q, rem = divmod_scalar(a, n)
        r.check(q * n + rem == a and 0 <= rem < n, i, "divmod-scalar-contract", a, n)
        b = s.nonstandard()
        try:
            q2, r2 = divmod_floor(a, b)
            r.bump("euclidean_ok")
            r.check(q2 * b + r2 == a and r2 < b, i, "euclidean-contract", a, b)
        except NonTerminatingQuotient:
            r.bump("euclidean_budget_exceeded")
            r.check(r.dim == 2, i, "dim1-divmod-total", a, b)
        m = roots.nonstandard()
        k = s.choice((2, 2, 3))
        target = pow_int(m, k) + Element.integer(s.integer(0, 5), r.dim)
        try:
            root = root_floor(target, k)
            r.bump("root_ok")
            r.check(
                pow_int(root, k) <= target < pow_int(root + 1, k),
                i, "root-floor-contract", target, k,
            )
        except CoefficientNotRepresentable:
            r.bump("root_not_representable")
        except NonTerminatingQuotient:
            r.bump("root_budget_exceeded")
            r.check(r.dim == 2, i, "dim1-root-total", target)


@_suite("refinement", 1.0)
def suite_refinement(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        a, b = related_pair(s)
        prev = None
        for level in equiv.LEVELS:
            v = equiv.decide(level, a, b)
            if v.equivalent:
                r.bump(f"positive_l{level}")
            if prev is not None and prev.equivalent:
                r.check(v.equivalent, i, f"refines-l{level - 1}-into-l{level}", a, b)
            prev = v


@_suite("convexity", 0.5)
def suite_convexity(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        for level in equiv.LEVELS:
            lo, mid, hi = ordered_equiv_triple(s, level)
            if not equiv.decide(level, lo, hi).equivalent:
                r.check(False, i, f"generator-l{level}", lo, hi)
                continue
            r.bump(f"triples_l{level}")
            r.check(
                equiv.decide(level, lo, mid).equivalent and equiv.decide(level, mid, hi).equivalent,
                i, f"convex-l{level}", lo, mid, hi,
            )


def _closure(r: SuiteResult, s: Sampler, op, levels) -> None:
    """(a1 ~ b1 and a2 ~ b2) implies a1 op a2 ~ b1 op b2, at each level."""
    for i in range(r.samples):
        for level in levels:
            a1, b1 = equivalent_pair(s, level)
            a2, b2 = equivalent_pair(s, level)
            r.bump(f"quads_l{level}")
            r.check(
                equiv.decide(level, op(a1, a2), op(b1, b2)).equivalent,
                i, f"closed-under-{op.__name__}-l{level}", a1, b1, a2, b2,
            )


suite_closure_add = _suite("closure-add", 0.5, op=operator.add, levels=equiv.LEVELS)(_closure)
suite_closure_mul = _suite("closure-mul", 0.25, op=operator.mul, levels=(2, 3, 4))(_closure)


@_suite("equivalence", 0.25)
def suite_equivalence(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        for level in equiv.LEVELS:
            a, b = equivalent_pair(s, level)
            c = equivalent_to(s, b, level)
            r.check(equiv.decide(level, a, a).equivalent, i, f"reflexive-l{level}", a)
            vab = equiv.decide(level, a, b).equivalent
            r.check(vab == equiv.decide(level, b, a).equivalent, i, f"symmetric-l{level}", a, b)
            vbc = equiv.decide(level, b, c).equivalent
            if vab and vbc:
                r.bump(f"chains_l{level}")
                r.check(equiv.decide(level, a, c).equivalent, i, f"transitive-l{level}", a, b, c)


@_suite("agreement", 0.25)
def suite_agreement(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        a, b = related_pair(s)
        verdicts = [equiv.decide(level, a, b) for level in equiv.LEVELS]
        for level, v in enumerate(verdicts):
            if v.equivalent:
                r.bump(f"positive_l{level}")
                r.check(
                    oracle.check_witness(level, a, b, v.witness),
                    i, f"witness-sound-l{level}", a, b, v.witness,
                )
                found = oracle.search(level, a, b, hint=v.witness)
                r.check(found is not None, i, f"search-complete-l{level}", a, b)
            else:
                r.bump(f"negative_l{level}")
                found = oracle.search(level, a, b, n_max=8)
                r.check(found is None, i, f"search-exhausts-on-negative-l{level}", a, b, found)
        for level in equiv.BOUND_LEVELS:
            if verdicts[level].equivalent:
                n = equiv.minimal_bound_n(level, a, b)
                r.check(
                    oracle.check_witness(level, a, b, BoundN(n))
                    and not oracle.check_witness(level, a, b, BoundN(n - 1)),
                    i, f"minimal-bound-l{level}", a, b, n,
                )


def _small_neighbours(r: SuiteResult, s: Sampler, i: int, level: int, small, kind: str) -> tuple:
    """Draw a pair equivalent at the level and check that ``small(c, .)``
    agrees on both for every candidate c of their pool.  Returns the first
    element of the pair and up to four neighbouring pairs of the nonzero
    candidates small below it."""
    a, b = equivalent_pair(s, level)
    members = []
    for c in oracle.default_pool(a, b, n_max=6):
        below_a = small(c, a)
        r.check(below_a == small(c, b), i, f"{kind}-smallness-invariant", c, a, b)
        if below_a and not c.is_zero():
            members.append(c)
    return a, zip(members, members[1:5])


@_suite("witness-sets", 0.1)
def suite_witness_sets(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        a3, neighbours = _small_neighbours(r, s, i, 3, oracle.powers_stay_below, "power")
        for c1, c2 in neighbours:
            r.check(oracle.powers_stay_below(c1 * c2, a3), i, "power-small-closed-mul", c1, c2)
            r.check(oracle.powers_stay_below(c1 + c2, a3), i, "power-small-closed-add", c1, c2)
            lowmid, _ = divmod_scalar(c1 + c2, 2)
            if not lowmid.is_zero():
                r.check(oracle.powers_stay_below(lowmid, a3), i, "power-small-convex", lowmid)
        a1, neighbours = _small_neighbours(r, s, i, 1, oracle.multiples_stay_below, "multiple")
        for c1, c2 in neighbours:
            r.check(oracle.multiples_stay_below(c1 + c2, a1), i, "multiple-small-closed-add", c1, c2)


SEPARATION_EXHIBITS = {
    1: (
        (0, 1, "t^2 + t", "t^2"),
        (1, 2, "t^2", "2*t^2"),
    ),
    2: (
        (0, 1, "t^(2,0) + t^(1,0)", "t^(2,0)"),
        (1, 2, "t^(2,0)", "2*t^(2,0)"),
        (2, 3, "t^(1,0)", "t^(1,1)"),
        (3, 4, "t^(1,0)", "t^(2,0)"),
    ),
}


@_suite("separation", 1.0)
def suite_separation(r: SuiteResult, s: Sampler) -> None:
    r.stats["exhibits"] = []
    for fails_at, holds_at, ta, tb in SEPARATION_EXHIBITS[r.dim]:
        a = textform.parse_element(ta, r.dim)
        b = textform.parse_element(tb, r.dim)
        vh = equiv.decide(holds_at, a, b)
        r.check(vh.equivalent, 0, f"exhibit-holds-l{holds_at}", ta, tb)
        if vh.equivalent:
            r.check(
                oracle.check_witness(holds_at, a, b, vh.witness),
                0, f"exhibit-witness-l{holds_at}", ta, tb,
            )
        vf = equiv.decide(fails_at, a, b)
        r.check(not vf.equivalent, 0, f"exhibit-fails-l{fails_at}", ta, tb)
        found = oracle.search(fails_at, a, b, n_max=12)
        r.check(found is None, 0, f"exhibit-refuted-l{fails_at}", ta, tb)
        r.stats["exhibits"].append(
            {"strict_in": fails_at, "holds_at": holds_at, "a": ta, "b": tb}
        )


def _probe_set(s: Sampler, dim: int, count: int) -> list:
    probes = {Element.integer(k, dim) for k in (0, 1, 2, 7)}
    guard = 0
    while len(probes) < count and guard < 20 * count:
        guard += 1
        probes.add(s.element())
    return sorted(probes)


def _automorph_cases(r: SuiteResult, s: Sampler, level: int, probe_pairs: int = 48) -> None:
    build = automorph.build_from_e2 if level == 2 else automorph.build_from_e3
    base_probes = _probe_set(s, r.dim, probe_pairs + 1)
    for i in range(r.samples):
        a, b = equivalent_pair(s, level)
        if level == 3 and s.chance(0.5) and a.dim == 2 and deg_level(a) == 0:
            # bias toward the genuinely non-finite-ratio regime
            b = b * Element.monomial(1, (0, 1), dim=2)
        try:
            d = build(a, b)
        except Exception as exc:  # build must succeed on generated pairs
            r.check(False, i, f"build-e{level}", a, b, repr(exc))
            continue
        r.bump("built")
        image = automorph.apply(d, a)
        r.check(image == b, i, f"anchor-exact-e{level}", a, image, b)
        failure = None
        try:
            report = automorph.validate(d, base_probes + [a, b, a + 1], anchors=((a, b),))
            r.bump("probe_pairs", report.pairs)
        except ValidationFailure as vf:
            failure = vf
        r.check(failure is None, i, f"validate-e{level}", failure)


suite_auto_e2 = _suite("auto-e2", 0.1, level=2)(_automorph_cases)
suite_auto_e3 = _suite(
    "auto-e3", 0.1, dim2_only="level-3 construction is nontrivial only for dim 2", level=3
)(_automorph_cases)


@_suite("sequences", 0.1)
def suite_sequences(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        a = s.nonstandard()
        for level, seq in ((0, analysis.e0_seq), (2, analysis.e2_seq)):
            up, down = seq(a, 6, "up").terms, seq(a, 6, "down").terms
            r.check(all(x < y for x, y in zip(up, up[1:])), i, f"e{level}-up-strictly-increasing", a)
            r.check(all(x > y for x, y in zip(down, down[1:])), i, f"e{level}-down-strictly-decreasing", a)
            for t in up + down:
                r.check(equiv.decide(level, a, t).equivalent, i, f"e{level}-terms-in-class", t)
        for n in range(1, 6):
            cq = ceil_quotient_scalar(a, n)
            r.check(
                cq * n >= a and (cq.is_zero() or (cq - 1) * n < a),
                i, "ceil-division-minimality", a, n,
            )
        # cofinality against class-mates, passing index from the witness
        mate0 = a + s.integer(-9, 9)
        idx0 = analysis.e0_passing_index(a, mate0)
        seq_up = analysis.e0_seq(a, idx0 + 1, "up")
        seq_dn = analysis.e0_seq(a, idx0 + 1, "down")
        r.check(seq_up.terms[idx0] > mate0, i, "e0-cofinal", a, mate0)
        r.check(seq_dn.terms[idx0] < mate0, i, "e0-coinitial", a, mate0)
        mate2 = a * s.integer(1, 5) + s.integer(-2, 6)
        up_idx = analysis.e2_passing_index(a, mate2, "up")
        dn_idx = analysis.e2_passing_index(a, mate2, "down")
        sequp = analysis.e2_seq(a, up_idx, "up")
        seqdn = analysis.e2_seq(a, dn_idx, "down")
        r.check(sequp.terms[up_idx - 1] > mate2, i, "e2-cofinal", a, mate2)
        r.check(seqdn.terms[dn_idx - 1] < mate2, i, "e2-coinitial", a, mate2)


@_suite("b11", 0.1)
def suite_b11(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        a = s.nonstandard()
        if s.chance(0.5):
            # unit leading coefficient: every 2**n-th root floor is representable
            a = Element([(lead_term(a)[0], 1)], r.dim) + s.integer(0, 5)
        for direction in ("up", "down"):
            try:
                terms = analysis.b11_seq(a, 3, direction).terms
            except CoefficientNotRepresentable:
                r.bump("not_representable")
                continue
            except NonTerminatingQuotient:
                r.bump("budget_exceeded")
                continue
            r.bump(f"emitted_{direction}")
            if direction == "up":
                r.check(all(x > y for x, y in zip(terms, terms[1:])), i, "b11-upper-strictly-decreasing", a)
                for n, t in enumerate(terms, start=1):
                    holds = analysis.b11_upper_holds(a, n, t)
                    next_refuted = not analysis.b11_upper_holds(a, n, t + a)
                    off_lattice = not analysis.b11_upper_holds(a, n, t + 1)
                    r.check(holds and next_refuted and off_lattice, i, "b11-upper-max-certified", a, n)
                    mate = a * s.integer(1, 3) + s.integer(0, 4)
                    r.check(t > mate, i, "b11-upper-bounds-class", t, mate)
            else:
                r.check(all(x < y for x, y in zip(terms, terms[1:])), i, "b11-lower-strictly-increasing", a)
                for n, t in enumerate(terms, start=1):
                    holds = analysis.b11_lower_holds(a, n, t)
                    next_refuted = not analysis.b11_lower_holds(a, n, t + 1)
                    r.check(holds and next_refuted, i, "b11-lower-max-certified", a, n)
                    mate = ceil_quotient_scalar(a, s.integer(1, 3))
                    r.check(t < mate, i, "b11-lower-bounded-by-class", t, mate)


@_suite("embed", 0.25, dim2_only="the real embedding is computed on the dim-2 lattice")
def suite_embed(r: SuiteResult, s: Sampler) -> None:
    anchor = textform.parse_element("t^(1,0)", 2)

    def class_member() -> Element:
        p = (s.integer(1, 6), s.integer(1, 3))
        q = (s.integer(-4, 6), s.integer(1, 3))
        b = Element.monomial(s.integer(1, 7), (p, q), dim=2)
        if s.chance(0.5):
            b = b + _lower_perturbation(s, b)
        return b

    for i in range(r.samples):
        b1, b2 = class_member(), class_member()
        v1 = analysis.real_embed(anchor, b1)
        v2 = analysis.real_embed(anchor, b2)
        r.check(not v1.degenerate and not v2.degenerate, i, "embed-nondegenerate", b1, b2)
        same_class = equiv.decide(3, b1, b2).equivalent
        r.check(same_class == (v1.value == v2.value), i, "embed-constant-iff-same-class", b1, b2)
        if not same_class:
            (lo, vlo), (hi, vhi) = ((b1, v1), (b2, v2)) if b1 < b2 else ((b2, v2), (b1, v1))
            r.check(vlo.value < vhi.value, i, "embed-order-preserving", lo, hi)
        v12 = analysis.real_embed(anchor * anchor, b1 * b2)
        r.check(v12.value == v1.value + v2.value, i, "embed-additive-over-products", b1, b2)


@_suite("roundtrip", 1.0)
def suite_roundtrip(r: SuiteResult, s: Sampler) -> None:
    for i in range(r.samples):
        e = s.element()
        text = textform.format_element(e)
        r.check(textform.parse_element(text, r.dim) == e, i, "parse-format-roundtrip", text)
        r.check(jsonio.element_from_json(jsonio.element_to_json(e), r.dim) == e, i, "json-roundtrip", text)


# the most samples a run takes: ``suite all`` at seed 7 ran 30 s in dim 1
# and 41 s in dim 2 at 10,000 samples, against 2.2 s and 2.6 s at 1,000
# (2-CPU Xeon VM, Python 3.11)
MAX_SAMPLES = 10_000


def run_suites(name: str, samples: int, seed: int, dim: int) -> list:
    """Run one named suite, or all of them, deterministically."""
    if samples < 1:
        raise InvariantViolation(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ResourceLimit(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise InvariantViolation(f"unknown suite {name!r}; try one of {', '.join(SUITES)} or 'all'")
    results = []
    for n in names:
        suite, scale = SUITES[n]
        results.append(suite(max(1, int(samples * scale)), seed, dim))
    return results


def result_to_json(r: SuiteResult) -> dict:
    return {**vars(r), "ok": r.ok}
