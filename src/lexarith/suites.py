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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from . import analysis, automorph, equiv, jsonio, oracle, textform
from .errors import (
    CoefficientNotRepresentable,
    NonTerminatingQuotient,
    ValidationFailure,
)
from .model import (
    Element,
    ceil_quotient_scalar,
    deg,
    divmod_floor,
    divmod_scalar,
    pow_int,
    root_floor,
    sub,
)
from .sampler import SampleProfile, Sampler
from .witnesses import BoundN


@dataclass
class SuiteResult:
    name: str
    dim: int
    samples: int
    seed: int
    cases: int = 0
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

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
    mono = Element([(deg(a) * (1, 2), s.integer(1, 5))], a.dim)
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
        if a.dim == 1 or deg(a).level() > 0:
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


# --- suites -------------------------------------------------------------------


def suite_algebra(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("algebra", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    one = Element.integer(1, dim)
    for i in range(samples):
        a, b, c = s.element(), s.element(), s.element()
        r.check(a + b == b + a, i, "add-commutative", a, b)
        r.check((a + b) + c == a + (b + c), i, "add-associative", a, b, c)
        r.check(a * b == b * a, i, "mul-commutative", a, b)
        r.check((a * b) * c == a * (b * c), i, "mul-associative", a, b, c)
        r.check(a * (b + c) == a * b + a * c, i, "distributive", a, b, c)
        r.check(one * a == a, i, "mul-identity", a)
        r.check(a + Element.zero(dim) == a, i, "add-identity", a)
        # total, transitive order
        lo, mid = (a, b) if a <= b else (b, a)
        hi = c if c >= mid else mid
        r.check(lo <= mid <= hi and lo <= hi, i, "order-transitive", lo, mid, hi)
        if a < b:
            r.check(a + c < b + c, i, "order-add-translation", a, b, c)
            if not c.is_zero():
                r.check(a * c < b * c, i, "order-mul-translation", a, b, c)
        r.check(not (a < b and b < a + 1), i, "discreteness", a, b)
    return r


def suite_division(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("division", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    roots = Sampler(SampleProfile(dim=dim, seed=seed + 1, max_terms=2, coeff_bound=4))
    for i in range(samples):
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
            r.check(dim == 2, i, "dim1-divmod-total", a, b)
        m = roots.nonstandard()
        k = s.choice((2, 2, 3))
        target = pow_int(m, k) + Element.integer(s.integer(0, 5), dim)
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
            r.check(dim == 2, i, "dim1-root-total", target)
    return r


def suite_refinement(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("refinement", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a, b = related_pair(s)
        prev = None
        for level in range(5):
            v = equiv.decide(level, a, b)
            if v.equivalent:
                r.bump(f"positive_l{level}")
            if prev is not None and prev.equivalent:
                r.check(v.equivalent, i, f"refines-l{level - 1}-into-l{level}", a, b)
            prev = v
    return r


def suite_convexity(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("convexity", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in range(5):
            lo, mid, hi = ordered_equiv_triple(s, level)
            if not equiv.decide(level, lo, hi).equivalent:
                r.check(False, i, f"generator-l{level}", lo, hi)
                continue
            r.bump(f"triples_l{level}")
            r.check(
                equiv.decide(level, lo, mid).equivalent and equiv.decide(level, mid, hi).equivalent,
                i, f"convex-l{level}", lo, mid, hi,
            )
    return r


def _suite_closure(op_name: str, op, levels, samples: int, seed: int, dim: int) -> SuiteResult:
    """(a1 ~ b1 and a2 ~ b2) implies a1 op a2 ~ b1 op b2, at each level."""
    r = SuiteResult(f"closure-{op_name}", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in levels:
            a1, b1 = equivalent_pair(s, level)
            a2, b2 = equivalent_pair(s, level)
            r.bump(f"quads_l{level}")
            r.check(
                equiv.decide(level, op(a1, a2), op(b1, b2)).equivalent,
                i, f"closed-under-{op_name}-l{level}", a1, b1, a2, b2,
            )
    return r


def suite_closure_add(samples: int, seed: int, dim: int) -> SuiteResult:
    return _suite_closure("add", operator.add, range(5), samples, seed, dim)


def suite_closure_mul(samples: int, seed: int, dim: int) -> SuiteResult:
    return _suite_closure("mul", operator.mul, (2, 3, 4), samples, seed, dim)


def suite_equivalence(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("equivalence", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in range(5):
            a, b = equivalent_pair(s, level)
            c = equivalent_to(s, b, level)
            r.check(equiv.decide(level, a, a).equivalent, i, f"reflexive-l{level}", a)
            vab = equiv.decide(level, a, b).equivalent
            r.check(vab == equiv.decide(level, b, a).equivalent, i, f"symmetric-l{level}", a, b)
            vbc = equiv.decide(level, b, c).equivalent
            if vab and vbc:
                r.bump(f"chains_l{level}")
                r.check(equiv.decide(level, a, c).equivalent, i, f"transitive-l{level}", a, b, c)
    return r


def suite_agreement(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("agreement", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a, b = related_pair(s)
        verdicts = [equiv.decide(level, a, b) for level in range(5)]
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
    return r


def suite_witness_sets(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("witness-sets", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a3, b3 = equivalent_pair(s, 3)
        pool = oracle.default_pool(a3, b3, n_max=6)
        inside = []
        for c in pool:
            same = oracle.powers_stay_below(c, a3) == oracle.powers_stay_below(c, b3)
            r.check(same, i, "power-smallness-invariant", c, a3, b3)
            if oracle.powers_stay_below(c, a3) and not c.is_zero():
                inside.append(c)
        for j in range(min(len(inside) - 1, 4)):
            c1, c2 = inside[j], inside[j + 1]
            r.check(oracle.powers_stay_below(c1 * c2, a3), i, "power-small-closed-mul", c1, c2)
            r.check(oracle.powers_stay_below(c1 + c2, a3), i, "power-small-closed-add", c1, c2)
            lowmid, _ = divmod_scalar(c1 + c2, 2)
            if not lowmid.is_zero():
                r.check(oracle.powers_stay_below(lowmid, a3), i, "power-small-convex", lowmid)
        a1, b1 = equivalent_pair(s, 1)
        pool1 = oracle.default_pool(a1, b1, n_max=6)
        small = [c for c in pool1 if oracle.multiples_stay_below(c, a1) and not c.is_zero()]
        for c in pool1:
            r.check(
                oracle.multiples_stay_below(c, a1) == oracle.multiples_stay_below(c, b1),
                i, "multiple-smallness-invariant", c, a1, b1,
            )
        for j in range(min(len(small) - 1, 4)):
            r.check(
                oracle.multiples_stay_below(small[j] + small[j + 1], a1),
                i, "multiple-small-closed-add", small[j], small[j + 1],
            )
    return r


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


def suite_separation(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("separation", dim, samples, seed)
    r.stats["exhibits"] = []
    for fails_at, holds_at, ta, tb in SEPARATION_EXHIBITS[dim]:
        a = textform.parse_element(ta, dim)
        b = textform.parse_element(tb, dim)
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
    return r


def _probe_set(s: Sampler, dim: int, count: int, extra=()) -> list:
    probes = {Element.integer(k, dim) for k in (0, 1, 2, 7)}
    for e in extra:
        probes.add(e)
        probes.add(e + 1)
    guard = 0
    while len(probes) < count and guard < 20 * count:
        guard += 1
        probes.add(s.element())
    return sorted(probes)


def _run_automorph_cases(
    r: SuiteResult, samples: int, seed: int, dim: int, level: int, probe_pairs: int
) -> None:
    from bisect import insort

    s = Sampler(SampleProfile(dim=dim, seed=seed))
    build = automorph.build_from_e2 if level == 2 else automorph.build_from_e3
    base_probes = _probe_set(s, dim, probe_pairs + 1)
    base_set = set(base_probes)
    for i in range(samples):
        a, b = equivalent_pair(s, level)
        if level == 3 and s.chance(0.5) and a.dim == 2 and deg(a).level() == 0:
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
        probes = list(base_probes)
        for anchor in {a, b, a + 1} - base_set:
            insort(probes, anchor)
        failure = None
        try:
            report = automorph.validate(d, probes, anchors=((a, b),))
            r.bump("probe_pairs", report.pairs)
        except ValidationFailure as vf:
            failure = vf
        r.check(failure is None, i, f"validate-e{level}", failure)


def suite_auto_e2(samples: int, seed: int, dim: int, probe_pairs: int = 48) -> SuiteResult:
    r = SuiteResult("auto-e2", dim, samples, seed)
    _run_automorph_cases(r, samples, seed, dim, 2, probe_pairs)
    return r


def suite_auto_e3(samples: int, seed: int, dim: int, probe_pairs: int = 48) -> SuiteResult:
    r = SuiteResult("auto-e3", dim, samples, seed)
    if dim != 2:
        r.stats["skipped"] = "level-3 construction is nontrivial only for dim 2"
        return r
    _run_automorph_cases(r, samples, seed, dim, 3, probe_pairs)
    return r


def suite_sequences(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("sequences", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a = s.nonstandard()
        up0 = analysis.e0_seq(a, 6, "up")
        down0 = analysis.e0_seq(a, 6, "down")
        r.check(all(up0.terms[j] < up0.terms[j + 1] for j in range(5)), i, "e0-up-strictly-increasing", a)
        r.check(all(down0.terms[j] > down0.terms[j + 1] for j in range(5)), i, "e0-down-strictly-decreasing", a)
        up2 = analysis.e2_seq(a, 6, "up")
        down2 = analysis.e2_seq(a, 6, "down")
        r.check(all(up2.terms[j] < up2.terms[j + 1] for j in range(5)), i, "e2-up-strictly-increasing", a)
        r.check(all(down2.terms[j] > down2.terms[j + 1] for j in range(5)), i, "e2-down-strictly-decreasing", a)
        for t in up0.terms + down0.terms:
            r.check(equiv.decide(0, a, t).equivalent, i, "e0-terms-in-class", t)
        for t in up2.terms + down2.terms:
            r.check(equiv.decide(2, a, t).equivalent, i, "e2-terms-in-class", t)
        for n in range(1, 6):
            cq = ceil_quotient_scalar(a, n)
            r.check(
                cq * n >= a and (cq.is_zero() or sub(cq, Element.integer(1, dim)) * n < a),
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
    return r


def suite_b11(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("b11", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    one = Element.integer(1, dim)
    for i in range(samples):
        a = s.nonstandard()
        if s.chance(0.5):
            # unit leading coefficient: every 2**n-th root floor is representable
            a = Element([(deg(a), 1)], dim) + s.integer(0, 5)
        for direction in ("up", "down"):
            try:
                seq = analysis.b11_seq(a, 3, direction)
            except CoefficientNotRepresentable:
                r.bump("not_representable")
                continue
            except NonTerminatingQuotient:
                r.bump("budget_exceeded")
                continue
            r.bump(f"emitted_{direction}")
            terms = seq.terms
            if direction == "up":
                r.check(
                    all(terms[j] > terms[j + 1] for j in range(len(terms) - 1)),
                    i, "b11-upper-strictly-decreasing", a,
                )
            else:
                r.check(
                    all(terms[j] < terms[j + 1] for j in range(len(terms) - 1)),
                    i, "b11-lower-strictly-increasing", a,
                )
            for n, t in enumerate(terms, start=1):
                if direction == "up":
                    holds = analysis.b11_upper_holds(a, n, t)
                    next_refuted = not analysis.b11_upper_holds(a, n, t + a)
                    off_lattice = not analysis.b11_upper_holds(a, n, t + 1)
                    r.check(holds and next_refuted and off_lattice, i, "b11-upper-max-certified", a, n)
                    mate = a * s.integer(1, 3) + s.integer(0, 4)
                    r.check(t > mate, i, "b11-upper-bounds-class", t, mate)
                else:
                    holds = analysis.b11_lower_holds(a, n, t)
                    next_refuted = not analysis.b11_lower_holds(a, n, t + one)
                    r.check(holds and next_refuted, i, "b11-lower-max-certified", a, n)
                    mate = ceil_quotient_scalar(a, s.integer(1, 3))
                    r.check(t < mate, i, "b11-lower-bounded-by-class", t, mate)
    return r


def suite_embed(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("embed", dim, samples, seed)
    if dim != 2:
        r.stats["skipped"] = "the real embedding is computed on the dim-2 lattice"
        return r
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    anchor = textform.parse_element("t^(1,0)", 2)

    def class_member() -> Element:
        p = (s.integer(1, 6), s.integer(1, 3))
        q = (s.integer(-4, 6), s.integer(1, 3))
        b = Element.monomial(s.integer(1, 7), (p, q), dim=2)
        if s.chance(0.5):
            b = b + _lower_perturbation(s, b)
        return b

    for i in range(samples):
        b1, b2 = class_member(), class_member()
        v1 = analysis.real_embed(anchor, b1)
        v2 = analysis.real_embed(anchor, b2)
        r.check(not v1.degenerate and not v2.degenerate, i, "embed-nondegenerate", b1, b2)
        same_class = equiv.decide(3, b1, b2).equivalent
        r.check(same_class == (v1.value == v2.value), i, "embed-constant-iff-same-class", b1, b2)
        if not same_class:
            lo, hi = (b1, b2) if b1 < b2 else (b2, b1)
            r.check(
                analysis.real_embed(anchor, lo).value < analysis.real_embed(anchor, hi).value,
                i, "embed-order-preserving", lo, hi,
            )
        v12 = analysis.real_embed(anchor * anchor, b1 * b2)
        r.check(v12.value == v1.value + v2.value, i, "embed-additive-over-products", b1, b2)
    return r


def suite_roundtrip(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("roundtrip", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        e = s.element()
        text = textform.format_element(e)
        r.check(textform.parse_element(text, dim) == e, i, "parse-format-roundtrip", text)
        r.check(jsonio.element_from_json(jsonio.element_to_json(e), dim) == e, i, "json-roundtrip", text)
    return r


# Each suite with the share of the requested sample count it runs: the
# heavier suites run a fraction.  The order is the order of ``all``.
SUITES = {
    "algebra": (suite_algebra, 1.0),
    "division": (suite_division, 0.25),
    "refinement": (suite_refinement, 1.0),
    "convexity": (suite_convexity, 0.5),
    "closure-add": (suite_closure_add, 0.5),
    "closure-mul": (suite_closure_mul, 0.25),
    "equivalence": (suite_equivalence, 0.25),
    "agreement": (suite_agreement, 0.25),
    "witness-sets": (suite_witness_sets, 0.1),
    "separation": (suite_separation, 1.0),
    "auto-e2": (suite_auto_e2, 0.1),
    "auto-e3": (suite_auto_e3, 0.1),
    "sequences": (suite_sequences, 0.1),
    "b11": (suite_b11, 0.1),
    "embed": (suite_embed, 0.25),
    "roundtrip": (suite_roundtrip, 1.0),
}


def run_suites(name: str, samples: int, seed: int, dim: int) -> list:
    """Run one named suite, or all of them, deterministically."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; try one of {', '.join(SUITES)} or 'all'")
    results = []
    for n in names:
        suite, scale = SUITES[n]
        results.append(suite(max(1, int(samples * scale)), seed, dim))
    return results


def result_to_json(r: SuiteResult) -> dict:
    return {
        "name": r.name,
        "dim": r.dim,
        "samples": r.samples,
        "seed": r.seed,
        "cases": r.cases,
        "violations": r.violations,
        "stats": r.stats,
        "ok": r.ok,
    }
