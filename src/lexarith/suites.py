"""Seeded property suites.

Each suite draws deterministic samples, checks a family of exact laws, and
reports violations as data (never by raising): the CLI turns a non-empty
violation list into a nonzero exit.  Pair generators produce *correlated*
pairs so that every equivalence level is exercised with both positive and
negative instances; the per-level stats in the result make vacuous runs
visible.
"""

from __future__ import annotations

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

    def check(self, cond: bool, case: int, law: str, detail: str = "") -> bool:
        self.cases += 1
        if not cond:
            self.violations.append({"case": case, "law": law, "detail": detail})
        return cond


def _fmt(e: Element) -> str:
    return textform.format_element(e)


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
        r.check(a + b == b + a, i, "add-commutative", f"{_fmt(a)} ; {_fmt(b)}")
        r.check((a + b) + c == a + (b + c), i, "add-associative", f"{_fmt(a)} ; {_fmt(b)} ; {_fmt(c)}")
        r.check(a * b == b * a, i, "mul-commutative", f"{_fmt(a)} ; {_fmt(b)}")
        r.check((a * b) * c == a * (b * c), i, "mul-associative", f"{_fmt(a)} ; {_fmt(b)} ; {_fmt(c)}")
        r.check(a * (b + c) == a * b + a * c, i, "distributive", f"{_fmt(a)} ; {_fmt(b)} ; {_fmt(c)}")
        r.check(one * a == a, i, "mul-identity", _fmt(a))
        r.check(a + Element.zero(dim) == a, i, "add-identity", _fmt(a))
        # total, transitive order
        lo, mid = (a, b) if a <= b else (b, a)
        hi = c if c >= mid else mid
        r.check(lo <= mid <= hi and lo <= hi, i, "order-transitive", "")
        if a < b:
            r.check(a + c < b + c, i, "order-add-translation", f"{_fmt(a)} < {_fmt(b)} ; {_fmt(c)}")
            if not c.is_zero():
                r.check(a * c < b * c, i, "order-mul-translation", f"{_fmt(a)} < {_fmt(b)} ; {_fmt(c)}")
        r.check(not (a < b and b < a + 1), i, "discreteness", f"{_fmt(a)} ; {_fmt(b)}")
    return r


def suite_division(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("division", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    roots = Sampler(SampleProfile(dim=dim, seed=seed + 1, max_terms=2, coeff_bound=4))
    for i in range(samples):
        a = s.element()
        n = s.integer(1, 9)
        q, rem = divmod_scalar(a, n)
        r.check(q * n + rem == a and 0 <= rem < n, i, "divmod-scalar-contract", f"{_fmt(a)} / {n}")
        b = s.nonstandard()
        try:
            q2, r2 = divmod_floor(a, b)
            r.bump("euclidean_ok")
            r.check(
                q2 * b + r2 == a and r2 < b,
                i,
                "euclidean-contract",
                f"{_fmt(a)} / {_fmt(b)}",
            )
        except NonTerminatingQuotient:
            r.bump("euclidean_budget_exceeded")
            r.check(dim == 2, i, "dim1-divmod-total", f"{_fmt(a)} / {_fmt(b)}")
        m = roots.nonstandard()
        k = s.choice((2, 2, 3))
        target = pow_int(m, k) + Element.integer(s.integer(0, 5), dim)
        try:
            root = root_floor(target, k)
            r.bump("root_ok")
            r.check(
                pow_int(root, k) <= target < pow_int(root + 1, k),
                i,
                "root-floor-contract",
                f"{_fmt(target)} ^(1/{k})",
            )
        except CoefficientNotRepresentable:
            r.bump("root_not_representable")
        except NonTerminatingQuotient:
            r.bump("root_budget_exceeded")
            r.check(dim == 2, i, "dim1-root-total", _fmt(target))
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
                r.check(
                    v.equivalent,
                    i,
                    f"refines-l{level - 1}-into-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)}",
                )
            prev = v
    return r


def suite_convexity(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("convexity", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in range(5):
            lo, mid, hi = ordered_equiv_triple(s, level)
            if not equiv.decide(level, lo, hi).equivalent:
                r.check(False, i, f"generator-l{level}", f"{_fmt(lo)} ; {_fmt(hi)}")
                continue
            r.bump(f"triples_l{level}")
            r.check(
                equiv.decide(level, lo, mid).equivalent and equiv.decide(level, mid, hi).equivalent,
                i,
                f"convex-l{level}",
                f"{_fmt(lo)} < {_fmt(mid)} < {_fmt(hi)}",
            )
    return r


def suite_closure_add(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("closure-add", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in range(5):
            a1, b1 = equivalent_pair(s, level)
            a2, b2 = equivalent_pair(s, level)
            r.bump(f"quads_l{level}")
            r.check(
                equiv.decide(level, a1 + a2, b1 + b2).equivalent,
                i,
                f"closed-under-add-l{level}",
                f"({_fmt(a1)},{_fmt(b1)}) ; ({_fmt(a2)},{_fmt(b2)})",
            )
    return r


def suite_closure_mul(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("closure-mul", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in (2, 3, 4):
            a1, b1 = equivalent_pair(s, level)
            a2, b2 = equivalent_pair(s, level)
            r.bump(f"quads_l{level}")
            r.check(
                equiv.decide(level, a1 * a2, b1 * b2).equivalent,
                i,
                f"closed-under-mul-l{level}",
                f"({_fmt(a1)},{_fmt(b1)}) ; ({_fmt(a2)},{_fmt(b2)})",
            )
    return r


def suite_equivalence(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("equivalence", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        for level in range(5):
            a, b = equivalent_pair(s, level)
            c = equivalent_to(s, b, level)
            r.check(equiv.decide(level, a, a).equivalent, i, f"reflexive-l{level}", _fmt(a))
            r.check(
                equiv.decide(level, a, b).equivalent == equiv.decide(level, b, a).equivalent,
                i,
                f"symmetric-l{level}",
                f"{_fmt(a)} ; {_fmt(b)}",
            )
            vab = equiv.decide(level, a, b).equivalent
            vbc = equiv.decide(level, b, c).equivalent
            if vab and vbc:
                r.bump(f"chains_l{level}")
                r.check(
                    equiv.decide(level, a, c).equivalent,
                    i,
                    f"transitive-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)} ; {_fmt(c)}",
                )
    return r


def suite_agreement(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("agreement", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a, b = related_pair(s)
        for level in range(5):
            v = equiv.decide(level, a, b)
            if v.equivalent:
                r.bump(f"positive_l{level}")
                r.check(
                    oracle.check_witness(level, a, b, v.witness),
                    i,
                    f"witness-sound-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)} ; {v.witness}",
                )
                found = oracle.search(level, a, b, oracle.bounds_for(level, a, b, hint=v.witness))
                r.check(
                    found is not None,
                    i,
                    f"search-complete-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)}",
                )
            else:
                r.bump(f"negative_l{level}")
                found = oracle.search(level, a, b, oracle.bounds_for(level, a, b, n_max=8))
                r.check(
                    found is None,
                    i,
                    f"search-exhausts-on-negative-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)} ; found {found}",
                )
        for level in (0, 2, 4):
            if equiv.decide(level, a, b).equivalent:
                n = equiv.minimal_bound_n(level, a, b)
                r.check(
                    oracle.check_witness(level, a, b, BoundN(n))
                    and not oracle.check_witness(level, a, b, BoundN(n - 1)),
                    i,
                    f"minimal-bound-l{level}",
                    f"{_fmt(a)} ; {_fmt(b)} ; n={n}",
                )
    return r


def suite_witness_sets(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("witness-sets", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        a3, b3 = equivalent_pair(s, 3)
        pool = oracle.default_pool(3, a3, b3, n_max=6)
        inside = []
        for c in pool:
            same = oracle.powers_stay_below(c, a3) == oracle.powers_stay_below(c, b3)
            r.check(same, i, "power-smallness-invariant", f"{_fmt(c)} vs {_fmt(a3)},{_fmt(b3)}")
            if oracle.powers_stay_below(c, a3) and not c.is_zero():
                inside.append(c)
        for j in range(min(len(inside) - 1, 4)):
            c1, c2 = inside[j], inside[j + 1]
            r.check(
                oracle.powers_stay_below(c1 * c2, a3),
                i,
                "power-small-closed-mul",
                f"{_fmt(c1)} * {_fmt(c2)}",
            )
            r.check(
                oracle.powers_stay_below(c1 + c2, a3),
                i,
                "power-small-closed-add",
                f"{_fmt(c1)} + {_fmt(c2)}",
            )
            lowmid, _ = divmod_scalar(c1 + c2, 2)
            if not lowmid.is_zero():
                r.check(
                    oracle.powers_stay_below(lowmid, a3),
                    i,
                    "power-small-convex",
                    _fmt(lowmid),
                )
        a1, b1 = equivalent_pair(s, 1)
        pool1 = oracle.default_pool(1, a1, b1, n_max=6)
        small = [c for c in pool1 if oracle.multiples_stay_below(c, a1) and not c.is_zero()]
        for c in pool1:
            r.check(
                oracle.multiples_stay_below(c, a1) == oracle.multiples_stay_below(c, b1),
                i,
                "multiple-smallness-invariant",
                f"{_fmt(c)} vs {_fmt(a1)},{_fmt(b1)}",
            )
        for j in range(min(len(small) - 1, 4)):
            r.check(
                oracle.multiples_stay_below(small[j] + small[j + 1], a1),
                i,
                "multiple-small-closed-add",
                f"{_fmt(small[j])} + {_fmt(small[j + 1])}",
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
        r.check(vh.equivalent, 0, f"exhibit-holds-l{holds_at}", f"{ta} ; {tb}")
        if vh.equivalent:
            r.check(
                oracle.check_witness(holds_at, a, b, vh.witness),
                0,
                f"exhibit-witness-l{holds_at}",
                f"{ta} ; {tb}",
            )
        vf = equiv.decide(fails_at, a, b)
        r.check(not vf.equivalent, 0, f"exhibit-fails-l{fails_at}", f"{ta} ; {tb}")
        found = oracle.search(fails_at, a, b, oracle.bounds_for(fails_at, a, b, n_max=12))
        r.check(found is None, 0, f"exhibit-refuted-l{fails_at}", f"{ta} ; {tb}")
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
            r.check(False, i, f"build-e{level}", f"{_fmt(a)} -> {_fmt(b)}: {exc!r}")
            continue
        r.bump("built")
        image = automorph.apply(d, a)
        r.check(image == b, i, f"anchor-exact-e{level}", f"{_fmt(a)} -> {_fmt(image)} wanted {_fmt(b)}")
        probes = list(base_probes)
        for anchor in {a, b, a + 1} - base_set:
            insort(probes, anchor)
        try:
            report = automorph.validate(d, probes, anchors=((a, b),))
            r.bump("probe_pairs", report.pairs)
            r.cases += 1
        except ValidationFailure as vf:
            r.check(False, i, f"validate-e{level}", f"{vf}")
    return


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
        r.check(
            all(up0.terms[j] < up0.terms[j + 1] for j in range(5)),
            i, "e0-up-strictly-increasing", _fmt(a),
        )
        r.check(
            all(down0.terms[j] > down0.terms[j + 1] for j in range(5)),
            i, "e0-down-strictly-decreasing", _fmt(a),
        )
        up2 = analysis.e2_seq(a, 6, "up")
        down2 = analysis.e2_seq(a, 6, "down")
        r.check(
            all(up2.terms[j] < up2.terms[j + 1] for j in range(5)),
            i, "e2-up-strictly-increasing", _fmt(a),
        )
        r.check(
            all(down2.terms[j] > down2.terms[j + 1] for j in range(5)),
            i, "e2-down-strictly-decreasing", _fmt(a),
        )
        for t in up0.terms + down0.terms:
            r.check(equiv.decide(0, a, t).equivalent, i, "e0-terms-in-class", _fmt(t))
        for t in up2.terms + down2.terms:
            r.check(equiv.decide(2, a, t).equivalent, i, "e2-terms-in-class", _fmt(t))
        for n in range(1, 6):
            cq = ceil_quotient_scalar(a, n)
            r.check(
                cq * n >= a and (cq.is_zero() or sub(cq, Element.integer(1, dim)) * n < a),
                i, "ceil-division-minimality", f"{_fmt(a)} / {n}",
            )
        # cofinality against class-mates, passing index from the witness
        mate0 = a + s.integer(-9, 9)
        idx0 = analysis.e0_passing_index(a, mate0)
        seq_up = analysis.e0_seq(a, idx0 + 1, "up")
        seq_dn = analysis.e0_seq(a, idx0 + 1, "down")
        r.check(seq_up.terms[idx0] > mate0, i, "e0-cofinal", f"{_fmt(a)} vs {_fmt(mate0)}")
        r.check(seq_dn.terms[idx0] < mate0, i, "e0-coinitial", f"{_fmt(a)} vs {_fmt(mate0)}")
        mate2 = a * s.integer(1, 5) + s.integer(-2, 6)
        up_idx = analysis.e2_passing_index(a, mate2, "up")
        dn_idx = analysis.e2_passing_index(a, mate2, "down")
        sequp = analysis.e2_seq(a, up_idx, "up")
        seqdn = analysis.e2_seq(a, dn_idx, "down")
        r.check(sequp.terms[up_idx - 1] > mate2, i, "e2-cofinal", f"{_fmt(a)} vs {_fmt(mate2)}")
        r.check(seqdn.terms[dn_idx - 1] < mate2, i, "e2-coinitial", f"{_fmt(a)} vs {_fmt(mate2)}")
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
                    i, "b11-upper-strictly-decreasing", _fmt(a),
                )
            else:
                r.check(
                    all(terms[j] < terms[j + 1] for j in range(len(terms) - 1)),
                    i, "b11-lower-strictly-increasing", _fmt(a),
                )
            for n, t in enumerate(terms, start=1):
                if direction == "up":
                    holds = analysis.b11_upper_holds(a, n, t)
                    next_refuted = not analysis.b11_upper_holds(a, n, t + a)
                    off_lattice = not analysis.b11_upper_holds(a, n, t + 1)
                    r.check(
                        holds and next_refuted and off_lattice,
                        i, "b11-upper-max-certified", f"{_fmt(a)} n={n}",
                    )
                    mate = a * s.integer(1, 3) + s.integer(0, 4)
                    r.check(t > mate, i, "b11-upper-bounds-class", f"{_fmt(t)} vs {_fmt(mate)}")
                else:
                    holds = analysis.b11_lower_holds(a, n, t)
                    next_refuted = not analysis.b11_lower_holds(a, n, t + one)
                    r.check(
                        holds and next_refuted,
                        i, "b11-lower-max-certified", f"{_fmt(a)} n={n}",
                    )
                    mate = ceil_quotient_scalar(a, s.integer(1, 3))
                    r.check(t < mate, i, "b11-lower-bounded-by-class", f"{_fmt(t)} vs {_fmt(mate)}")
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
        r.check(not v1.degenerate and not v2.degenerate, i, "embed-nondegenerate", "")
        same_class = equiv.decide(3, b1, b2).equivalent
        r.check(
            same_class == (v1.value == v2.value),
            i,
            "embed-constant-iff-same-class",
            f"{_fmt(b1)} ; {_fmt(b2)}",
        )
        if not same_class:
            lo, hi = (b1, b2) if b1 < b2 else (b2, b1)
            r.check(
                analysis.real_embed(anchor, lo).value < analysis.real_embed(anchor, hi).value,
                i,
                "embed-order-preserving",
                f"{_fmt(lo)} < {_fmt(hi)}",
            )
        v12 = analysis.real_embed(anchor * anchor, b1 * b2)
        r.check(
            v12.value == v1.value + v2.value,
            i,
            "embed-additive-over-products",
            f"{_fmt(b1)} * {_fmt(b2)}",
        )
    return r


def suite_roundtrip(samples: int, seed: int, dim: int) -> SuiteResult:
    r = SuiteResult("roundtrip", dim, samples, seed)
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    for i in range(samples):
        e = s.element()
        text = textform.format_element(e)
        r.check(textform.parse_element(text, dim) == e, i, "parse-format-roundtrip", text)
        r.check(
            jsonio.element_from_json(jsonio.element_to_json(e), dim) == e,
            i,
            "json-roundtrip",
            text,
        )
    return r


SUITES = {
    "algebra": suite_algebra,
    "division": suite_division,
    "refinement": suite_refinement,
    "convexity": suite_convexity,
    "closure-add": suite_closure_add,
    "closure-mul": suite_closure_mul,
    "equivalence": suite_equivalence,
    "agreement": suite_agreement,
    "witness-sets": suite_witness_sets,
    "separation": suite_separation,
    "auto-e2": suite_auto_e2,
    "auto-e3": suite_auto_e3,
    "sequences": suite_sequences,
    "b11": suite_b11,
    "embed": suite_embed,
    "roundtrip": suite_roundtrip,
}

# heavier suites run a fraction of the requested sample count
_SAMPLE_SCALE = {
    "division": 0.25,
    "convexity": 0.5,
    "closure-add": 0.5,
    "closure-mul": 0.25,
    "equivalence": 0.25,
    "agreement": 0.25,
    "witness-sets": 0.1,
    "auto-e2": 0.1,
    "auto-e3": 0.1,
    "sequences": 0.1,
    "b11": 0.1,
    "embed": 0.25,
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
        count = max(1, int(samples * _SAMPLE_SCALE.get(n, 1.0)))
        results.append(SUITES[n](count, seed, dim))
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
