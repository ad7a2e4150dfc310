"""The four benchmark workloads: inputs, timed passes and output checks.

Each workload builds its inputs once, from the seed, in ``__init__`` (that
is the set-up the benchmark times).  ``run_pass`` runs the fixed work once,
closed loop with one client, and returns one ``Outcome`` per operation with
its latency; ``check`` then verifies those outcomes outside the timed
region.  A pass of the same workload object always does the same work, so
counts repeat exactly.

Outcome kinds: ``ok`` (a result to check), ``partial`` (a typed
``NonTerminatingQuotient`` / ``CoefficientNotRepresentable``, or CLI exit 3)
and ``error`` (anything else: always a failure).  A partial outcome is
checked as well: each operation kind says when one is due, and one that is
not due, or missing where it is, is a failure.  For a pinned seed the
SHA-256 of every operation's outcome must also equal the pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from lexarith import analysis, automorph, jsonio, model, suites, textform
from lexarith.errors import CoefficientNotRepresentable, NonTerminatingQuotient
from lexarith.model import Element, deg
from lexarith.sampler import SampleProfile, Sampler

PARTIAL = (NonTerminatingQuotient, CoefficientNotRepresentable)

# The suites workload replays the ROADMAP's `suite all` configuration (seed 7)
# at a size that fits a run; see perfbench/NOTES.md for why it is fixed.
SUITE_SEED = 7
SUITE_SAMPLES = 100
PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


@dataclass
class Outcome:
    kind: str  # "ok" | "partial" | "error"
    value: object = None
    seconds: float = 0.0


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    partial: int = 0
    notes: list = field(default_factory=list)
    digest: str = ""  # suites: SHA-256 of the suite JSON documents
    outcomes: str = ""  # SHA-256 of the per-operation outcome labels

    def fail(self, note):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def outcome_digest(labels) -> str:
    """SHA-256 of one label per operation: which operations gave which outcome."""
    return hashlib.sha256("\n".join(labels).encode()).hexdigest()


def _label(o: Outcome) -> str:
    return f"partial:{o.value}" if o.kind == "partial" else o.kind


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        value = fn(*args)
        kind = "ok"
    except PARTIAL as exc:
        value, kind = type(exc).__name__, "partial"
    except Exception as exc:  # any other exception is an operation failure
        value, kind = repr(exc), "error"
    return Outcome(kind, value, time.perf_counter() - t0)


def _shares_lead_column(x: Element) -> bool:
    """A dim-2 element with a lower term in its leading column.

    Such an element can make the root and quotient expansions run out of
    their term budget (the lower term's powers never fall below exponent 0).
    """
    raw = x.raw
    if x.dim != 2 or len(raw) < 2:
        return False
    lead = raw[0][0][0]
    return any(e[0] == lead for e, _ in raw[1:])


def _plain(s: Sampler, nonstandard=True) -> Element:
    """A sample without a lower term in its leading column (bounded expansions)."""
    while True:
        x = s.nonstandard() if nonstandard else s.element()
        if not _shares_lead_column(x):
            return x


def _with_terms(s: Sampler, n: int) -> Element:
    """A plain nonstandard sample with exactly n terms of nonzero exponent."""
    while True:
        x = _plain(s)
        if sum(1 for e, _ in x.raw if any(num for num, _ in e)) == n:
            return x


def _column_pair(s: Sampler, unit: bool = False) -> Element:
    """c1*t^(p,q) + c2*t^(p,q-g): a dim-2 element with a lower term in its lead column.

    ``unit`` fixes c1 = 1, c2 = -1 and g = 1, which keeps the cost of the
    failing root expansion within a narrow band.
    """
    p = Fraction(s.integer(1, 6), s.integer(1, 3))
    q = Fraction(s.integer(-4, 6), s.integer(1, 3))
    if unit:
        return Element([((p, q), 1), ((p, q - 1), -1)], 2)
    gap = Fraction(s.integer(1, 4), s.integer(1, 3))
    c2 = Fraction(s.integer(1, 4)) * s.choice((1, -1))
    return Element([((p, q), Fraction(s.integer(1, 4))), ((p, q - gap), c2)], 2)


def _pins() -> dict:
    with open(PINS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def pinned_outcomes(workload: str, seed: int):
    """The pinned {"partial", "sha256"} of one pass, or None for an unpinned seed."""
    return _pins()["outcomes"].get(workload, {}).get(f"seed={seed}")


class Workload:
    """A fixed list of operations (``self.ops``), run in order by ``run_op``.

    ``verify`` checks a pass against the operations' contracts.  The same
    work gives the same outcomes every pass, so ``check`` verifies the first
    pass and compares each later pass with it, outcome by outcome, which
    costs far less than the contracts.
    """

    ops: list
    pin = None  # pinned_outcomes() of this workload and seed
    _verified = None  # (keys of the verified pass, its CheckResult)

    def op_weights(self) -> list:
        """How many operations each entry of ``ops`` counts as (latencies are per operation)."""
        return [1] * len(self.ops)

    @staticmethod
    def key(o: Outcome):
        """What has to repeat exactly from pass to pass: the outcome, hashed where it can be."""
        value = tuple(o.value) if isinstance(o.value, list) else o.value
        try:
            return o.kind, hash(value)
        except TypeError:  # unhashable (suite results): keep the value
            return o.kind, value

    def check(self, outcomes) -> CheckResult:
        if self._verified is None:
            res = self.verify(outcomes)
            if res.failed == 0:
                self._verified = ([self.key(o) for o in outcomes], res)
        else:
            keys, first = self._verified
            res = CheckResult(first.attempted, 0, first.partial, digest=first.digest, outcomes=first.outcomes)
            for i, (o, key) in enumerate(zip(outcomes, keys)):
                if self.key(o) != key:
                    res.fail(f"operation {i}: {o.kind} {str(o.value)[:80]} differs from the verified pass")
        if self.pin is not None and (res.partial, res.outcomes) != (self.pin["partial"], self.pin["sha256"]):
            res.fail(f"{res.partial} partial, outcomes {res.outcomes}: not the pinned {self.pin}")
        return res

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops)

    def run_pass(self, tick=None):
        """One closed-loop pass; ``tick(done)`` is called after each operation."""
        out = []
        for op in self.ops:
            out.append(self.run_op(op))
            if tick is not None:
                tick(len(out))
        return out


# --- suites -------------------------------------------------------------------


class SuitesWorkload(Workload):
    """Every suite through ``run_suites(name, ...)``, dim 1 then dim 2."""

    def __init__(self, seed: int, samples: int = SUITE_SAMPLES, suite_seed: int = SUITE_SEED):
        # ``seed`` is accepted like every workload's, but the suite runner's
        # inputs are fixed by ``suite_seed`` (see NOTES.md)
        self.samples = samples
        self.suite_seed = suite_seed
        self.ops = [(name, dim) for dim in (1, 2) for name in suites.SUITES]
        self.pinned = _pins()["suites"].get(f"samples={samples},seed={suite_seed}")

    @staticmethod
    def op_class(op) -> str:
        return f"{op[0]}.d{op[1]}"

    def run_op(self, op):
        name, dim = op
        return _timed(suites.run_suites, name, self.samples, self.suite_seed, dim)

    @staticmethod
    def documents(outcomes):
        return [suites.result_to_json(r) for o in outcomes if o.kind == "ok" for r in o.value]

    @staticmethod
    def digest(outcomes) -> str:
        text = "\n".join(jsonio.dumps(doc) for doc in SuitesWorkload.documents(outcomes))
        return hashlib.sha256(text.encode()).hexdigest()

    def op_weights(self) -> list:
        """An operation is a suite case: a call counts as its cases (known once verified)."""
        return self.cases

    def verify(self, outcomes) -> CheckResult:
        res = CheckResult()
        self.cases = [sum(r.cases for r in o.value) if o.kind == "ok" else 1 for o in outcomes]
        for (name, dim), o in zip(self.ops, outcomes):
            if o.kind != "ok":
                res.attempted += 1
                res.fail(f"{name} d{dim}: {o.kind} {o.value}")
                continue
            for r in o.value:
                res.attempted += r.cases
                for v in r.violations:
                    res.fail(f"{name} d{dim}: violation {v['law']} case {v['case']}")
        res.digest = self.digest(outcomes)
        if self.pinned is not None and res.digest != self.pinned:
            res.fail(f"suite hash {res.digest} differs from the pinned {self.pinned}")
        return res


# --- traffic -------------------------------------------------------------------

# The arith and automorph mixes follow measured use: traffic.json holds the
# outer calls the suite runner makes into the model, automorph and analysis
# layers (`suite all`, 1000 samples, seed 7; made by traffic.py).
TRAFFIC_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traffic.json")


def load_traffic() -> dict:
    with open(TRAFFIC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def apportion(weights: dict, total: int, at_least: int = 0) -> dict:
    """``total`` split in proportion to ``weights`` by largest remainder.

    The parts sum to ``total``, except that a kind with a measured weight
    gets ``at_least`` (the op mixes use 1, so that every measured kind runs).
    """
    whole = sum(weights.values())
    shares = {k: w * total / whole for k, w in weights.items()}
    out = {k: int(v) for k, v in shares.items()}
    for k in sorted(shares, key=lambda k: out[k] - shares[k])[: total - sum(out.values())]:
        out[k] += 1
    return {k: max(n, at_least) for k, n in out.items() if weights[k]}


# --- arith --------------------------------------------------------------------

ARITH_OPS = 40000  # operations per pass, over both dims
SORT_LEN = 16
TERM_BUDGET = 64  # the documented default term budget of divmod_floor and root_floor


def arith_weights(traffic: dict) -> dict:
    """{(kind, dim): measured outer calls} for every arith operation kind.

    ``mul-int`` and ``add-int`` are the calls with an integer operand.  The
    typed-partial outcomes the suites met become kinds of their own with
    inputs built to meet them: ``root-raw`` (a leading coefficient with no
    k-th root: CoefficientNotRepresentable) and the dim-2 ``root-column`` and
    ``divmod-column`` (an expansion that exhausts its term budget:
    NonTerminatingQuotient).  Sorting in the suites is one probe set per
    automorph suite call, so ``sort`` stands for it once per dim.
    """
    out = {}
    for dim in (1, 2):
        t = traffic["dims"][str(dim)]

        def calls(f):
            return t[f"model.{f}"]["calls"]

        def raised(f, exc):
            return t[f"model.{f}"]["raised"].get(exc.__name__, 0)

        for kind in ("mul", "add"):
            with_int = t[f"model.{kind}"]["int_operand"]
            out[(kind, dim)] = calls(kind) - with_int
            out[(f"{kind}-int", dim)] = with_int
        for kind, f in (("sub", "sub"), ("cmp", "cmp"), ("pow", "pow_int")):
            out[(kind, dim)] = calls(f)
        out[("sort", dim)] = 1
        nt_div = raised("divmod_floor", NonTerminatingQuotient)
        out[("divmod", dim)] = calls("divmod_floor") - nt_div
        out[("divmod-column", dim)] = nt_div
        cnr = raised("root_floor", CoefficientNotRepresentable)
        nt_root = raised("root_floor", NonTerminatingQuotient)
        out[("root", dim)] = calls("root_floor") - cnr - nt_root
        out[("root-raw", dim)] = cnr
        out[("root-column", dim)] = nt_root
    return out


def _sort(xs):
    return sorted(xs)


class ArithWorkload(Workload):
    """A seeded stream of model operations in both dims, no deciders."""

    def __init__(self, seed: int, total: int = ARITH_OPS):
        traffic = load_traffic()
        self.mix = apportion(arith_weights(traffic), total, at_least=1)
        self.pin = pinned_outcomes("arith", seed)
        self.ops = []
        for dim in (1, 2):
            # samples as the suite runner draws them, roots' bases as the division suite does
            s = Sampler(SampleProfile(dim=dim, seed=seed * 10 + dim))
            small = Sampler(SampleProfile(dim=dim, seed=seed * 10 + dim + 5, max_terms=2, coeff_bound=4))
            plan = []
            for (kind, d), count in self.mix.items():
                if d == dim:
                    plan.extend([kind] * count)
            s.rng.shuffle(plan)
            # pow_int exponents in the measured proportions, each paired with
            # bases of 1, 2, ... terms in turn: every seed raises the same mix
            # of base sizes to the same exponents (the cost of a power grows
            # steeply with both, so a random pairing would swing the pass)
            measured = traffic["dims"][str(dim)]["model.pow_int"]["exponents"]
            exponents = sorted(int(k) for k, n in apportion(measured, self.mix[("pow", dim)]).items() for _ in range(n))
            sizes = s.profile.max_terms
            powers = [(k, 1 + i % sizes) for i, k in enumerate(exponents)]
            s.rng.shuffle(powers)
            for kind in plan:
                self.ops.append(self._make(kind, dim, s, small, powers))

    @staticmethod
    def _make(kind, dim, s, small, powers):
        if kind in ("mul", "add", "cmp"):
            return (kind, _plain(s, False), _plain(s, False))
        if kind in ("mul-int", "add-int"):
            return (kind, _plain(s, False), s.integer(1, 9))
        if kind == "sub":
            a, b = _plain(s, False), _plain(s, False)
            return (kind, max(a, b), min(a, b))
        if kind == "sort":
            return (kind, [_plain(s, False) for _ in range(SORT_LEN)])
        if kind == "pow":
            k, terms = powers.pop()
            return (kind, _with_terms(s, terms), k)
        if kind == "divmod":
            return (kind, _plain(s, False), _plain(s))
        if kind == "divmod-column":
            # a leads in a higher column than b, so every quotient term keeps a
            # positive first exponent and the expansion never ends
            b = _column_pair(s)
            lead = (deg(b).components[0] + s.integer(1, 3), Fraction(s.integer(-2, 2)))
            return (kind, Element.monomial(1, lead, dim=2) + _plain(s), b)
        if kind == "root":
            # as the division suite does: a perfect power plus a small constant
            k = s.choice((2, 2, 3))
            m = _plain(small)
            return (kind, model.pow_int(m, k) + Element.integer(s.integer(0, 5), dim), k)
        if kind == "root-raw":
            while True:
                x = _plain(s)
                if not _has_root(_lead(x), 2):
                    return (kind, x, 2)
        if kind == "root-column":
            target = model.pow_int(_column_pair(s, unit=True), 2) + Element.integer(s.integer(0, 5), 2)
            return (kind, target, 2)
        raise ValueError(kind)

    @staticmethod
    def op_class(op) -> str:
        x = op[1][0] if op[0] == "sort" else op[1]
        return f"{op[0]}.d{x.dim}"

    def run_op(self, op):
        # look the functions up at call time, so a traced pass sees the wrappers
        kind = op[0]
        if kind in ("mul", "mul-int"):
            return _timed(Element.__mul__, op[1], op[2])
        if kind in ("add", "add-int"):
            return _timed(Element.__add__, op[1], op[2])
        if kind == "sub":
            return _timed(model.sub, op[1], op[2])
        if kind == "cmp":
            return _timed(model.cmp, op[1], op[2])
        if kind == "sort":
            return _timed(_sort, op[1])
        if kind == "pow":
            return _timed(model.pow_int, op[1], op[2])
        if kind in ("divmod", "divmod-column"):
            return _timed(model.divmod_floor, op[1], op[2])
        return _timed(model.root_floor, op[1], op[2])

    def verify(self, outcomes) -> CheckResult:
        res = CheckResult(outcomes=outcome_digest(map(_label, outcomes)))
        for op, o in zip(self.ops, outcomes):
            res.attempted += 1
            kind = op[0]
            if o.kind == "partial":
                res.partial += 1
                if not _arith_partial_ok(op, o.value):
                    res.fail(f"{kind}: unexpected {o.value} on {op[1]!r}")
                continue
            if o.kind != "ok":
                res.fail(f"{kind}: {o.value}")
                continue
            if kind in ("root-raw", "root-column", "divmod-column"):
                res.fail(f"{kind}: a result where a typed partial outcome is due, on {op[1]!r}")
            elif not _arith_ok(op, o.value):
                res.fail(f"{kind}: contract check failed on {op[1]!r}")
        return res


def _lead(x: Element) -> Fraction:
    return Fraction(*x.raw[0][1])


def _int_has_root(n: int, k: int) -> bool:
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo**k == n


def _has_root(c: Fraction, k: int) -> bool:
    """Whether the positive rational c has a rational k-th root."""
    return _int_has_root(c.numerator, k) and _int_has_root(c.denominator, k)


def _exhausts_budget(a: Element, b: Element) -> bool:
    """Whether the quotient expansion of a by b has more than TERM_BUDGET terms.

    Only dim 2 has such quotients.  Decided with twice the budget: the
    expansion must run out again or end with more than TERM_BUDGET terms.
    """
    if a.dim != 2:
        return False
    try:
        q, _ = model.divmod_floor(a, b, 2 * TERM_BUDGET)
    except NonTerminatingQuotient:
        return True
    return len(q.raw) >= TERM_BUDGET


def _arith_partial_ok(op, name) -> bool:
    """Whether the typed partial outcome ``name`` is the one ``op`` has to give."""
    kind = op[0]
    if kind in ("root-column", "divmod-column"):
        return name == "NonTerminatingQuotient"
    if kind == "root-raw":
        return name == "CoefficientNotRepresentable"
    if kind == "divmod":
        return name == "NonTerminatingQuotient" and _exhausts_budget(op[1], op[2])
    return False


def _arith_ok(op, value) -> bool:
    kind = op[0]
    if kind == "mul":
        a, b = op[1], op[2]
        if a.is_zero() or b.is_zero():
            return value.is_zero()
        lead_coeff = model.K.rat_mul(a.raw[0][1], b.raw[0][1])
        lead_ok = deg(value) == deg(a) + deg(b) and value.raw[0][1] == lead_coeff
        return lead_ok and value == b * a
    if kind == "mul-int":
        return value == op[1] * Element.integer(op[2], op[1].dim)
    if kind == "add":
        return model.sub(value, op[2]) == op[1]
    if kind == "add-int":
        return model.sub(value, Element.integer(op[2], op[1].dim)) == op[1]
    if kind == "sub":
        return value + op[2] == op[1]
    if kind == "cmp":
        a, b = op[1], op[2]
        if value not in (-1, 0, 1) or model.cmp(b, a) != -value or (value == 0) != (a == b):
            return False
        hi, lo = (a, b) if value >= 0 else (b, a)
        return model.sub(hi, lo) + lo == hi
    if kind == "sort":
        pairs_ok = all(model.cmp(x, y) <= 0 for x, y in zip(value, value[1:]))
        return pairs_ok and Counter(x.raw for x in value) == Counter(x.raw for x in op[1])
    if kind == "pow":
        a, k = op[1], op[2]
        return value == reduce(lambda x, y: x * y, [a] * k)
    if kind == "divmod":
        a, b = op[1], op[2]
        q, r = value
        return q * b + r == a and r < b
    if kind == "root":
        a, k = op[1], op[2]
        return model.pow_int(value, k) <= a < model.pow_int(value + 1, k)
    return False


# --- automorph ----------------------------------------------------------------

AUTO_OPS = 3800  # construction cases per pass
B11_COUNT = 2  # terms per b11 sequence: root_floor up to index 2**B11_COUNT
PROBES = 24


def auto_weights(traffic: dict) -> dict:
    """{(kind, dim): measured outer calls}; a ``b11`` call is one direction."""
    out = {}
    for dim in (1, 2):
        t = traffic["dims"][str(dim)]
        out[("e2", dim)] = t["automorph.build_from_e2"]["calls"]
        out[("e3", dim)] = t["automorph.build_from_e3"]["calls"]
        out[("b11", dim)] = t["analysis.b11_seq"]["calls"]
        out[("embed", dim)] = t["analysis.real_embed"]["calls"]
    return out


def _probe_set(s: Sampler, dim: int) -> list:
    probes = {Element.integer(k, dim) for k in (0, 1, 2, 7)}
    while len(probes) < PROBES:
        probes.add(_plain(s, False))
    return sorted(probes)


def _construct(build, a, b, probes):
    d = build(a, b)
    image = automorph.apply(d, a)
    report = automorph.validate(d, probes, anchors=((a, b),))
    return image, report


def _b11(a, direction):
    return analysis.b11_seq(a, B11_COUNT, direction)


def _embed(anchor, b):
    return analysis.real_embed(anchor, b)


class AutomorphWorkload(Workload):
    """Constructions: build, apply and validate; then b11 boundaries and the embedding."""

    def __init__(self, seed: int, total: int = AUTO_OPS):
        self.mix = apportion(auto_weights(load_traffic()), total, at_least=1)
        self.pin = pinned_outcomes("automorph", seed)
        self.ops = []
        anchor = textform.parse_element("t^(1,0)", 2)
        for dim in (1, 2):
            s = Sampler(SampleProfile(dim=dim, seed=seed * 10 + dim))
            probes = _probe_set(s, dim)
            for level in (2, 3):
                for _ in range(self.mix.get((f"e{level}", dim), 0)):
                    self.ops.append((f"e{level}", dim) + self._pair(s, level, probes))
        for dim in (1, 2):
            s = Sampler(SampleProfile(dim=dim, seed=seed * 10 + dim + 5))
            for i in range(round(self.mix.get(("b11", dim), 0) / 2)):  # each element up and down
                a = _plain(s)
                if i % 2:
                    # unit leading coefficient, as in the b11 suite: every root is representable
                    a = Element.monomial(1, tuple(deg(a).components), dim=dim) + s.integer(0, 5)
                for direction in ("up", "down"):
                    self.ops.append(("b11", dim, a, direction))
        s = Sampler(SampleProfile(dim=2, seed=seed * 10 + 9))
        for _ in range(self.mix.get(("embed", 2), 0)):
            p = Fraction(s.integer(1, 6), s.integer(1, 3))
            q = Fraction(s.integer(-4, 6), s.integer(1, 3))
            b = Element.monomial(Fraction(s.integer(1, 7)), (p, q), dim=2)
            if s.chance(0.5):
                b = b + suites._lower_perturbation(s, b)
            self.ops.append(("embed", 2, anchor, b))

    @staticmethod
    def _pair(s, level, base_probes):
        while True:
            a, b = suites.equivalent_pair(s, level)
            if level == 3 and s.chance(0.5) and deg(a).components[0] > 0:
                b = b * Element.monomial(1, (0, 1), dim=2)
            if not (_shares_lead_column(a) or _shares_lead_column(b)):
                break
        probes = sorted(set(base_probes) | {a, b, a + 1})
        return (a, b, probes)

    @staticmethod
    def op_class(op) -> str:
        return f"{op[0]}.d{op[1]}"

    def run_op(self, op):
        kind = op[0]
        if kind == "e2":
            return _timed(_construct, automorph.build_from_e2, op[2], op[3], op[4])
        if kind == "e3":
            return _timed(_construct, automorph.build_from_e3, op[2], op[3], op[4])
        if kind == "b11":
            return _timed(_b11, op[2], op[3])
        return _timed(_embed, op[2], op[3])

    def verify(self, outcomes) -> CheckResult:
        res = CheckResult(outcomes=outcome_digest(map(_label, outcomes)))
        for op, o in zip(self.ops, outcomes):
            res.attempted += 1
            # b11 takes the 2**n-th roots of a for n up to B11_COUNT: it is
            # partial exactly when a's leading coefficient lacks such a root
            due = op[0] == "b11" and not _has_root(_lead(op[2]), 2**B11_COUNT)
            if o.kind == "partial":
                res.partial += 1
                if not (due and o.value == "CoefficientNotRepresentable"):
                    res.fail(f"{op[0]} d{op[1]}: unexpected {o.value}")
                continue
            if o.kind != "ok":
                res.fail(f"{op[0]} d{op[1]}: {o.value}")
            elif due:
                res.fail(f"{op[0]} d{op[1]}: a result where CoefficientNotRepresentable is due")
            elif not _automorph_ok(op, o.value):
                res.fail(f"{op[0]} d{op[1]}: contract check failed")
        return res


def _automorph_ok(op, value) -> bool:
    kind = op[0]
    if kind in ("e2", "e3"):
        image, report = value
        return image == op[3] and report.pairs == len(op[4]) - 1
    if kind == "b11":
        a, direction = op[2], op[3]
        terms = value.terms
        if direction == "up":
            ordered = all(x > y for x, y in zip(terms, terms[1:]))
            return ordered and all(analysis.b11_upper_holds(a, n, t) for n, t in enumerate(terms, 1))
        ordered = all(x < y for x, y in zip(terms, terms[1:]))
        return ordered and all(analysis.b11_lower_holds(a, n, t) for n, t in enumerate(terms, 1))
    if kind == "embed":
        return not value.degenerate and value.value == deg(op[3]).components[0]
    return False


# --- cli ----------------------------------------------------------------------

# the exit codes the CLI documents for each request kind
CLI_EXITS = {
    "eval": {0},
    "cmp": {0},
    "arith": {0},
    "divmod": {0, 3},
    "root": {0, 3},
    "equiv": {0, 1},
    "auto": {0, 1},
    "apply": {0},
    "seq": {0},
    "seq-b11": {0, 3},
    "embed": {0, 1},
}
CLI_ROUNDS = 2  # passes over CLI_MIX per dim
CLI_MIX = ("eval", "cmp", "add", "mul", "sub", "divmod", "pow", "root", "equiv", "auto", "seq", "b11", "embed")


@dataclass
class Request:
    kind: str
    argv: list
    desc_slot: int = -1  # auto: writes slot; apply: reads slot
    inputs: tuple = ()  # divmod, root and seq-b11: the operands, for the partial check


class CliWorkload(Workload):
    """One client that starts ``python -m lexarith.cli`` per request, one at a time."""

    def __init__(self, seed: int):
        self.pin = pinned_outcomes("cli", seed)
        self.runner = self._spawn
        self.ops = []
        slot = 0
        for dim in (1, 2):
            s = Sampler(SampleProfile(dim=dim, seed=seed * 10 + dim))
            for _ in range(CLI_ROUNDS):
                for kind in CLI_MIX:
                    if kind == "embed" and dim == 1:
                        continue
                    self.ops.extend(self._make(kind, dim, s, slot))
                    if kind == "auto":
                        slot += 1
        self.workdir = None
        self.child_rss_kb = 0

    @staticmethod
    def _make(kind, dim, s, slot):
        fmt = textform.format_element
        d = ["--dim", str(dim)]
        if kind == "eval":
            return [Request("eval", ["eval", fmt(_plain(s, False))] + d)]
        if kind == "cmp":
            return [Request("cmp", ["cmp", fmt(_plain(s, False)), fmt(_plain(s, False))] + d)]
        if kind in ("add", "mul"):
            return [Request("arith", ["arith", kind, fmt(_plain(s, False)), fmt(_plain(s, False))] + d)]
        if kind == "sub":
            a, b = _plain(s, False), _plain(s, False)
            return [Request("arith", ["arith", "sub", fmt(max(a, b)), fmt(min(a, b))] + d)]
        if kind == "divmod":
            a, b = _plain(s, False), _plain(s)
            return [Request("divmod", ["arith", "divmod", fmt(a), fmt(b)] + d, inputs=(a, b))]
        if kind == "pow":
            return [Request("arith", ["arith", "pow", fmt(_plain(s)), str(s.integer(2, 4))] + d)]
        if kind == "root":
            a, k = _plain(s), s.choice((2, 3))
            return [Request("root", ["arith", "root", fmt(a), str(k)] + d, inputs=(a, k))]
        if kind == "equiv":
            a, b = suites.related_pair(s)
            while _shares_lead_column(a) or _shares_lead_column(b):
                a, b = suites.related_pair(s)
            return [Request("equiv", ["equiv", "--level", str(s.integer(0, 4)), fmt(a), fmt(b)] + d)]
        if kind == "auto":
            a, b = suites.equivalent_pair(s, 2)
            while _shares_lead_column(a) or _shares_lead_column(b):
                a, b = suites.equivalent_pair(s, 2)
            x = _plain(s, False)
            return [
                Request("auto", ["auto", "--from", fmt(a), "--to", fmt(b)] + d, slot),
                Request("apply", ["apply", "--desc", None, fmt(x)] + d, slot),
            ]
        if kind == "seq":
            which = s.choice(("e0", "e2"))
            direction = s.choice(("up", "down"))
            return [Request("seq", ["seq", which, fmt(_plain(s)), "--count", "4", "--direction", direction] + d)]
        if kind == "b11":
            a, direction = _plain(s), s.choice(("up", "down"))
            argv = ["seq", "b11", fmt(a), "--count", str(B11_COUNT), "--direction", direction]
            return [Request("seq-b11", argv + d, inputs=(a, 2**B11_COUNT))]
        if kind == "embed":
            p = Fraction(s.integer(1, 6), s.integer(1, 3))
            q = Fraction(s.integer(-4, 6), s.integer(1, 3))
            b = Element.monomial(Fraction(s.integer(1, 7)), (p, q), dim=2)
            return [Request("embed", ["embed", "--anchor", "t^(1,0)", fmt(b)] + d)]
        raise ValueError(kind)

    # descriptor files live in a scratch directory inside the working tree
    def open(self, root="."):
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)

    def close(self):
        if self.workdir:
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)
            self.workdir = None

    def _argv(self, req):
        argv = list(req.argv)
        if req.kind == "apply":
            argv[2] = os.path.join(self.workdir, f"desc{req.desc_slot}.json")
        return argv

    def _spawn(self, argv):
        """Run one request in a fresh interpreter: (exit code, stdout, stderr)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexarith.cli"] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), err.decode()

    @staticmethod
    def key(o: Outcome):
        return o.value[:2]  # exit code and stdout; stderr differs between runners

    @staticmethod
    def op_class(req) -> str:
        return req.kind

    def run_op(self, req):
        """One request through ``self.runner(argv)`` (default: a fresh process)."""
        t0 = time.perf_counter()
        code, stdout, stderr = self.runner(self._argv(req))
        dt = time.perf_counter() - t0
        if req.kind == "auto" and code == 0:
            with open(os.path.join(self.workdir, f"desc{req.desc_slot}.json"), "w", encoding="utf-8") as fh:
                fh.write(stdout)
        return Outcome("partial" if code == 3 else "ok", (code, stdout, stderr), dt)

    def verify(self, outcomes) -> CheckResult:
        res = CheckResult(outcomes=outcome_digest(str(o.value[0]) for o in outcomes))
        for req, o in zip(self.ops, outcomes):
            res.attempted += 1
            code, stdout, stderr = o.value
            if code == 3:
                res.partial += 1
            if code not in CLI_EXITS[req.kind]:
                res.fail(f"{req.argv[0]}: exit {code} not in {sorted(CLI_EXITS[req.kind])}")
                continue
            if "Traceback" in stderr:
                res.fail(f"{req.argv[0]}: traceback on stderr")
                continue
            try:
                doc = json.loads(stdout)
            except ValueError:
                res.fail(f"{req.argv[0]}: stdout is not JSON")
                continue
            if code != 0 and req.kind != "equiv" and "error" not in doc:
                res.fail(f"{req.argv[0]}: exit {code} without an error document")
            elif not _cli_partial_ok(req, code, doc):
                res.fail(f"{' '.join(req.argv[:2])}: exit {code} {doc.get('error', '')} is not the outcome due")
        return res


def _cli_partial_ok(req, code, doc) -> bool:
    """Whether a request gave exit 3 (a typed partial outcome) exactly when it is due.

    ``root`` and ``seq b11`` are partial exactly when the leading coefficient
    has no rational root of the index taken (CoefficientNotRepresentable);
    a dim-2 ``divmod`` may be partial only when its quotient exhausts the
    term budget (NonTerminatingQuotient).
    """
    if req.kind in ("root", "seq-b11"):
        a, k = req.inputs
        due = not _has_root(_lead(a), k)
        return (code == 3) == due and (not due or doc["error"] == "CoefficientNotRepresentable")
    if req.kind == "divmod" and code == 3:
        return doc["error"] == "NonTerminatingQuotient" and _exhausts_budget(*req.inputs)
    return True


def in_process_runner():
    """A runner calling ``cli.main`` in this process, stdout captured."""
    import contextlib
    import io

    from lexarith import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), ""

    return run


WORKLOADS = {
    "suites": SuitesWorkload,
    "arith": ArithWorkload,
    "automorph": AutomorphWorkload,
    "cli": CliWorkload,
}
