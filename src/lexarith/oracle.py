"""Witness certificates and the definitional, brute-force semantics of the
equivalence levels.

The level set is defined here, with the definitions it names:
:data:`LEVELS` are 0..4, and the :data:`BOUND_LEVELS` 0, 2 and 4 are
certified by a standard bound n (:class:`BoundN`); levels 1 and 3 by a
companion element c (:class:`Companion`).  The deciders, the suites and
the CLI read both names.  Every level is defined on the same pairs, two
nonstandard elements of one dimension, and :func:`require_pair` is that
one rule, for the oracle and the deciders alike.  A witness is only ever
a *claim*: ``check_witness`` decides whether it certifies, and only a
witness of the level's form (:func:`_fits`) can.

``check_witness`` evaluates the literal defining conditions of a level
against a supplied certificate: the existential inequalities exactly, and
the universal "for all standard n" conditions by exact degree comparison
(sampling over n would be unsound; in this model ``n*c < a`` for all n iff
``deg(c) < deg(a)``, and ``c**n < a`` for all n iff deg(c) sits in a
strictly lower Archimedean class than deg(a)), read on the leading
exponents by :func:`lexarith.model.deg_cmp` and
:func:`lexarith.model.deg_level`.  The inequalities of levels 2 and 3,
``a < b*n`` and ``b < a*n``, ``a < b*c`` and ``b < a*c``, go through
:func:`lexarith.model.mul_lt`, and level 4's ``a < b**n`` and
``b < a**n`` through :func:`lexarith.model.pow_lt`: each compares the
leading terms first and builds the product or the power only when both
the degrees and the leading coefficients tie.

``search(level, a, b, n_max, hint)`` hunts for a witness inside finite
bounds and returns the first candidate, in ascending order, that
``check_witness`` accepts.  At the bound levels 0, 2 and 4 the candidates
are n = 1 .. n_max, raised to ``hint.n + 1`` by a ``BoundN`` hint; at the
companion levels 1 and 3 they are the companion pool of ``default_pool``,
with ``hint.c`` inserted in its place by a ``Companion`` hint
(:func:`_merged`: a bisection into the ascending pool, nothing when it is
already there).  A hint takes part only in the form ``check_witness``
accepts.  Every level has one search rule: bisect the ascending
candidates on a probe that only ever turns from false to true, and check
from the first candidate it accepts; every candidate below that fails
(:func:`_may_accept`).  At the bound levels the probe is ``check_witness``
itself: for a nonstandard pair ``b + n``, ``b*n`` and ``b**n`` grow with
n, so ``a < b + n``, ``a < b*n`` and ``a < b**n`` (and the same with a
and b swapped) only turn from false to true, the first witness is the
one a scan of n = 1, 2, ... finds, and a failing search makes
O(log n_max) checks.  At the companion levels the degree rules only turn
from true to false along the pool, so the probe is the inequalities
alone: the literal sums ``a < b + c and b < a + c`` at level 1, the
leading terms of ``a < b*c and b < a*c`` at level 3, which build nothing
and cannot raise.  Exhaustion is a value, not an error, and never
refutes: negative closed-form verdicts are justified by the decider's
reason field.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional, Union

from .errors import InvariantViolation, StandardInput
from .model import (
    Element,
    deg_cmp,
    deg_level,
    exponent_differences,
    exponent_key,
    exponents,
    is_standard,
    mul_lead_cmp,
    mul_lt,
    pow_lt,
)
# unused here: perfbench/test_perfbench.py checks that perfbench/tracing.py
# rebinds and restores oracle.pow_int
from .model import pow_int  # noqa: F401


class BoundN(NamedTuple):
    n: int


class Companion(NamedTuple):
    c: Element


Witness = Union[BoundN, Companion]

# the equivalence levels, and those of them certified by a standard bound n;
# the others (1 and 3) are certified by a companion element c
LEVELS = (0, 1, 2, 3, 4)
BOUND_LEVELS = (0, 2, 4)


def require_pair(a: Element, b: Element) -> None:
    """Refuse a pair the levels are not defined on: a standard element
    raises StandardInput, two dimensions InvariantViolation."""
    if is_standard(a) or is_standard(b):
        raise StandardInput("equivalence levels are defined on nonstandard elements only")
    if a.dim != b.dim:
        raise InvariantViolation(f"dimension mismatch: {a.dim} vs {b.dim}")


def _fits(level: int, w, dim: int) -> bool:
    """Whether w has the witness form of the level: an int bound n >= 1 at
    the bound levels, a companion element of dimension dim at the others."""
    if level in BOUND_LEVELS:
        return isinstance(w, BoundN) and isinstance(w.n, int) and w.n >= 1
    return level in LEVELS and isinstance(w, Companion) and isinstance(w.c, Element) and w.c.dim == dim


def multiples_stay_below(c: Element, a: Element) -> bool:
    """n*c < a for every standard n (exact: degree comparison)."""
    return c.is_zero() or deg_cmp(c, a) < 0


def powers_stay_below(c: Element, a: Element) -> bool:
    """c**n < a for every standard n (exact: Archimedean class comparison)."""
    return c.is_zero() or deg_level(c) > deg_level(a)


def check_witness(level: int, a: Element, b: Element, w: Witness) -> bool:
    require_pair(a, b)
    if not _fits(level, w, a.dim):
        return False
    if level == 0:
        return a < b + w.n and b < a + w.n
    if level == 2:
        return mul_lt(a, b, w.n) and mul_lt(b, a, w.n)
    if level == 4:
        return pow_lt(a, b, w.n) and pow_lt(b, a, w.n)
    c = w.c
    if level == 1:
        return (
            multiples_stay_below(c, a)
            and multiples_stay_below(c, b)
            and a < b + c
            and b < a + c
        )
    return (
        powers_stay_below(c, a)
        and powers_stay_below(c, b)
        and mul_lt(a, b, c)
        and mul_lt(b, a, c)
    )


def default_pool(a: Element, b: Element, n_max: int = 8) -> tuple:
    """Deterministic companion candidates from the degree lattice of a, b,
    generated in ascending order: the integers 1..min(n_max, 9), then for
    each exponent e > 0 of the difference set, ascending, the run
    t^e < t^e + 1 < 2*t^e, up to 96 candidates.  t^f dominates every
    multiple of t^e for e < f, so each run lies above the one before it,
    and the pool is sorted with no repeats as it is built.  (e - 0 is a
    difference, so the exponents of a and b themselves are in the set.)"""
    require_pair(a, b)
    dim = a.dim
    zero = ((0, 1),) * dim
    exps = {zero, *exponents(a), *exponents(b)}
    diffs = exponent_differences(exps)
    if dim == 2:
        bound = max(2, *(abs(num) // den + 2 for _, (num, den) in exps))
        diffs.update(((0, 1), (j, 1)) for j in range(1, min(bound, 12) + 1))
    candidates = [Element.integer(k, dim) for k in range(1, min(n_max, 9) + 1)]
    for e in sorted(diffs, key=exponent_key):
        if len(candidates) >= 96:
            break
        mono = Element.from_pairs(((e, (1, 1)),), dim)
        candidates += (mono, mono + 1, mono * 2)
    return tuple(candidates[:96])


def _merged(pool: tuple, c: Element) -> tuple:
    """The ascending pool with c in its place: ``sorted({*pool, c})`` for a
    pool ascending with no repeats, in about log2(len(pool)) compares."""
    i = bisect_left(pool, c)
    if i < len(pool) and pool[i] == c:
        return pool
    return pool[:i] + (c,) + pool[i:]


def _may_accept(level: int, a: Element, b: Element):
    """A probe on the level's candidates, the bounds n or the companions c:
    False only for one that ``check_witness`` rejects, and, along the
    ascending candidates, True for every one above one it accepts.  At the
    bound levels it is ``check_witness`` itself, as ``b + n``, ``b*n`` and
    ``b**n`` grow with n.  At level 1 it is the literal sums, at level 3 the
    leading terms of the products (:func:`lexarith.model.mul_lead_cmp`),
    True on a tie, which the lower terms settle; ``b + c`` and ``b*c`` grow
    with c."""
    if level in BOUND_LEVELS:
        return lambda n: check_witness(level, a, b, BoundN(n))
    if level == 1:
        return lambda c: a < b + c and b < a + c
    return lambda c: bool(c) and mul_lead_cmp(a, b, c) <= 0 and mul_lead_cmp(b, a, c) <= 0


def search(
    level: int, a: Element, b: Element, n_max: int = 16, hint: Optional[Witness] = None
) -> Optional[Witness]:
    """First witness within the bounds, or None when they are exhausted.

    A ``BoundN`` hint raises the bound to ``hint.n + 1``; a ``Companion``
    hint adds ``hint.c`` to the pool.  A hint is only a candidate: one that
    ``check_witness`` would reject for its form (:func:`_fits`) is ignored.
    None never refutes equivalence; it only reports exhaustion.
    """
    if n_max < 2:
        raise InvariantViolation("n_max must be >= 2")
    require_pair(a, b)
    if level in BOUND_LEVELS:
        if _fits(level, hint, a.dim):
            n_max = max(n_max, hint.n + 1)
        form, candidates = BoundN, range(1, n_max + 1)
    elif level in LEVELS:  # a companion level
        form, candidates = Companion, default_pool(a, b, n_max)
        if _fits(level, hint, a.dim):
            candidates = _merged(candidates, hint.c)
    else:
        raise InvariantViolation(f"no searcher for level {level}")
    # every candidate below the first the probe accepts fails the check
    first = bisect_left(candidates, True, key=_may_accept(level, a, b))
    return next((w for w in map(form, candidates[first:]) if check_witness(level, a, b, w)), None)
