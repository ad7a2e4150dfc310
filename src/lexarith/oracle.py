"""Witness certificates and the definitional, brute-force semantics of the
equivalence levels.

The level set is defined here, with the definitions it names:
:data:`LEVELS` are 0..4, and the :data:`BOUND_LEVELS` 0, 2 and 4 are
certified by a standard bound n (:class:`BoundN`); levels 1 and 3 by a
companion element c (:class:`Companion`).  The deciders, the suites and
the CLI read both names.  A witness is only ever a *claim*:
``check_witness`` decides whether it certifies.

``check_witness`` evaluates the literal defining conditions of a level
against a supplied certificate: the existential inequalities exactly, and
the universal "for all standard n" conditions by exact degree comparison
(sampling over n would be unsound; in this model ``n*c < a`` for all n iff
``deg(c) < deg(a)``, and ``c**n < a`` for all n iff deg(c) sits in a
strictly lower Archimedean class than deg(a)).  Level 4's inequalities
``a < b**n`` and ``b < a**n`` go through :func:`lexarith.model.pow_lt`,
which compares the leading terms first and builds a power only when both
the degrees and the leading coefficients tie.

``search(level, a, b, n_max, hint)`` hunts for a witness inside finite
bounds.  At the bound levels 0, 2 and 4 it tries n = 1 .. n_max, raised to
``hint.n + 1`` by a ``BoundN`` hint; at the companion levels 1 and 3 it
walks the companion pool of ``default_pool``, with ``hint.c`` inserted in
its place by a ``Companion`` hint (:func:`_merged`: a bisection into the
ascending pool, nothing when it is already there).  The pool is built only
at the companion levels.
Exhaustion is a value, not an error, and never refutes: negative
closed-form verdicts are justified by the decider's reason field.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional, Union

from .errors import InvariantViolation, StandardInput
from .model import Element, Exponent, deg, is_standard, pow_lt
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


def _require_nonstandard(a: Element, b: Element) -> None:
    if is_standard(a) or is_standard(b):
        raise StandardInput("witness checking is defined on nonstandard elements only")


def multiples_stay_below(c: Element, a: Element) -> bool:
    """n*c < a for every standard n (exact: degree comparison)."""
    if c.is_zero():
        return True
    return deg(c) < deg(a)


def powers_stay_below(c: Element, a: Element) -> bool:
    """c**n < a for every standard n (exact: Archimedean class comparison)."""
    if c.is_zero():
        return True
    return deg(c).level() > deg(a).level()


def check_witness(level: int, a: Element, b: Element, w: Witness) -> bool:
    _require_nonstandard(a, b)
    if level in BOUND_LEVELS:
        if not isinstance(w, BoundN) or not isinstance(w.n, int) or w.n < 1:
            return False
        n = w.n
        if level == 0:
            return a < b + n and b < a + n
        if level == 2:
            return a < b * n and b < a * n
        return pow_lt(a, b, n) and pow_lt(b, a, n)
    if level in LEVELS:  # a companion level
        if not isinstance(w, Companion) or not isinstance(w.c, Element) or w.c.dim != a.dim:
            return False
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
            and a < b * c
            and b < a * c
        )
    return False


def default_pool(a: Element, b: Element, n_max: int = 8) -> tuple:
    """Deterministic companion candidates from the degree lattice of a, b,
    generated in ascending order: the integers 1..min(n_max, 9), then for
    each exponent e > 0 of the difference set, ascending, the run
    t^e < t^e + 1 < 2*t^e.  t^f dominates every multiple of t^e for e < f,
    so each run lies above the one before it, and the pool is sorted with
    no repeats as it is built.  (e - 0 is a difference, so the exponents of
    a and b themselves are in the set.)"""
    dim = a.dim
    zero = Exponent.zero(dim)
    exps = {zero}
    for x in (a, b):
        for e, _ in x.term_pairs():
            exps.add(e)
    seen_exps = {e - f for e in exps for f in exps}
    if dim == 2:
        bound = 2
        for e in exps:
            num, den = e.component(1)
            bound = max(bound, abs(num) // den + 2)
        for j in range(1, min(bound, 12) + 1):
            seen_exps.add(Exponent((0, j)))
    candidates = [Element.integer(k, dim) for k in range(1, min(n_max, 9) + 1)]
    for e in sorted(e for e in seen_exps if e > zero):
        mono = Element([(e, 1)], dim)
        candidates += (mono, mono + 1, mono * 2)
    return tuple(candidates[:96])


def _merged(pool: tuple, c: Element) -> tuple:
    """The ascending pool with c in its place: ``sorted({*pool, c})`` for a
    pool ascending with no repeats, in about log2(len(pool)) compares."""
    i = bisect_left(pool, c)
    if i < len(pool) and pool[i] == c:
        return pool
    return pool[:i] + (c,) + pool[i:]


def search(
    level: int, a: Element, b: Element, n_max: int = 16, hint: Optional[Witness] = None
) -> Optional[Witness]:
    """First witness within the bounds, or None when they are exhausted.

    A ``BoundN`` hint raises the bound to ``hint.n + 1``; a ``Companion``
    hint adds ``hint.c`` to the pool.  None never refutes equivalence; it
    only reports exhaustion.
    """
    if n_max < 2:
        raise InvariantViolation("n_max must be >= 2")
    _require_nonstandard(a, b)
    if level in BOUND_LEVELS:
        if isinstance(hint, BoundN):
            n_max = max(n_max, hint.n + 1)
        candidates = map(BoundN, range(1, n_max + 1))
    elif level in LEVELS:  # a companion level
        pool = default_pool(a, b, n_max)
        if isinstance(hint, Companion):
            pool = _merged(pool, hint.c)
        candidates = map(Companion, pool)
    else:
        raise InvariantViolation(f"no searcher for level {level}")
    return next((w for w in candidates if check_witness(level, a, b, w)), None)
