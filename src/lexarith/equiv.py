"""Closed-form decision procedures for the equivalence levels 0..4.

Every verdict for a nonstandard pair is computed from the degree lattice:

- level 0: finite distance -- the nonconstant parts coincide
- level 1: the difference is dominated in degree by the elements
- level 2: finite ratio -- equal degrees
- level 3: ratio bounded by an element all of whose powers stay small;
  in dim 2 this holds exactly when the leading first components agree
  (and are positive), or the degrees agree outright when both first
  components vanish; in dim 1 it collapses to level 2
- level 4: degrees in the same Archimedean class of the exponent lattice

The level set and which levels take a bound are the oracle's
(:data:`lexarith.oracle.LEVELS`, :data:`lexarith.oracle.BOUND_LEVELS`),
re-exported here.  Positive verdicts carry a witness that one ladder,
``_witness``, builds from the closed form, one rung per level, and checks
once against the literal definition by
:func:`lexarith.oracle.check_witness`; a witness that fails its check is a
bug in the closed form and raises ``AssertionError``, never a retry.
Negative verdicts carry a structured reason.  The level-5 prover,
:func:`lexarith.automorph.prove_E5`, is sound but deliberately incomplete:
it only knows the level-2 and level-3 routes.

Two neighboring notions are documented here but intentionally undecided:

- *order-rigidity at a level*: a model where any order-isomorphism between
  two proper initial segments forces the endpoints to be equivalent at
  that level.  This package makes no rigidity claim about its model in
  either direction.
- the *coarsest convex relation refined by orbit equivalence* (two points
  are related when some order-automorphism carries the smaller at least up
  to the larger).  It is characterized by such reachability but is not
  decided by this package; only the sound one-directional prover in
  :mod:`lexarith.automorph` touches orbit equivalence at all.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import oracle
from .errors import InvariantViolation, NotEquivalent, StandardInput
from .model import (
    Element,
    Exponent,
    const_value,
    deg,
    floor_quotient,
    is_standard,
    pow_lt,
    sub,
    trunc_const,
)
# the level set is the oracle's; re-exported for the suites and the CLI
from .oracle import BOUND_LEVELS, LEVELS, BoundN, Companion, Witness


class Verdict(NamedTuple):
    level: int
    equivalent: bool
    witness: Optional[Witness]
    reason: dict


def _require_level(level: int) -> None:
    if level not in LEVELS:
        raise InvariantViolation(f"undecidable level {level}; only 0..4 have deciders")


def require_nonstandard(a: Element, b: Element) -> None:
    if is_standard(a) or is_standard(b):
        raise StandardInput("equivalence levels are defined on nonstandard elements only")
    if a.dim != b.dim:
        raise StandardInput(f"dimension mismatch: {a.dim} vs {b.dim}")


def _reason(rule: str, a: Element, b: Element) -> dict:
    return {"rule": rule, "deg_a": deg(a).texts(), "deg_b": deg(b).texts()}


def holds(level: int, a: Element, b: Element) -> bool:
    """Whether the nonstandard pair a, b is level-equivalent, by the closed form.

    At level 1 the terms of a and b are stored in descending order, and for
    a != b their difference starts at the first term where they differ; so
    deg(|a - b|) < deg(a) holds exactly when a and b share their leading
    term, exponent and coefficient."""
    da, db = deg(a), deg(b)
    if level == 0:
        return trunc_const(a) == trunc_const(b)
    if level == 1:
        return a == b or a.term_pairs()[0] == b.term_pairs()[0]
    if level == 2:
        return da == db
    if level == 3:
        # same Archimedean class, and the degrees differ only below it
        return da.level() == db.level() < (da - db).level()
    if level == 4:
        return da.level() == db.level()
    raise AssertionError(level)


# (positive, negative) rule name of each level
_RULES = {
    0: ("nonconstant-parts-equal", "nonconstant-parts-differ"),
    1: ("difference-degree-dominated", "difference-degree-not-dominated"),
    2: ("degrees-equal", "degrees-differ"),
    3: ("archimedean-components-match", "archimedean-components-differ"),
    4: ("degree-classes-match", "degree-classes-differ"),
}


def _least_power_above(a: Element, b: Element) -> int:
    """Least n with a < b**n, for a and b in the same level-4 class.

    b**n has degree n*deg(b): below deg(a) the power is smaller than a,
    above it larger, and only equal degrees compare the leading terms, then
    the elements themselves (:func:`pow_lt`).
    """
    da, db = deg(a), deg(b)
    lvl = da.level()
    (an, ad), (bn, bd) = da.component(lvl), db.component(lvl)
    # least k with k*db >= da at the class's first component, both positive
    k = max(1, -(-an * bd // (ad * bn)))
    if not pow_lt(a, b, k):
        k += 1
    return k


def _witness(level: int, a: Element, b: Element) -> Witness:
    """The witness of a pair that holds at the level, checked once: the
    least bound n at the bound levels, a companion c at the others.  A
    witness that fails its check is a bug in the closed form."""
    if level == 0:
        w: Witness = BoundN(abs(const_value(a) - const_value(b)) + 1)
    elif level == 1:
        w = Companion((sub(a, b) if a >= b else sub(b, a)) + Element.integer(1, a.dim))
    elif level == 4:
        w = BoundN(max(_least_power_above(a, b), _least_power_above(b, a)))
    elif level == 2 or deg(a) == deg(b):
        # for lo <= hi of equal degree, floor(lo/hi) is 0 (1 when lo = hi),
        # so floor(hi/lo) + 1 is the least n with hi < n*lo and lo < n*hi;
        # at level 3 that standard ratio bound is the companion
        lo, hi = (a, b) if a <= b else (b, a)
        n = const_value(floor_quotient(hi, lo)) + 1
        w = BoundN(n) if level == 2 else Companion(Element.integer(n, a.dim))
    else:
        # level 3 with differing degrees: a monomial one archimedean notch
        # above the second-component gap
        da, db = deg(a), deg(b)
        gap = da - db if da > db else db - da
        w = Companion(Element([(gap + Exponent((0, 1)), 1)], 2))
    if not oracle.check_witness(level, a, b, w):
        raise AssertionError(f"synthesized level-{level} witness {w!r} fails its check on {a!r}, {b!r}")
    return w


def decide(level: int, a: Element, b: Element) -> Verdict:
    """Closed-form verdict with a definitionally validated witness."""
    _require_level(level)
    require_nonstandard(a, b)
    if not holds(level, a, b):
        return Verdict(level, False, None, _reason(_RULES[level][1], a, b))
    return Verdict(level, True, _witness(level, a, b), _reason(_RULES[level][0], a, b))


def minimal_bound_n(level: int, a: Element, b: Element) -> int:
    """Least witness bound for levels 0, 2, 4: n passes, n-1 does not."""
    if level not in BOUND_LEVELS:
        raise InvariantViolation(f"level {level} has companion witnesses, not bounds")
    require_nonstandard(a, b)
    if not holds(level, a, b):
        raise NotEquivalent(f"pair is not level-{level} equivalent")
    n = _witness(level, a, b).n
    if oracle.check_witness(level, a, b, BoundN(n - 1)):
        raise AssertionError(f"computed bound {n} is not minimal")
    return n
