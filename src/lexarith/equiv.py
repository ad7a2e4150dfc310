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

Positive verdicts carry a witness synthesized once from the closed form
and checked once against the literal definition by
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

from dataclasses import dataclass
from typing import Optional

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
from .oracle import BoundN, Companion, Witness

LEVELS = (0, 1, 2, 3, 4)
BOUND_LEVELS = (0, 2, 4)


@dataclass(frozen=True)
class Verdict:
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
    """Whether the nonstandard pair a, b is level-equivalent, by the closed form."""
    da, db = deg(a), deg(b)
    if level == 0:
        return trunc_const(a) == trunc_const(b)
    if level == 1:
        if a == b:
            return True
        diff = sub(a, b) if a > b else sub(b, a)
        return deg(diff) < da
    if level == 2:
        return da == db
    if level == 3:
        # same Archimedean class, and the degrees differ only below it
        return da.level() == db.level() < (da - db).level()
    if level == 4:
        return da.level() == db.level()
    raise AssertionError(level)


_RULES_YES = {
    0: "nonconstant-parts-equal",
    1: "difference-degree-dominated",
    2: "degrees-equal",
    3: "archimedean-components-match",
    4: "degree-classes-match",
}
_RULES_NO = {
    0: "nonconstant-parts-differ",
    1: "difference-degree-not-dominated",
    2: "degrees-differ",
    3: "archimedean-components-differ",
    4: "degree-classes-differ",
}


def _minimal_n(level: int, a: Element, b: Element) -> int:
    """Least n certifying an already-positive bound-type verdict."""
    if level == 0:
        return abs(const_value(a) - const_value(b)) + 1
    if level == 2:
        qa = const_value(floor_quotient(a, b))
        qb = const_value(floor_quotient(b, a))
        return max(qa, qb) + 1
    if level == 4:
        return max(_least_power_above(a, b), _least_power_above(b, a))
    raise AssertionError(level)


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


def _synth_companion(level: int, a: Element, b: Element) -> Element:
    if level == 1:
        diff = sub(a, b) if a >= b else sub(b, a)
        return diff + Element.integer(1, a.dim)
    # level 3: a standard ratio bound when the degrees agree, otherwise a
    # monomial one archimedean notch above the second-component gap
    da, db = deg(a), deg(b)
    if da == db:
        return Element.integer(_minimal_n(2, a, b), a.dim)
    gap = da - db if da > db else db - da
    return Element([(gap + Exponent((0, 1)), 1)], 2)


def _validated_witness(level: int, a: Element, b: Element) -> Witness:
    if level in BOUND_LEVELS:
        w: Witness = BoundN(_minimal_n(level, a, b))
    else:
        w = Companion(_synth_companion(level, a, b))
    if not oracle.check_witness(level, a, b, w):
        raise AssertionError(f"synthesized level-{level} witness {w!r} fails its check on {a!r}, {b!r}")
    return w


def decide(level: int, a: Element, b: Element) -> Verdict:
    """Closed-form verdict with a definitionally validated witness."""
    _require_level(level)
    require_nonstandard(a, b)
    if not holds(level, a, b):
        return Verdict(level, False, None, _reason(_RULES_NO[level], a, b))
    w = _validated_witness(level, a, b)
    return Verdict(level, True, w, _reason(_RULES_YES[level], a, b))


def minimal_bound_n(level: int, a: Element, b: Element) -> int:
    """Least witness bound for levels 0, 2, 4: n passes, n-1 does not."""
    if level not in BOUND_LEVELS:
        raise InvariantViolation(f"level {level} has companion witnesses, not bounds")
    require_nonstandard(a, b)
    if not holds(level, a, b):
        raise NotEquivalent(f"pair is not level-{level} equivalent")
    n = _validated_witness(level, a, b).n
    if oracle.check_witness(level, a, b, BoundN(n - 1)):
        raise AssertionError(f"computed bound {n} is not minimal")
    return n
