"""Closed-form decision procedures for the equivalence levels 0..4.

One reader, :func:`related`, answers whether a pair is related at a
level: it checks the level, refuses a pair the levels are not defined on
with the oracle's one rule (:func:`lexarith.oracle.require_pair`), and
reads the closed form off the degree lattice:

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
re-exported here.  :func:`decide` is :func:`related` plus the witness and
the rule that decided.  Positive verdicts carry a witness that one ladder,
``_witness``, builds from the closed form, one rung per level, and checks
once against the literal definition by
:func:`lexarith.oracle.check_witness`; a witness that fails its check is a
bug in the closed form and raises ``AssertionError``, never a retry.  The
least bound at levels 2 and 4 has one rule: the least standard n at which
the leading terms no longer fall short, or the next one when the lower
terms tip that tie (``_least_bound``); nothing is divided.
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
from .errors import InvariantViolation, NotEquivalent
from .model import (
    Element,
    const_value,
    deg_cmp,
    deg_level,
    exponent_differences,
    exponent_texts,
    lead_term,
    mul_lt,
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


def _reason(rule: str, a: Element, b: Element) -> dict:
    return {"rule": rule, "deg_a": exponent_texts(lead_term(a)[0]), "deg_b": exponent_texts(lead_term(b)[0])}


def related(level: int, a: Element, b: Element) -> bool:
    """Whether a and b are level-equivalent, by the closed form, for a
    pair the oracle admits (:func:`lexarith.oracle.require_pair`).

    At level 1 the terms of a and b are stored in descending order, and for
    a != b their difference starts at the first term where they differ; so
    deg(|a - b|) < deg(a) holds exactly when a and b share their leading
    term, exponent and coefficient."""
    if level not in LEVELS:
        raise InvariantViolation(f"undecidable level {level}; only 0..4 have deciders")
    oracle.require_pair(a, b)
    if level == 0:
        return trunc_const(a) == trunc_const(b)
    if level == 1:
        return a == b or lead_term(a) == lead_term(b)
    if level == 2:
        return deg_cmp(a, b) == 0
    if level == 3:
        # same Archimedean class, and the degrees differ only below it
        return deg_level(a) == deg_level(b) < deg_level(a, b)
    return deg_level(a) == deg_level(b)


# (positive, negative) rule name of each level
_RULES = {
    0: ("nonconstant-parts-equal", "nonconstant-parts-differ"),
    1: ("difference-degree-dominated", "difference-degree-not-dominated"),
    2: ("degrees-equal", "degrees-differ"),
    3: ("archimedean-components-match", "archimedean-components-differ"),
    4: ("degree-classes-match", "degree-classes-differ"),
}


def _least_bound(a: Element, b: Element, below, x: tuple, y: tuple) -> int:
    """The least n >= 1 with below(a, b, n) and below(b, a, n), at a level
    where the leading terms compare n*y against x and n*x against y, for
    the positive rationals x of a and y of b (canonical pairs).

    Below n = max(ceil(x/y), ceil(y/x)) one side's leading term still falls
    short; at n both clear unless one ties (x = n*y or y = n*x), and only
    that tie, settled by the lower terms, is left to ``below``; at n + 1
    both leading terms clear.
    """
    (xn, xd), (yn, yd) = x, y
    n = max(-(-xn * yd // (xd * yn)), -(-yn * xd // (yd * xn)))
    if xn * yd != n * yn * xd and yn * xd != n * xn * yd:
        return n
    return n if below(a, b, n) and below(b, a, n) else n + 1


def _witness(level: int, a: Element, b: Element) -> Witness:
    """The witness of a pair that holds at the level, checked once: the
    least bound n at the bound levels, a companion c at the others.  A
    witness that fails its check is a bug in the closed form.

    Levels 2 and 4 take one rule, :func:`_least_bound`: at level 2 the
    leading coefficients of a pair of equal degree compare, against
    ``a < b*n`` (:func:`mul_lt`); at level 4 the degrees' first nonzero
    components, against ``a < b**n`` (:func:`pow_lt`).  Level 3's companion
    for a pair of equal degree is the level-2 bound, as a constant."""
    if level == 0:
        w: Witness = BoundN(abs(const_value(a) - const_value(b)) + 1)
    elif level == 1:
        w = Companion((sub(a, b) if a >= b else sub(b, a)) + 1)
    elif level == 4:
        lvl = deg_level(a)
        w = BoundN(_least_bound(a, b, pow_lt, lead_term(a)[0][lvl], lead_term(b)[0][lvl]))
    elif level == 2 or deg_cmp(a, b) == 0:
        n = _least_bound(a, b, mul_lt, lead_term(a)[1], lead_term(b)[1])
        w = BoundN(n) if level == 2 else Companion(Element.integer(n, a.dim))
    else:
        # level 3 with differing degrees (dim 2, equal first components):
        # a monomial one archimedean notch above the second-component gap
        (gap,) = exponent_differences((lead_term(a)[0], lead_term(b)[0]))
        num, den = gap[1]
        w = Companion(Element([((gap[0], (num + den, den)), 1)], 2))
    if not oracle.check_witness(level, a, b, w):
        raise AssertionError(f"synthesized level-{level} witness {w!r} fails its check on {a!r}, {b!r}")
    return w


def decide(level: int, a: Element, b: Element) -> Verdict:
    """:func:`related`, with a definitionally validated witness when it
    holds and the rule that decided."""
    if not related(level, a, b):
        return Verdict(level, False, None, _reason(_RULES[level][1], a, b))
    return Verdict(level, True, _witness(level, a, b), _reason(_RULES[level][0], a, b))


def minimal_bound_n(level: int, a: Element, b: Element) -> int:
    """Least witness bound for levels 0, 2, 4: n passes, n-1 does not."""
    if level not in BOUND_LEVELS:
        raise InvariantViolation(f"level {level} has companion witnesses, not bounds")
    if not related(level, a, b):
        raise NotEquivalent(f"pair is not level-{level} equivalent")
    n = _witness(level, a, b).n
    if oracle.check_witness(level, a, b, BoundN(n - 1)):
        raise AssertionError(f"computed bound {n} is not minimal")
    return n
