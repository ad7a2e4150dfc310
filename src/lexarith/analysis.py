"""Class-structure computations.

Cofinal and coinitial sequences for the finite-distance and finite-ratio
classes, root-based boundary sequences for the dominated-ratio class, and
the exact rational embedding of the level-3 classes inside a level-4 class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import equiv
from .errors import InvariantViolation, NotE4Equivalent
from .model import (
    DEFAULT_DIV_BUDGET,
    Element,
    add_int,
    ceil_quotient_scalar,
    certified_max,
    deg,
    divmod_floor,
    floor_quotient,
    is_standard,
    pow_int,
    root_floor,
)


@dataclass(frozen=True)
class ClassSequence:
    kind: str  # "e0" | "e2" | "b11"
    level: int
    direction: str  # "up" | "down"
    terms: tuple


def _require_seq_args(a: Element, count: int, direction: str) -> None:
    if is_standard(a):
        raise InvariantViolation("class sequences need a nonstandard base point")
    if count < 0:
        raise InvariantViolation(f"sequence count must be >= 0, got {count}")
    if direction not in ("up", "down"):
        raise InvariantViolation(f"direction must be up or down, got {direction}")


def e0_seq(a: Element, count: int, direction: str) -> ClassSequence:
    """a+n upward (cofinal in the class), a-n downward (coinitial)."""
    _require_seq_args(a, count, direction)
    step = 1 if direction == "up" else -1
    terms = tuple(add_int(a, step * n) for n in range(count))
    return ClassSequence(kind="e0", level=0, direction=direction, terms=terms)


def e2_seq(a: Element, count: int, direction: str) -> ClassSequence:
    """n*a upward; min{b : n*b >= a} (ceiling division) downward."""
    _require_seq_args(a, count, direction)
    if direction == "up":
        terms = tuple(a * n for n in range(1, count + 1))
    else:
        terms = tuple(ceil_quotient_scalar(a, n) for n in range(1, count + 1))
    return ClassSequence(kind="e2", level=2, direction=direction, terms=terms)


def e0_passing_index(a: Element, b: Element) -> int:
    """Index at which the e0 sequence from a passes the class-mate b."""
    return equiv.minimal_bound_n(0, a, b)


def e2_passing_index(a: Element, b: Element, direction: str) -> int:
    """1-based index at which the e2 sequence from a passes b."""
    n = equiv.minimal_bound_n(2, a, b)
    return n if direction == "up" else n + 1


# --- root-based boundary sequences ------------------------------------------


def b11_upper_holds(a: Element, n: int, b: Element, budget: int = DEFAULT_DIV_BUDGET) -> bool:
    """The defining predicate of the upper boundary terms:
    a divides b and (b/a) ** (2**n) <= a."""
    q, r = divmod_floor(b, a, budget)
    return r.is_zero() and pow_int(q, 2**n) <= a


def b11_lower_holds(a: Element, n: int, b: Element, budget: int = DEFAULT_DIV_BUDGET) -> bool:
    """The defining predicate of the lower boundary terms:
    floor(a/b) ** (2**n) >= a (the quotient still reaches a)."""
    if b.is_zero():
        return False
    q = floor_quotient(a, b, budget)
    return pow_int(q, 2**n) >= a


def b11_seq(a: Element, count: int, direction: str, budget: int = DEFAULT_DIV_BUDGET) -> ClassSequence:
    """Boundary sequences of the dominated-ratio class of a.

    direction "up": the decreasing sequence max{b : a | b and (b/a)**(2**n) <= a}
    of elements above the whole class (floor of a**(1 + 2**-n)).
    direction "down": the increasing sequence max{b : floor(a/b)**(2**n) >= a}
    of elements below the whole class (floor of a**(1 - 2**-n)).

    Every emitted term is certified against its defining max-predicate by
    :func:`lexarith.model.certified_max`.  Partiality of root_floor
    (irrational leading coefficient, unbounded dim-2 expansions) propagates
    as typed errors.
    """
    _require_seq_args(a, count, direction)
    one = Element.integer(1, a.dim)
    terms = []
    for n in range(1, count + 1):
        k = 2**n
        if direction == "up":
            q = root_floor(a, k, budget)
            term = certified_max(lambda b: b11_upper_holds(a, n, b, budget), a * q, a)
        else:
            m = root_floor(a, k, budget)
            r = m if pow_int(m, k) == a else m + one
            term = certified_max(lambda b: b11_lower_holds(a, n, b, budget), floor_quotient(a, r, budget), one)
        terms.append(term)
    return ClassSequence(kind="b11", level=3, direction=direction, terms=tuple(terms))


# --- real embedding of level-3 classes ---------------------------------------


@dataclass(frozen=True)
class EmbedResult:
    value: Fraction
    degenerate: bool


def degree_weight(b: Element) -> Fraction:
    """First degree component: the raw additive invariant of level-3 classes."""
    d = deg(b)
    if d is None:
        raise InvariantViolation("zero element has no degree weight")
    return Fraction(*d.component(0))


def real_embed(anchor: Element, b: Element) -> EmbedResult:
    """Order-embedding of the level-3 classes inside anchor's level-4 class.

    Constant on level-3 classes, injective and strictly order-preserving
    across them, and additive over the products that induce addition on
    the class quotient.  For the degenerate level-4 class (vanishing first
    components, dim 2) the image is the second component, flagged.
    """
    equiv.require_nonstandard(anchor, b)
    if not equiv.holds(4, anchor, b):
        raise NotE4Equivalent(f"{b!r} is not in the level-4 class of {anchor!r}")
    if deg(anchor).level() > 0:
        return EmbedResult(value=Fraction(*deg(b).component(1)), degenerate=True)
    return EmbedResult(value=degree_weight(b), degenerate=False)
