"""Class-structure computations.

Cofinal and coinitial sequences for the finite-distance and finite-ratio
classes, root-based boundary sequences for the dominated-ratio class, and
the exact rational embedding of the level-3 classes inside a level-4 class.

Each boundary term is built from one floor root m = root_floor(a, k),
k = 2**n, and rests on two facts checked at run time: the bracket
m**k <= a < (m+1)**k, which root_floor certifies, and the division contract
a = q*b + s with 0 <= s < b, which divmod_floor checks.  Two identities
then make the term the maximum its predicate defines:

- up: the b with a | b and (b/a)**k <= a are the a*q with q**k <= a.  As
  x**k grows with x, the bracket gives q**k <= a exactly for q <= m, and
  a*q grows with q, so the largest such b is a*m;
- down: in a discretely ordered semiring floor(a/b) >= r iff r*b <= a (if
  q = floor(a/b) >= r then r*b <= q*b <= a; if q < r then q + 1 <= r and
  r*b >= q*b + b > a).  The bracket makes the ceiling root r (m when
  m**k = a, else m + 1) the least x with x**k >= a, so floor(a/b)**k >= a
  iff floor(a/b) >= r iff b <= floor(a/r), and the largest such b is
  floor(a/r).

The literal predicates b11_upper_holds and b11_lower_holds stay the
reference definitions; the b11 suite, the tests and perfbench's automorph
verifier check every emitted term against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import equiv
from .errors import InvariantViolation, NotE4Equivalent, ResourceLimit
from .model import (
    MAX_DIV_BUDGET,
    Element,
    ceil_quotient_scalar,
    deg_level,
    divmod_floor,
    is_standard,
    lead_term,
    pow_int,
    root_floor,
)


class ClassSequence(NamedTuple):
    kind: str  # "e0" | "e2" | "b11"
    level: int
    direction: str  # "up" | "down"
    terms: tuple


def _require_seq_args(a: Element, count: int, direction: str) -> None:
    if is_standard(a):
        raise InvariantViolation("class sequences need a nonstandard base point")
    if count < 0:
        raise InvariantViolation(f"sequence count must be >= 0, got {count}")
    if count > MAX_DIV_BUDGET:
        raise ResourceLimit(f"sequence count must be <= {MAX_DIV_BUDGET}, got {count}")
    if direction not in ("up", "down"):
        raise InvariantViolation(f"direction must be up or down, got {direction}")


def e0_seq(a: Element, count: int, direction: str) -> ClassSequence:
    """a+n upward (cofinal in the class), a-n downward (coinitial)."""
    _require_seq_args(a, count, direction)
    step = 1 if direction == "up" else -1
    terms = tuple(a + step * n for n in range(count))
    return ClassSequence(kind="e0", level=0, direction=direction, terms=terms)


def e2_seq(a: Element, count: int, direction: str) -> ClassSequence:
    """n*a upward; min{b : n*b >= a} (ceiling division) downward."""
    _require_seq_args(a, count, direction)
    if direction == "up":
        terms = tuple(a * n for n in range(1, count + 1))
    else:
        terms = tuple(ceil_quotient_scalar(a, n) for n in range(1, count + 1))
    return ClassSequence(kind="e2", level=2, direction=direction, terms=terms)


# --- root-based boundary sequences ------------------------------------------


def b11_upper_holds(a: Element, n: int, b: Element) -> bool:
    """The defining predicate of the upper boundary terms:
    a divides b and (b/a) ** (2**n) <= a.

    The reference definition: the b11 suite, the tests and perfbench check
    every term of b11_seq(a, count, "up") against it."""
    q, r = divmod_floor(b, a)
    return r.is_zero() and pow_int(q, 2**n) <= a


def b11_lower_holds(a: Element, n: int, b: Element) -> bool:
    """The defining predicate of the lower boundary terms:
    floor(a/b) ** (2**n) >= a (the quotient still reaches a).

    The reference definition: the b11 suite, the tests and perfbench check
    every term of b11_seq(a, count, "down") against it."""
    if b.is_zero():
        return False
    q, _ = divmod_floor(a, b)
    return pow_int(q, 2**n) >= a


def b11_seq(a: Element, count: int, direction: str) -> ClassSequence:
    """Boundary sequences of the dominated-ratio class of a.

    direction "up": the decreasing sequence max{b : a | b and (b/a)**(2**n) <= a}
    of elements above the whole class (floor of a**(1 + 2**-n)).
    direction "down": the increasing sequence max{b : floor(a/b)**(2**n) >= a}
    of elements below the whole class (floor of a**(1 - 2**-n)).

    With m = root_floor(a, 2**n), the up term is a*m and the down term is
    floor(a/r) for the ceiling root r (m when m**(2**n) = a, else m + 1):
    the module docstring proves both maxima from the root_floor bracket and
    the divmod_floor contract, so no term is searched for again.  Partiality
    of root_floor (irrational leading coefficient, unbounded dim-2
    expansions) propagates as typed errors.
    """
    _require_seq_args(a, count, direction)
    terms = []
    for n in range(1, count + 1):
        k = 2**n
        m = root_floor(a, k)
        if direction == "up":
            terms.append(a * m)
        else:
            r = m if pow_int(m, k) == a else m + 1
            terms.append(divmod_floor(a, r)[0])
    return ClassSequence(kind="b11", level=3, direction=direction, terms=tuple(terms))


# --- real embedding of level-3 classes ---------------------------------------


class EmbedResult(NamedTuple):
    value: Fraction
    degenerate: bool


def real_embed(anchor: Element, b: Element) -> EmbedResult:
    """Order-embedding of the level-3 classes inside anchor's level-4 class.

    Constant on level-3 classes, injective and strictly order-preserving
    across them, and additive over the products that induce addition on
    the class quotient: the image is the first degree component of b.  For
    the degenerate level-4 class (vanishing first components, dim 2) it is
    the second component, flagged.
    """
    if not equiv.related(4, anchor, b):
        raise NotE4Equivalent(f"{b!r} is not in the level-4 class of {anchor!r}")
    lvl = deg_level(anchor)
    return EmbedResult(value=Fraction(*lead_term(b)[0][lvl]), degenerate=lvl > 0)
