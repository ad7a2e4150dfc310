"""Exact arithmetic and order for the computable model.

Elements are finite formal sums ``sum c_e * t^e`` with exact rational
coefficients and exponents in Q^d under the lexicographic order (d = 1 or 2).
The model is the nonnegative "integer part" of that series field:

- every exponent is >= 0 lexicographically,
- the coefficient at exponent 0, if present, is an integer,
- a nonconstant element has a positive leading coefficient; a constant
  element is a nonnegative integer.

This gives a discretely ordered semiring with exact division-with-remainder
by standard integers for both dimensions, and total Euclidean division for
dim 1.  For dim 2 the quotient expansion can have unboundedly many
nonnegative-exponent terms; Euclidean division therefore carries a term
budget and a typed :class:`~lexarith.errors.NonTerminatingQuotient` error.

Representation rule: inside the package a rational is the kernel's
canonical ``(num, den)`` pair (``den > 0``, lowest terms, zero is
``(0, 1)``), from parsing to printing.  ``fractions.Fraction`` appears only
in the public views of this module (``Exponent.components``,
``Element.terms()`` and :class:`Term`), in the constructors, which accept
``int`` and ``Fraction`` besides pairs, and in the public value of
``analysis.EmbedResult``.  :func:`format_rational` is the one ``"p/q"``
formatter.

Who reads the term layout: only this module and the kernel build and take
apart raw term tuples, read ``.raw`` and call ``Element._wrap``, which
skips validation.  Every other module reads terms through the pair reads
below: :meth:`Element.term_pairs`, :meth:`Exponent.component` and
:meth:`Exponent.texts`, with :func:`rat` for a canonical pair and
:func:`sum_terms` to build an element from parsed terms.  Automorphisms
work on opaque class keys through the four functions of the "class keys"
section below.  ``Element.raw`` stays public because the layered benchmark
(``perfbench/``) checks its outputs with it.

Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from ._backend import kernel as K
from .errors import (
    CoefficientNotRepresentable,
    InvariantViolation,
    NonTerminatingQuotient,
    Underflow,
)

RatLike = Union[int, Fraction, tuple]

DEFAULT_DIV_BUDGET = 64


def _to_rat(x: RatLike) -> tuple:
    if isinstance(x, int):
        return (x, 1)
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if type(x) is tuple and len(x) == 2:
        return K.rat(*x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat(num: int, den: int = 1) -> tuple:
    """The canonical ``(num, den)`` pair of num/den; den must be nonzero."""
    return K.rat(num, den)


def format_rational(r: tuple) -> str:
    """``"p/q"``, or ``"p"`` when the denominator is 1, of a canonical pair."""
    return str(r[0]) if r[1] == 1 else f"{r[0]}/{r[1]}"


def _rat_to_fraction(r: tuple) -> Fraction:
    return Fraction(r[0], r[1])


class Exponent:
    """A point of the degree lattice Q^d with the lexicographic order."""

    __slots__ = ("_raw",)

    def __init__(self, components: Iterable[RatLike]):
        raw = tuple(_to_rat(c) for c in components)
        if not 1 <= len(raw) <= 2:
            raise InvariantViolation(f"exponent dimension must be 1 or 2, got {len(raw)}")
        self._raw = raw

    @classmethod
    def _wrap(cls, raw: tuple) -> "Exponent":
        e = object.__new__(cls)
        e._raw = raw
        return e

    @classmethod
    def zero(cls, dim: int) -> "Exponent":
        return cls._wrap(((0, 1),) * dim)

    @property
    def dim(self) -> int:
        return len(self._raw)

    @property
    def components(self) -> tuple:
        return tuple(_rat_to_fraction(r) for r in self._raw)

    def component(self, i: int) -> tuple:
        """The i-th component as a canonical pair."""
        return self._raw[i]

    def texts(self) -> list:
        """The components as ``"p/q"`` strings."""
        return [format_rational(r) for r in self._raw]

    def is_zero(self) -> bool:
        return K.exp_is_zero(self._raw)

    def level(self) -> int:
        """Index of the first nonzero component; ``dim`` for the zero vector.

        Exponents with equal level lie in the same Archimedean class of the
        lexicographic group; a lower level dominates every higher one.
        """
        for i, r in enumerate(self._raw):
            if r[0]:
                return i
        return len(self._raw)

    def __add__(self, other: "Exponent") -> "Exponent":
        return Exponent._wrap(K.exp_add(self._raw, other._raw))

    def __sub__(self, other: "Exponent") -> "Exponent":
        return Exponent._wrap(K.exp_sub(self._raw, other._raw))

    def __mul__(self, scalar: RatLike) -> "Exponent":
        return Exponent._wrap(K.exp_scale(self._raw, _to_rat(scalar)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Exponent) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __lt__(self, other: "Exponent") -> bool:
        return K.exp_cmp(self._raw, other._raw) < 0

    def __le__(self, other: "Exponent") -> bool:
        return K.exp_cmp(self._raw, other._raw) <= 0

    def __gt__(self, other: "Exponent") -> bool:
        return K.exp_cmp(self._raw, other._raw) > 0

    def __ge__(self, other: "Exponent") -> bool:
        return K.exp_cmp(self._raw, other._raw) >= 0

    def __repr__(self) -> str:
        return f"Exponent({','.join(self.texts())})"


class Term(NamedTuple):
    exponent: Exponent
    coeff: Fraction


class Element:
    """A member of the model: canonical finite series, immutable."""

    __slots__ = ("_raw", "_dim")

    def __init__(self, terms: Iterable[tuple], dim: int):
        raw = []
        for exponent, coeff in terms:
            e = exponent._raw if isinstance(exponent, Exponent) else tuple(_to_rat(c) for c in exponent)
            # the kernel's exponent order compares equal-length exponents only
            if len(e) != dim:
                raise InvariantViolation(f"exponent {e} has wrong dimension for dim={dim}")
            raw.append((e, _to_rat(coeff)))
        raw.sort(key=_BY_EXPONENT, reverse=True)
        validated = _validate_raw(tuple(raw), dim)
        self._raw = validated
        self._dim = dim

    @classmethod
    def _wrap(cls, raw: tuple, dim: int) -> "Element":
        e = object.__new__(cls)
        e._raw = raw
        e._dim = dim
        return e

    @classmethod
    def zero(cls, dim: int) -> "Element":
        return cls._wrap((), dim)

    @classmethod
    def integer(cls, n: int, dim: int) -> "Element":
        if n < 0:
            raise InvariantViolation(f"model has no negative constant {n}")
        return cls._wrap(_const_terms(n, dim), dim)

    @classmethod
    def monomial(cls, coeff: RatLike, exponent: Sequence[RatLike], dim: Optional[int] = None) -> "Element":
        comps = tuple(exponent)
        return cls([(comps, coeff)], dim if dim is not None else len(comps))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def raw(self) -> tuple:
        return self._raw

    def terms(self) -> tuple:
        return tuple(Term(Exponent._wrap(e), _rat_to_fraction(c)) for e, c in self._raw)

    def term_pairs(self) -> tuple:
        """The terms, highest first, as (Exponent, coefficient pair)."""
        return tuple((Exponent._wrap(e), c) for e, c in self._raw)

    def is_zero(self) -> bool:
        return not self._raw

    def __bool__(self) -> bool:
        return bool(self._raw)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self._dim == other._dim and self._raw == other._raw

    def __hash__(self) -> int:
        return hash((self._dim, self._raw))

    def _cmp(self, other: "Element") -> int:
        _check_same_dim(self, other)
        return K.terms_cmp(self._raw, other._raw)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __add__(self, other):
        if isinstance(other, int):
            return add_int(self, other)
        _check_same_dim(self, other)
        return Element._wrap(K.terms_add(self._raw, other._raw), self._dim)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, int):
            return add_int(self, -other)
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise InvariantViolation("cannot scale by a negative integer")
            if other == 0:
                return Element.zero(self._dim)
            return Element._wrap(K.terms_scale(self._raw, (other, 1)), self._dim)
        _check_same_dim(self, other)
        return Element._wrap(K.terms_mul(self._raw, other._raw), self._dim)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        return pow_int(self, n)

    def __divmod__(self, other: "Element"):
        return divmod_floor(self, other)

    def __repr__(self) -> str:
        if not self._raw:
            return "Element<0>"
        bits = [f"{format_rational(c)}*t^({','.join(e.texts())})" for e, c in self.term_pairs()]
        return f"Element<{' + '.join(bits)}>"


_BY_EXPONENT = cmp_to_key(lambda s, t: K.exp_cmp(s[0], t[0]))


def _validate_raw(raw: tuple, dim: int) -> tuple:
    if dim not in (1, 2):
        raise InvariantViolation(f"dim must be 1 or 2, got {dim}")
    zero_exp = ((0, 1),) * dim
    seen = set()
    for e, c in raw:
        if e in seen:
            raise InvariantViolation(f"duplicate exponent {e}")
        seen.add(e)
        if c[0] == 0:
            raise InvariantViolation("zero coefficient term")
        if K.exp_cmp(e, zero_exp) < 0:
            raise InvariantViolation(f"negative exponent {e}")
        if K.exp_is_zero(e) and c[1] != 1:
            raise InvariantViolation(f"constant coefficient {c[0]}/{c[1]} is not an integer")
    if raw:
        lead_e, lead_c = raw[0]
        if K.exp_is_zero(lead_e):
            if lead_c[0] < 0:
                raise InvariantViolation("constant element must be nonnegative")
        elif lead_c[0] < 0:
            raise InvariantViolation("leading coefficient must be positive")
    return raw


def sum_terms(terms: Iterable[tuple], dim: int) -> Element:
    """The element that is the sum of signed terms (exponent components,
    coefficient pair), like terms merged; validated as ``Element(...)`` is."""
    raw = ()
    for e, c in terms:
        if c[0]:
            raw = K.terms_add(raw, ((e, c),))
    return Element(raw, dim)


def _const_terms(n: int, dim: int) -> tuple:
    """The terms of the integer n, of either sign: none for 0."""
    return ((((0, 1),) * dim, (n, 1)),) if n else ()


def _check_same_dim(a: Element, b: Element) -> None:
    if a._dim != b._dim:
        raise InvariantViolation(f"dimension mismatch: {a.dim} vs {b.dim}")


# --- spec-surface operations -------------------------------------------------


def sub(a: Element, b: Element) -> Element:
    """The unique e with b + e = a; raises Underflow when b > a."""
    _check_same_dim(a, b)
    diff = K.terms_sub(a._raw, b._raw)
    if K.terms_sign(diff) < 0:
        raise Underflow(f"{b!r} > {a!r}")
    return Element._wrap(diff, a._dim)


def add_int(a: Element, n: int) -> Element:
    """a + n for an integer n of either sign; raises Underflow when -n > a.

    Only the constant term changes.
    """
    if n == 0:
        return a
    head, c = K.terms_split_const(a._raw)
    const = c[0] + n
    if const < 0 and not head:
        raise Underflow(f"{Element.integer(-n, a._dim)!r} > {a!r}")
    return Element._wrap(head + _const_terms(const, a._dim), a._dim)


def cmp(a: Element, b: Element) -> int:
    """-1, 0 or 1 as a < b, a = b, a > b."""
    return a._cmp(b)


def deg(a: Element) -> Optional[Exponent]:
    """Leading exponent; None (bottom) for the zero element."""
    if not a.raw:
        return None
    return Exponent._wrap(a.raw[0][0])


def is_standard(a: Element) -> bool:
    """True iff a is a constant, i.e. lies in the embedded copy of N."""
    raw = a._raw
    return not raw or K.exp_is_zero(raw[0][0])


def const_value(a: Element) -> int:
    """The integer coefficient at exponent zero (0 when absent)."""
    return K.terms_split_const(a._raw)[1][0]


def trunc_const(a: Element) -> Element:
    """Drop the constant term: the canonical finite-distance representative."""
    return Element._wrap(K.terms_split_const(a._raw)[0], a._dim)


# --- class keys ---------------------------------------------------------------
#
# A key is the kernel series of an element's terms that name its class: those
# above the constant for the finite-distance class, those above a level for a
# dominated-difference class.  Keys are opaque outside this module: callers
# compare them (``==``, ``K.terms_cmp``) and combine them with the kernel's
# series operations, and only the functions here split an element into a key
# or build one back.


def split_const(x: Element) -> tuple:
    """x as (its key: the terms above the constant, the constant as an int)."""
    key, c = K.terms_split_const(x._raw)
    return key, c[0]


def split_level(x: Element, lvl: int) -> tuple:
    """x as (its key: the terms with a nonzero among the first lvl exponent
    components, the rest); every key term lies above every other term."""
    return K.terms_split_level(x._raw, lvl)


def from_key(key: tuple, dim: int, const: int = 0, rest: tuple = ()) -> Element:
    """The element key + rest + const, unvalidated.

    Every term of a nonempty key must lie above every term of rest, rest
    must have no constant term when const is nonzero, and the sum must be
    an element.
    """
    raw = key + rest
    if const:
        raw += _const_terms(const, dim)
    return Element._wrap(raw, dim)


def monomial_inverse(m: Element) -> tuple:
    """The series of 1/m, for a monomial m; not an element unless m is 1."""
    if len(m._raw) != 1:
        raise InvariantViolation(f"{m!r} is not a monomial")
    (e, c), = m._raw
    return ((K.exp_scale(e, (-1, 1)), K.rat_div((1, 1), c)),)


def divmod_scalar(a: Element, n: int) -> tuple:
    """q, r with a = n*q + r and 0 <= r < n.

    Positive-exponent coefficients divide exactly inside Q; only the
    integer constant leaves a remainder.  Total for both dimensions.
    """
    if n < 1:
        raise InvariantViolation(f"divisor must be a positive integer, got {n}")
    head, c = K.terms_split_const(a._raw)
    q0, rem = divmod(c[0], n)
    return Element._wrap(K.terms_scale(head, (1, n)) + _const_terms(q0, a._dim), a._dim), rem


def _require_budget(budget: int) -> None:
    if budget < 1:
        raise InvariantViolation(f"term budget must be >= 1, got {budget}")


def _floor_constant(raw: tuple, dim: int) -> Element:
    """The positive-exponent terms of a raw series plus the floor of its
    constant term; terms below exponent zero are dropped."""
    zero_exp = ((0, 1),) * dim
    out = []
    for e, c in raw:
        side = K.exp_cmp(e, zero_exp)
        if side > 0:
            out.append((e, c))
        elif side == 0 and c[0] // c[1]:
            out.append((e, (c[0] // c[1], 1)))
    return Element._wrap(tuple(out), dim)


def divmod_floor(a: Element, b: Element, budget: int = DEFAULT_DIV_BUDGET) -> tuple:
    """Euclidean division: q, r with a = q*b + r and 0 <= r < b.

    Raises NonTerminatingQuotient when dim = 2 and the expansion yields more
    than ``budget`` nonnegative-exponent quotient terms; never raised for
    dim 1, where the nonnegative part of any quotient expansion is finite.
    """
    _require_budget(budget)
    _check_same_dim(a, b)
    if K.terms_sign(b.raw) <= 0:
        raise InvariantViolation("divisor must be positive")
    dim = a.dim
    zero_exp = ((0, 1),) * dim
    b_lead_e, b_lead_c = b.raw[0]

    q_acc = ()
    r_acc = a.raw
    steps = 0
    while r_acc:
        e = K.exp_sub(r_acc[0][0], b_lead_e)
        if K.exp_cmp(e, zero_exp) < 0:
            break
        steps += 1
        # dim 1 expansions are provably finite (exponents live in a bounded
        # sublattice of (1/D)Z), so the budget only guards dim 2
        if dim == 2 and steps > budget:
            raise NonTerminatingQuotient(
                f"quotient expansion exceeded {budget} nonnegative-exponent terms"
            )
        coef = K.rat_div(r_acc[0][1], b_lead_c)
        mono = ((e, coef),)
        q_acc = K.terms_add(q_acc, mono)
        r_acc = K.terms_sub(r_acc, K.terms_mul(mono, b.raw))

    q = _floor_constant(q_acc, dim)
    r_raw = K.terms_sub(a.raw, K.terms_mul(q.raw, b.raw))
    if K.terms_sign(r_raw) < 0:
        q = sub(q, Element.integer(1, dim))
        r_raw = K.terms_add(r_raw, b.raw)
    r = Element._wrap(r_raw, dim)
    if not (K.terms_sign(r.raw) >= 0 and r < b):
        raise AssertionError(f"division contract violated: {a!r} = {q!r}*{b!r} + {r!r}")
    return q, r


def floor_quotient(a: Element, b: Element, budget: int = DEFAULT_DIV_BUDGET) -> Element:
    return divmod_floor(a, b, budget)[0]


def ceil_quotient_scalar(a: Element, n: int) -> Element:
    """min{b : n*b >= a}, computed from divmod_scalar."""
    q, r = divmod_scalar(a, n)
    if r:
        return q + Element.integer(1, a.dim)
    return q


def pow_int(a: Element, n: int) -> Element:
    if n < 0:
        raise InvariantViolation(f"negative power {n}")
    result = Element.integer(1, a.dim)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def pow_lt(a: Element, b: Element, n: int) -> bool:
    """Exactly ``a < pow_int(b, n)``, deciding most pairs without the power.

    For nonzero a and b and n >= 1, both a and the power have a positive
    leading coefficient, and the power's leading term is
    ``lc(b)**n * t^(n*deg(b))``.  So the degrees decide first, then the
    leading coefficients (``(num**n, den**n)`` is still a canonical pair),
    and the power is built only when both tie, or when n < 1 or a or b is
    zero.
    """
    _check_same_dim(a, b)
    if n >= 1 and a._raw and b._raw:
        (ea, ca), (eb, cb) = a._raw[0], b._raw[0]
        side = K.exp_cmp(ea, K.exp_scale(eb, (n, 1)))
        if side:
            return side < 0
        side = K.rat_cmp(ca, (cb[0] ** n, cb[1] ** n))
        if side:
            return side < 0
    return a < pow_int(b, n)


def int_floor_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _rat_root(c: tuple, k: int) -> Optional[tuple]:
    """The exact k-th root of the positive rational c, or None if irrational."""
    num, den = int_floor_root(c[0], k), int_floor_root(c[1], k)
    if num**k != c[0] or den**k != c[1]:
        return None
    return (num, den)


def root_floor(a: Element, k: int, budget: int = DEFAULT_DIV_BUDGET) -> Element:
    """The m with m**k <= a < (m+1)**k.

    Partial: raises CoefficientNotRepresentable when the leading coefficient
    has no rational k-th root (no element of the model can then be the floor
    root), and NonTerminatingQuotient when the dim-2 root expansion has an
    unbounded nonnegative-exponent part.  The truncated expansion is
    certified exactly by :func:`certified_max`.
    """
    _require_budget(budget)
    if k < 1:
        raise InvariantViolation(f"root index must be >= 1, got {k}")
    one = Element.integer(1, a.dim)
    if a < one:
        raise InvariantViolation("root_floor requires a >= 1")
    if k == 1:
        return a
    if is_standard(a):
        return Element.integer(int_floor_root(const_value(a), k), a.dim)

    dim = a.dim
    lead_e, lead_c = a.raw[0]
    gamma = _rat_root(lead_c, k)
    if gamma is None:
        raise CoefficientNotRepresentable(
            f"leading coefficient {lead_c[0]}/{lead_c[1]} has no rational {k}-th root"
        )
    root_e = K.exp_scale(lead_e, (1, k))

    # a = lead * (1 + u); expand (1 + u)^(1/k) far enough that every dropped
    # term lands strictly below exponent 0 after the t^(e/k) shift.
    lead = ((lead_e, lead_c),)
    lead_inv = ((K.exp_scale(lead_e, (-1, 1)), K.rat_div((1, 1), lead_c)),)
    u = K.terms_mul(K.terms_sub(a.raw, lead), lead_inv)
    neg_root_e = K.exp_scale(root_e, (-1, 1))
    zero_exp = ((0, 1),) * dim

    acc = ((zero_exp, (1, 1)),)
    upow = ((zero_exp, (1, 1)),)
    binom = (1, 1)
    j = 0
    while u:
        j += 1
        if dim == 2 and j > budget:
            raise NonTerminatingQuotient(
                f"root expansion exceeded {budget} terms with nonnegative exponent"
            )
        binom = K.rat_mul(binom, K.rat_mul(K.rat_sub((1, k), (j - 1, 1)), (1, j)))
        upow = K.terms_mul(upow, u)
        # discard exponents already below the representable window
        upow = tuple(t for t in upow if K.exp_cmp(t[0], neg_root_e) >= 0)
        if not upow:
            break
        acc = K.terms_add(acc, K.terms_scale(upow, binom))

    m = _floor_constant(K.terms_mul(acc, ((root_e, gamma),)), dim)
    # truncation can land a step off
    return certified_max(lambda x: pow_int(x, k) <= a, m, one)


def certified_max(pred: Callable[[Element], bool], candidate: Element, step: Element) -> Element:
    """The x with pred(x) and not pred(x + step), at most four steps from a
    closed-form candidate.

    ``pred`` must hold up to some point and fail beyond it.  A candidate
    that needs more moves means the closed form is wrong: AssertionError,
    never partiality.
    """
    for _ in range(4):
        if not pred(candidate):
            candidate = sub(candidate, step)
        elif pred(candidate + step):
            candidate = candidate + step
        else:
            return candidate
    if pred(candidate) and not pred(candidate + step):
        return candidate
    raise AssertionError(f"closed-form candidate did not settle within 4 steps of {step!r}")
