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
``(0, 1)``), from parsing to printing, and an exponent is a tuple of such
pairs; there is no second exponent form.  ``fractions.Fraction`` appears
only in the two public views of this module, :func:`deg` (an
:class:`Exponent`, read through ``.components``) and ``Element.terms()``
(:class:`Term` tuples), in the constructors, which accept ``int`` and
``Fraction`` besides pairs, and in the public value of
``analysis.EmbedResult``.  :func:`format_rational` is the one ``"p/q"``
formatter.

Every element built from terms passes one check: exponents of ``dim``
canonical pairs, nonzero canonical coefficients, strictly descending
exponents, then the model invariants above.  :meth:`Element.from_pairs`
takes terms in that form and only checks them; its callers are the
sampler, which draws canonical pairs and sorts them once with
:data:`exponent_key`, and the oracle's companion pool, which builds its
monomials on the exponents it reads.  ``Element(...)``, the public door,
first normalizes ``int``, ``Fraction`` and pair input and sorts it;
:func:`sum_terms`, the parser's path, collects like terms and ends in it.

Who reads the term layout: only this module and the kernel take apart raw
term tuples, read ``.raw`` and call ``Element._wrap``, which skips
validation.  Every other module reads terms through the pair reads below,
in place with no wrapper built, every exponent a tuple of canonical
pairs: :meth:`Element.term_pairs`, :func:`lead_term`, :func:`deg_level`,
:func:`exponents` and :func:`exponent_differences`, with
:func:`exponent_texts` for an exponent's text.  It builds an element through the checked doors, with
:func:`rat` for a canonical pair.  Automorphisms work on opaque class
keys through the four functions of the "class keys" section below.
``Element.raw`` stays public because the layered benchmark
(``perfbench/``) checks its outputs with it; for the same reason
``Exponent`` keeps ``+`` and ``==``, which its arith verifier reads as
``deg(a * b) == deg(a) + deg(b)``.

Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from ._backend import kernel as K
from .errors import (
    CoefficientNotRepresentable,
    InvariantViolation,
    NonTerminatingQuotient,
    ResourceLimit,
    Underflow,
)

RatLike = Union[int, Fraction, tuple]

DEFAULT_DIV_BUDGET = 64
# the largest term budget, the most terms a dim-1 quotient may have, and the
# most terms a power, or the series of a root expansion, may build.  A dim-2
# division that exhausts it takes tens of ms; a dim-2 root is bounded by it
# too, its expansion steps counted on exponents before any coefficient work
MAX_DIV_BUDGET = 1024
# the most bits a power may need for a coefficient's numerator or denominator
MAX_POW_BITS = 1 << 20
# the most steps of a dim-1 root expansion, which has no budget, counted on
# exponents before any coefficient work: the work grows with the square of
# the steps, and the suites take at most 6
MAX_ROOT_STEPS = 64


def _to_rat(x: RatLike) -> tuple:
    if isinstance(x, int):
        return (x, 1)
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if type(x) is tuple and len(x) == 2:
        return K.rat(*x)
    raise TypeError(f"not an exact rational: {x!r}")


# rat(num, den=1): the canonical ``(num, den)`` pair of num/den, den nonzero;
# the kernel's own function, so a caller pays no extra call per pair
rat = K.rat

# the sort key of an exponent (a tuple of canonical pairs) in the
# lexicographic order, for callers that order exponents without the kernel
exponent_key = cmp_to_key(K.exp_cmp)


def format_rational(r: tuple) -> str:
    """``"p/q"``, or ``"p"`` when the denominator is 1, of a canonical pair.

    Raises ResourceLimit for an int longer than ``str`` converts (4300
    digits by default, as many as the parser reads).
    """
    try:
        return str(r[0]) if r[1] == 1 else f"{r[0]}/{r[1]}"
    except ValueError:
        width = max(abs(r[0]).bit_length(), r[1].bit_length())
        raise ResourceLimit(f"a {width}-bit rational is too long to print") from None


def exponent_texts(e: tuple) -> list:
    """The components of an exponent (a tuple of canonical pairs) as
    ``"p/q"`` strings."""
    return [format_rational(r) for r in e]


def _exp_text(e: tuple) -> str:
    """``(p/q,r/s)``: an exponent's components as ``"p/q"`` texts."""
    return f"({','.join(exponent_texts(e))})"


class Exponent:
    """The view :func:`deg` returns: a point of the degree lattice Q^d,
    read through ``.components`` as ``Fraction`` values.  It has no public
    constructor and no order; ``+`` and ``==`` stay for the benchmark's
    verifier only.  Inside the package an exponent is a tuple of canonical
    pairs."""

    __slots__ = ("_raw",)

    @classmethod
    def _wrap(cls, raw: tuple) -> "Exponent":
        e = object.__new__(cls)
        e._raw = raw
        return e

    @property
    def components(self) -> tuple:
        return tuple(Fraction(*r) for r in self._raw)

    def __add__(self, other: "Exponent") -> "Exponent":
        return Exponent._wrap(K.exp_add(self._raw, other._raw))

    def __eq__(self, other) -> bool:
        return isinstance(other, Exponent) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"Exponent{_exp_text(self._raw)}"


class Term(NamedTuple):
    exponent: Exponent
    coeff: Fraction


class Element:
    """A member of the model: canonical finite series, immutable."""

    __slots__ = ("_raw", "_dim")

    def __init__(self, terms: Iterable[tuple], dim: int):
        raw = [
            (tuple(map(_to_rat, exponent)), _to_rat(coeff))
            for exponent, coeff in terms
        ]
        # the kernel orders equal-length exponents only; the check names a wrong length
        if all(len(e) == dim for e, _ in raw):
            raw.sort(key=lambda t: exponent_key(t[0]), reverse=True)
        self._raw = _check_terms(tuple(raw), dim)
        self._dim = dim

    @classmethod
    def from_pairs(cls, terms: Iterable[tuple], dim: int) -> "Element":
        """The element of (exponent, coefficient) terms that are already in
        the kernel's form: exponents are tuples of canonical pairs,
        coefficients canonical pairs, in strictly descending order.

        Nothing is normalized or sorted, but everything is checked, as
        ``Element(...)`` checks it after normalizing and sorting.
        """
        return cls._wrap(_check_terms(tuple(terms), dim), dim)

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
        return tuple(Term(Exponent._wrap(e), Fraction(*c)) for e, c in self._raw)

    def term_pairs(self) -> tuple:
        """The terms, highest first, as (exponent, coefficient pair), the
        exponent a tuple of canonical pairs."""
        return self._raw

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
            # an int n of either sign changes only the constant term;
            # Underflow when -n > self
            if not other:
                return self
            head, c = K.terms_split_const(self._raw)
            const = c[0] + other
            if const < 0 and not head:
                raise Underflow(f"{Element.integer(-other, self._dim)!r} > {self!r}")
            return Element._wrap(head + _const_terms(const, self._dim), self._dim)
        _check_same_dim(self, other)
        return Element._wrap(K.terms_add(self._raw, other._raw), self._dim)

    def __sub__(self, other):
        if isinstance(other, int):
            return self + -other
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

    def __repr__(self) -> str:
        if not self._raw:
            return "Element<0>"
        bits = [f"{format_rational(c)}*t^{_exp_text(e)}" for e, c in self._raw]
        return f"Element<{' + '.join(bits)}>"


def _check_terms(raw: tuple, dim: int) -> tuple:
    """raw, if it is the kernel series of an element: exponents of dim
    canonical pairs, nonzero canonical coefficients, strictly descending
    exponents; then the model invariants: the least exponent, the last, is
    not negative, a constant term (the last term) is an integer, and the
    leading coefficient is positive unless the element is a constant, which
    is nonnegative."""
    for e, (num, den) in raw:
        if len(e) != dim:
            raise InvariantViolation(f"exponent {_exp_text(e)} has wrong dimension for dim={dim}")
        # a pair over 1 is canonical: gcd(p, 1) == 1
        for p, q in e:
            if q != 1 and (q < 1 or gcd(p, q) != 1):
                raise _not_canonical(p, q)
        if den != 1 and (den < 1 or gcd(num, den) != 1):
            raise _not_canonical(num, den)
        if not num:
            raise InvariantViolation("zero coefficient term")
    # K.exp_cmp inline: canonical pairs of equal-length exponents, so the
    # first component that differs as a tuple decides
    for (e, _), (f, _) in zip(raw, raw[1:]):
        if e == f:
            raise InvariantViolation(f"duplicate exponent {_exp_text(e)}")
        for x, y in zip(e, f):
            if x != y:
                if x[0] * y[1] <= y[0] * x[1]:
                    raise InvariantViolation(f"terms out of order: exponent {_exp_text(f)} after {_exp_text(e)}")
                break
    if dim not in (1, 2):
        raise InvariantViolation(f"dim must be 1 or 2, got {dim}")
    if not raw:
        return raw
    zero_exp = ((0, 1),) * dim
    least, c = raw[-1]
    if least == zero_exp:
        if c[1] != 1:
            raise InvariantViolation(f"constant coefficient {c[0]}/{c[1]} is not an integer")
    elif K.exp_cmp(least, zero_exp) < 0:
        first = next(e for e, _ in raw if K.exp_cmp(e, zero_exp) < 0)
        raise InvariantViolation(f"negative exponent {_exp_text(first)}")
    lead_e, lead_c = raw[0]
    if lead_c[0] < 0:
        if lead_e == zero_exp:
            raise InvariantViolation("constant element must be nonnegative")
        raise InvariantViolation("leading coefficient must be positive")
    return raw


def _not_canonical(num: int, den: int) -> InvariantViolation:
    return InvariantViolation(f"rational pair ({num}, {den}) is not canonical")


def sum_terms(terms: Iterable[tuple], dim: int) -> Element:
    """The element that is the sum of signed terms (exponent components as
    canonical pairs, coefficient pair), like terms collected; ``Element(...)``
    sorts them once and checks them."""
    acc = {}
    for e, c in terms:
        acc[e] = K.rat_add(acc[e], c) if e in acc else c
    return Element([(e, c) for e, c in acc.items() if c[0]], dim)


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


def cmp(a: Element, b: Element) -> int:
    """-1, 0 or 1 as a < b, a = b, a > b."""
    return a._cmp(b)


def deg(a: Element) -> Optional[Exponent]:
    """Leading exponent; None (bottom) for the zero element."""
    if not a.raw:
        return None
    return Exponent._wrap(a.raw[0][0])


# The degree reads below take nonzero elements and read their leading
# exponents in place, building no Exponent.


def deg_cmp(a: Element, b: Element) -> int:
    """-1, 0 or 1 as deg(a) < deg(b), deg(a) = deg(b), deg(a) > deg(b)."""
    return K.exp_cmp(a._raw[0][0], b._raw[0][0])


def deg_level(a: Element, b: Optional[Element] = None) -> int:
    """The index of the first nonzero component of deg(a), dim when a is
    a constant; with b, the index of the first component where deg(a) and
    deg(b) differ, dim when they are equal.

    Degrees of equal level lie in the same Archimedean class of the
    lexicographic group; a lower level dominates every higher one."""
    e = a._raw[0][0]
    f = None if b is None else b._raw[0][0]
    # canonical pairs differ exactly when their values do
    for i, x in enumerate(e):
        if x != (f[i] if f else (0, 1)):
            return i
    return len(e)


# The pair reads below read terms in place too, an exponent as a tuple of
# canonical pairs.


def lead_term(a: Element) -> tuple:
    """The leading term of a nonzero a: (exponent, coefficient pair)."""
    return a._raw[0]


def exponents(a: Element) -> tuple:
    """The exponents of a's terms, highest first."""
    return tuple(e for e, _ in a._raw)


def exponent_differences(exps: Iterable[tuple]) -> set:
    """The positive differences e - f of the exponents exps."""
    ascending = sorted(set(exps), key=exponent_key)
    return {K.exp_sub(e, f) for i, e in enumerate(ascending) for f in ascending[:i]}


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
    if budget > MAX_DIV_BUDGET:
        raise ResourceLimit(f"term budget must be <= {MAX_DIV_BUDGET}, got {budget}")


def _floor_constant(raw: tuple, dim: int) -> Element:
    """The positive-exponent terms of a raw series with no negative
    exponent, plus the floor of its constant term.  Its terms descend, so
    the constant, if there is one, is the last term."""
    head, c = K.terms_split_const(raw)
    return Element._wrap(tuple(head) + _const_terms(c[0] // c[1], dim), dim)


def divmod_floor(a: Element, b: Element, budget: int = DEFAULT_DIV_BUDGET) -> tuple:
    """Euclidean division: q, r with a = q*b + r and 0 <= r < b.

    Raises NonTerminatingQuotient when dim = 2 and the expansion yields more
    than ``budget`` nonnegative-exponent quotient terms.  In dim 1 the
    nonnegative part of any quotient expansion is finite, but not bounded
    (``t^n`` by ``t - t^(1/2)`` has 2n - 1 terms): ResourceLimit when it has
    more than MAX_DIV_BUDGET, and when its steps take more than
    MAX_MUL_WORDS word products.
    """
    _require_budget(budget)
    _check_same_dim(a, b)
    if K.terms_sign(b.raw) <= 0:
        raise InvariantViolation("divisor must be positive")
    dim = a.dim
    zero_exp = ((0, 1),) * dim
    b_lead_e, b_lead_c = b.raw[0]

    # each step cancels the remainder's leading term, so the quotient's terms
    # come out strictly descending and are only appended.  A step shifts b by
    # one term, which the kernel's word count skips, and the terms'
    # coefficients can grow with the steps: count the word products of the
    # shifts
    q_terms = []
    r_acc = a.raw
    b_words = len(b.raw) * (max([x.bit_length() for _, c in b.raw for x in c]) + 63 >> 6)
    words = 0
    while r_acc:
        e = K.exp_sub(r_acc[0][0], b_lead_e)
        if K.exp_cmp(e, zero_exp) < 0:
            break
        # dim-1 expansions are finite (exponents live in a bounded sublattice
        # of (1/D)Z), so a longer one is an input too large, not partiality
        if len(q_terms) == (budget if dim == 2 else MAX_DIV_BUDGET):
            error = NonTerminatingQuotient if dim == 2 else ResourceLimit
            raise error(f"quotient expansion exceeded {len(q_terms)} nonnegative-exponent terms")
        term = (e, c := K.rat_div(r_acc[0][1], b_lead_c))
        words += b_words * (max(c[0].bit_length(), c[1].bit_length()) + 63 >> 6)
        if words > K.MAX_MUL_WORDS:
            raise ResourceLimit(f"quotient needs {words} word products, over {K.MAX_MUL_WORDS}")
        q_terms.append(term)
        r_acc = K.terms_sub(r_acc, K.terms_mul((term,), b.raw))

    q = _floor_constant(q_terms, dim)
    r_raw = K.terms_sub(a.raw, K.terms_mul(q.raw, b.raw))
    if K.terms_sign(r_raw) < 0:
        q = q - 1
        r_raw = K.terms_add(r_raw, b.raw)
    r = Element._wrap(r_raw, dim)
    if not (K.terms_sign(r.raw) >= 0 and r < b):
        raise AssertionError(f"division contract violated: {a!r} = {q!r}*{b!r} + {r!r}")
    return q, r


def ceil_quotient_scalar(a: Element, n: int) -> Element:
    """min{b : n*b >= a}, computed from divmod_scalar."""
    q, r = divmod_scalar(a, n)
    return q + 1 if r else q


def _require_pow_bits(terms: tuple, n: int) -> None:
    """Refuse the n-th power of terms with a coefficient whose numerator or
    denominator x has n*(bit_length(x) - 1) > MAX_POW_BITS: x**n has at
    least one bit more than that."""
    width = max((x.bit_length() for _, c in terms for x in c), default=1)
    if n * (width - 1) > MAX_POW_BITS:
        raise ResourceLimit(f"power {n} of a {width}-bit coefficient exceeds {MAX_POW_BITS} bits")


def _power_mul(x: tuple, y: tuple) -> tuple:
    """The series x*y inside a power, refused after the multiply when it has
    more than MAX_DIV_BUDGET terms."""
    xy = K.terms_mul(x, y)
    if len(xy) > MAX_DIV_BUDGET:
        raise ResourceLimit(f"power exceeded {MAX_DIV_BUDGET} terms")
    return xy


def pow_int(a: Element, n: int) -> Element:
    """a**n by repeated squaring.

    Raises ResourceLimit before any work when a coefficient is too wide for
    the power (see :func:`_require_pow_bits`), at a multiply past the
    kernel's work ceiling, and at a partial power of more than
    MAX_DIV_BUDGET terms.
    """
    if n < 0:
        raise InvariantViolation(f"negative power {n}")
    _require_pow_bits(a._raw, n)
    result = None
    base = a._raw
    while n:
        if n & 1:
            result = base if result is None else _power_mul(result, base)
        base = _power_mul(base, base) if n > 1 else base
        n >>= 1
    return Element._wrap(_const_terms(1, a._dim) if result is None else result, a._dim)


def pow_lt(a: Element, b: Element, n: int) -> bool:
    """Exactly ``a < pow_int(b, n)``, deciding most pairs without the power.

    For nonzero a and b and n >= 1, both a and the power have a positive
    leading coefficient, and the power's leading term is
    ``lc(b)**n * t^(n*deg(b))``, so the leading terms decide: the degrees
    first, then the coefficients, ``lc(b)**n`` taken only on a degree tie.
    The power is built only when both the degrees and the leading
    coefficients tie, or when n < 1 or a or b is zero; it raises what
    :func:`pow_int` raises only there.  Otherwise it raises ResourceLimit
    only on a degree tie with a leading coefficient of b too wide for
    ``lc(b)**n`` (:func:`_require_pow_bits`): a power pow_int refuses for
    its term count or its other coefficients can still be decided here.
    """
    _check_same_dim(a, b)
    if n >= 1 and a._raw and b._raw:
        (ea, ca), (eb, cb) = a._raw[0], b._raw[0]
        side = K.exp_cmp(ea, K.exp_scale(eb, (n, 1)))
        if not side:
            _require_pow_bits(b._raw[:1], n)
            # (num**n, den**n) of a canonical pair is canonical
            side = K.rat_cmp(ca, (cb[0] ** n, cb[1] ** n))
        if side:
            return side < 0
    return a < pow_int(b, n)


def mul_lead_cmp(a: Element, b: Element, c: Union[Element, int]) -> int:
    """-1, 0 or 1 as the leading term of a lies below, at or above that of
    ``b * c``, for nonzero elements a and b of one dimension and a nonzero
    element or positive int c of it: the degrees first, then the
    coefficients, ``lc(b)*lc(c)`` taken only on a degree tie.

    The product's leading term is ``lc(b)*lc(c) * t^(deg(b) + deg(c))``,
    both coefficients positive, so nothing cancels: -1 means ``a < b * c``
    and 1 means ``a > b * c``; on 0 the lower terms decide.  Builds no
    product and checks nothing.
    """
    (ea, ca), (eb, cb) = a._raw[0], b._raw[0]
    if isinstance(c, int):
        return K.exp_cmp(ea, eb) or K.rat_cmp(ca, K.rat_mul(cb, (c, 1)))
    ec, cc = c._raw[0]
    return K.exp_cmp(ea, K.exp_add(eb, ec)) or K.rat_cmp(ca, K.rat_mul(cb, cc))


def mul_lt(a: Element, b: Element, c: Union[Element, int]) -> bool:
    """Exactly ``a < b * c``, for an element c or an int c >= 0, deciding
    most triples without the product.

    For nonzero a, b and c the leading terms decide
    (:func:`mul_lead_cmp`); the product is built only when both the degrees
    and the leading coefficients tie, or when a, b or c is zero, and only
    there can it raise ResourceLimit, where ``b * c`` would.  Usage errors
    are those of ``b * c``: a negative int c, then a dimension mismatch.
    """
    if isinstance(c, int):
        if c < 0:
            raise InvariantViolation("cannot scale by a negative integer")
    else:
        _check_same_dim(b, c)
    _check_same_dim(a, b)
    if a._raw and b._raw and c:
        side = mul_lead_cmp(a, b, c)
        if side:
            return side < 0
    return a < b * c


def int_floor_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2 or k == 1:
        return n
    # 2**k > n: the root is 1, found without computing 2**k
    if k >= n.bit_length():
        return 1
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
    unbounded nonnegative-exponent part.  The budget counts expansion steps,
    taken on exponents before any coefficient work: a dim-2 expansion of
    ``budget`` steps or more raises, and a dim-1 expansion of more than
    MAX_ROOT_STEPS raises ResourceLimit, as does a step past the kernel's
    work ceiling or a series of more than MAX_DIV_BUDGET terms.  The
    truncated expansion is a candidate that :func:`_settle_root` settles on
    the bracket exactly.
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
    lead_inv = ((K.exp_scale(lead_e, (-1, 1)), K.rat_div((1, 1), lead_c)),)
    u = K.terms_mul(a.raw[1:], lead_inv)
    neg_root_e = K.exp_scale(root_e, (-1, 1))
    zero_exp = ((0, 1),) * dim

    # u**j leads with t^(j*deg(u)), which nothing cancels, so the window
    # keeps part of u**j exactly while it keeps j*deg(u): count those j first
    steps, e = 0, zero_exp
    while u and K.exp_cmp(e := K.exp_add(e, u[0][0]), neg_root_e) >= 0:
        steps += 1
        if dim == 2 and steps == budget:
            raise NonTerminatingQuotient(
                f"root expansion exceeded {budget} terms with nonnegative exponent"
            )
        if dim == 1 and steps > MAX_ROOT_STEPS:
            raise ResourceLimit(f"root expansion needs more than {MAX_ROOT_STEPS} steps")
    acc = upow = ((zero_exp, (1, 1)),)
    binom = (1, 1)
    for j in range(1, steps + 1):
        binom = K.rat_mul(binom, K.rat_mul(K.rat_sub((1, k), (j - 1, 1)), (1, j)))
        # the windowed u**j and the series grow with the number of u's
        # exponents, not with the steps: the kernel bounds each multiply,
        # and the series is bounded as a power's terms (a root of more than
        # 256 terms fails its certifying square anyway); discard exponents
        # already below the representable window
        upow = tuple(t for t in K.terms_mul(upow, u) if K.exp_cmp(t[0], neg_root_e) >= 0)
        acc = K.terms_add(acc, K.terms_scale(upow, binom))
        if len(acc) > MAX_DIV_BUDGET:
            raise ResourceLimit(f"root expansion exceeded {MAX_DIV_BUDGET} terms")

    # truncation can land a step off
    return _settle_root(a, k, _floor_constant(K.terms_mul(acc, ((root_e, gamma),)), dim))


def _settle_root(a: Element, k: int, m: Element) -> Element:
    """The m' with m'**k <= a < (m'+1)**k, at most four unit steps from the
    candidate m: each step checks ``m**k <= a`` first, then
    ``a < (m+1)**k``, and moves m down or up by one when one fails.

    A candidate that needs more moves means the expansion is wrong:
    AssertionError, never partiality.
    """
    for _ in range(4):
        if not pow_int(m, k) <= a:
            m = m - 1
        elif not a < pow_int(m + 1, k):
            m = m + 1
        else:
            return m
    if pow_int(m, k) <= a < pow_int(m + 1, k):
        return m
    raise AssertionError("closed-form candidate did not settle within 4 unit steps")
