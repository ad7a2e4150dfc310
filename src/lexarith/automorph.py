"""Constructive order-automorphisms of the model.

Descriptors are finite, evaluable at any element, and invertible:

- ``Identity``
- ``E0ClassShift``: shift one finite-distance class by a standard offset,
  identity elsewhere (each class is order-isomorphic to the integers, so
  the shift is an automorphism)
- ``E2Affine``: identity on classes at or below a threshold c, and
  ``x -> n*(x - a) + b`` on finite-distance representatives above it,
  equivalently ``n*x - (n-1)*c + m``.  The remainder m absorbs the case
  where ``n*a - b`` is not divisible by ``n - 1``: divide ``b - a`` by
  ``n - 1`` instead and carry the remainder, which keeps the construction
  inside division-by-standard-n arithmetic.
- ``E3Shift``: identity on the class of elements dominated by all powers
  of c, and ``rep -> c*rep`` on the other class representatives, offsets
  preserved.  c must be a *monomial* one Archimedean notch below the
  mapped elements: a multi-term c makes the class map non-surjective here
  (the inverse image class would need an infinite expansion).
- ``Compose`` (applies right-to-left), ``Inverse``
- ``SegmentExtend``: glue an order-isomorphism of the initial segment
  below a onto the shift ``x -> b + (x - a)`` above it; ``below`` must map
  a to b, so that the segment under a lands exactly on the one under b.

Representative sets are never materialized: the canonical representative
of a finite-distance class drops the constant term, the canonical
representative of a dominated-difference class drops every dominated
term, and finitely many anchor overrides pin designated elements to be
their own representatives.  Class keys come from the model:
:func:`~lexarith.model.split_const` and :func:`~lexarith.model.split_level`
split an element into its key and the rest, :func:`~lexarith.model.from_key`
builds one back, and :func:`~lexarith.model.monomial_inverse` divides by the
companion of ``E3Shift``.  This module compares keys and combines them with
the kernel's series operations, but never reads the term layout.

The sign convention for images of elements below their class
representative is ``f(y) = f(x) - (x - y)``, i.e. offsets are preserved;
the validation suite enforces strict monotonicity, inverse round-trips,
anchor correctness and finite-distance transport on every probe pair.

Descriptor protocol: each kind is an immutable record deriving from
:class:`Descriptor`: its fields are its own annotations, in order
(``_fields``), and it has a class attribute ``kind`` (its JSON tag).  It
implements ``apply(x)`` and ``apply_inverse(y)``, and may override
``inverse()`` (default ``Inverse(self)``), ``anchors()`` (the ``(x, image)``
pairs its fields guarantee, checked by :func:`validate`; default none) and
``flatten()`` (its factors in :func:`compose`; default itself).  Its
``__init__`` stores the fields and raises
:class:`~lexarith.errors.InvariantViolation` for fields that describe no
automorphism, so a descriptor loaded from JSON is checked where it is
built.  A new kind registers by being listed in
:data:`KINDS`; :mod:`lexarith.jsonio` then serializes it from its fields,
annotated ``Element``, ``int``, ``Descriptor`` or ``tuple[Descriptor, ...]``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import equiv
from ._backend import kernel as K
from .errors import (
    CannotProve,
    InvariantViolation,
    NotE2Equivalent,
    NotE3Equivalent,
    ValidationFailure,
)
from .model import (
    Element,
    const_value,
    deg_level,
    divmod_floor,
    divmod_scalar,
    exponent_differences,
    exponent_texts,
    from_key,
    is_standard,
    lead_term,
    monomial_inverse,
    split_const,
    split_level,
    sub,
    trunc_const,
)


class Descriptor:
    """Base of every descriptor kind; the protocol is in the module docstring.

    Equality and hash read the fields alone, not the class keys a
    constructor caches beside them, and no attribute can be assigned: a
    constructor stores its fields through ``self.__dict__``.
    """

    kind = ""
    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def inverse(self) -> "Descriptor":
        return Inverse(self)

    def anchors(self) -> tuple:
        return ()

    def flatten(self) -> tuple:
        return (self,)


class Identity(Descriptor):
    kind = "identity"

    def apply(self, x: Element) -> Element:
        return x

    apply_inverse = apply

    def inverse(self) -> Descriptor:
        return self

    def flatten(self) -> tuple:
        return ()


class E0ClassShift(Descriptor):
    anchor: Element
    offset: int
    kind = "e0_class_shift"

    def __init__(self, anchor: Element, offset: int):
        if is_standard(anchor):
            raise InvariantViolation("anchor of a class shift must be nonstandard")
        self.__dict__.update(anchor=anchor, offset=offset, _key=split_const(anchor)[0])

    def apply(self, x: Element) -> Element:
        return x + self.offset if split_const(x)[0] == self._key else x

    def apply_inverse(self, y: Element) -> Element:
        return y - self.offset if split_const(y)[0] == self._key else y

    def inverse(self) -> Descriptor:
        return E0ClassShift(self.anchor, -self.offset)

    def anchors(self) -> tuple:
        return ((self.anchor, self.anchor + self.offset),)


class E2Affine(Descriptor):
    """Identity on the classes at or below c's, and n*(r - a) + b on the
    representative r of each class above, offsets preserved.

    Both directions work on the (key, constant) split.  Since
    ``b + (n-1)*c = n*a + m``, the class keyed k maps to the one keyed
    ``n*k - (n-1)*key(c)``, and x's image has the constant
    ``const(x) + (n-1)*const(r) + const(b) - n*const(a)``, where r is a on
    a's class and the bare key elsewhere.  The inverse divides the key back
    and subtracts the same constant shift.
    """

    a: Element
    b: Element
    n: int
    c: Element
    m: int
    kind = "e2_affine"

    def __init__(self, a: Element, b: Element, n: int, c: Element, m: int):
        if n < 2:
            raise InvariantViolation("affine factor n must be >= 2")
        if not 0 <= m < n - 1:
            raise InvariantViolation("remainder m must satisfy 0 <= m < n-1")
        if is_standard(a) or is_standard(b):
            raise InvariantViolation("affine anchors must be nonstandard")
        # b - a = (n-1)*(a - c) + m, rearranged so that nothing is subtracted
        if b + c * (n - 1) != a * n + m:
            raise InvariantViolation("affine descriptor must satisfy b - a = (n-1)*(a - c) + m")
        key_a, const_a = split_const(a)
        key_c = split_const(c)[0]
        # a threshold c in a's finite-distance class or above it breaks one
        # of the anchors claimed below: (c, c) inside the class, where c
        # shares a's representative, and (a, b) above it, where a is fixed
        if not K.terms_cmp(key_c, key_a) < 0:
            raise InvariantViolation("affine threshold c must lie below the finite-distance class of a")
        shift = split_const(b)[1] - n * const_a
        self.__dict__.update(
            a=a, b=b, n=n, c=c, m=m, _key_a=key_a, _key_c=key_c, _key_c_n1=K.terms_scale(key_c, (n - 1, 1)),
            _shift=shift, _shift_a=shift + (n - 1) * const_a,
        )

    def apply(self, x: Element) -> Element:
        key, const = split_const(x)
        # identity on c's class and on the classes below it
        if K.terms_cmp(key, self._key_c) <= 0:
            return x
        shift = self._shift_a if key == self._key_a else self._shift
        return from_key(K.terms_sub(K.terms_scale(key, (self.n, 1)), self._key_c_n1), x.dim, const + shift)

    def apply_inverse(self, y: Element) -> Element:
        key, const = split_const(y)
        if K.terms_cmp(key, self._key_c) <= 0:
            return y
        # y's class comes from the one keyed (key(y) + (n-1)*key(c)) / n,
        # which lies above c's
        key_r = K.terms_scale(K.terms_add(key, self._key_c_n1), (1, self.n))
        shift = self._shift_a if key_r == self._key_a else self._shift
        return from_key(key_r, y.dim, const - shift)

    def anchors(self) -> tuple:
        return ((self.a, self.b), (self.c, self.c))


class E3Shift(Descriptor):
    """Identity on the class of elements dominated by every power of c, and
    ``rep -> c*rep`` on the other class representatives (a1 representing
    its own class), offsets preserved.

    Both directions work on the (key, rest) split at c's level.  a1's class
    moves by ``a2 - a1``; every other key represents its class, so x maps
    to ``c*key(x) + rest(x)`` and y comes from ``key(y)/c + rest(y)``.
    """

    a1: Element
    a2: Element
    c: Element
    kind = "e3_shift"

    def __init__(self, a1: Element, a2: Element, c: Element):
        if c.dim != 2:
            raise InvariantViolation("dominated-class shift needs the dim-2 lattice")
        if is_standard(c):
            raise InvariantViolation("scaling companion must be a nonstandard monomial")
        inv_c = monomial_inverse(c)
        lvl = deg_level(c)
        if lvl < 1:
            raise InvariantViolation("scaling companion must be dominated by the anchors")
        if is_standard(a1) or deg_level(a1) >= lvl:
            raise InvariantViolation("anchor must dominate every power of the companion")
        if a2 != a1 * c:
            raise InvariantViolation("normalized anchor must satisfy a2 = c * a1")
        # c's exponent has a zero first component and a positive second, so
        # a2 = c*a1 > a1, and c*key moves no term across the split
        self.__dict__.update(
            a1=a1, a2=a2, c=c, _inv_c=inv_c, _lvl=lvl, _key_a1=split_level(a1, lvl)[0],
            _key_c=split_const(c)[0], _step=sub(a2, a1),
        )

    def apply(self, x: Element) -> Element:
        key, rest = split_level(x, self._lvl)
        if not key:
            return x
        if key == self._key_a1:
            return x + self._step
        return from_key(K.terms_mul(key, self._key_c), x.dim, rest=rest)

    def apply_inverse(self, y: Element) -> Element:
        key, rest = split_level(y, self._lvl)
        if not key:
            return y
        key_r = K.terms_mul(key, self._inv_c)
        if key_r == self._key_a1:
            return sub(y, self._step)
        return from_key(key_r, y.dim, rest=rest)

    def anchors(self) -> tuple:
        return ((self.a1, self.a2),)


class Compose(Descriptor):
    parts: tuple[Descriptor, ...]
    kind = "compose"

    def __init__(self, parts: tuple):
        self.__dict__["parts"] = parts

    def apply(self, x: Element) -> Element:
        for part in reversed(self.parts):
            x = part.apply(x)
        return x

    def apply_inverse(self, y: Element) -> Element:
        for part in self.parts:
            y = part.apply_inverse(y)
        return y

    def inverse(self) -> Descriptor:
        return Compose(tuple(p.inverse() for p in reversed(self.parts)))

    def flatten(self) -> tuple:
        return self.parts


class Inverse(Descriptor):
    of: Descriptor
    kind = "inverse"

    def __init__(self, of: Descriptor):
        self.__dict__["of"] = of

    def apply(self, x: Element) -> Element:
        return self.of.apply_inverse(x)

    def apply_inverse(self, y: Element) -> Element:
        return self.of.apply(y)

    def inverse(self) -> Descriptor:
        return self.of


class SegmentExtend(Descriptor):
    below: Descriptor
    a: Element
    b: Element
    kind = "segment_extend"

    def __init__(self, below: Descriptor, a: Element, b: Element):
        # below is an automorphism (every kind is checked where it is built),
        # so it maps {x < a} onto {y < below(a)}: the glued map is one iff
        # below(a) == b
        if below.apply(a) != b:
            raise InvariantViolation("segment extension needs below(a) == b")
        self.__dict__.update(below=below, a=a, b=b)

    def apply(self, x: Element) -> Element:
        if x < self.a:
            return self.below.apply(x)
        return self.b + sub(x, self.a)

    def apply_inverse(self, y: Element) -> Element:
        if y < self.b:
            return self.below.apply_inverse(y)
        return self.a + sub(y, self.b)


KINDS = {cls.kind: cls for cls in (Identity, E0ClassShift, E2Affine, E3Shift, Compose, Inverse, SegmentExtend)}


def apply(d: Descriptor, x: Element) -> Element:
    return d.apply(x)


def compose(*descriptors: Descriptor) -> Descriptor:
    """Composite applying right-to-left: compose(f, g) acts as f after g."""
    parts = [p for d in descriptors for p in d.flatten()]
    if not parts:
        return Identity()
    if len(parts) == 1:
        return parts[0]
    return Compose(tuple(parts))


# --- builders ---------------------------------------------------------------


def _deg_text(x: Element) -> str:
    """x's degree as ``(p/q,r/s)``, for the builders' refusals."""
    return f"({','.join(exponent_texts(lead_term(x)[0]))})"


def build_from_e2(a: Element, b: Element) -> Descriptor:
    """An order-automorphism mapping a to b, given a finite ratio a ~ b."""
    if not equiv.related(2, a, b):
        raise NotE2Equivalent(f"degrees differ: {_deg_text(a)} vs {_deg_text(b)}")
    if a == b:
        return Identity()
    if a > b:
        return build_from_e2(b, a).inverse()
    if trunc_const(a) == trunc_const(b):
        return E0ClassShift(a, const_value(b) - const_value(a))
    q, r = divmod_floor(b, a)
    if r.is_zero():
        # boundary case b = q*a: build to b-1 and repair with a class shift
        inner = build_from_e2(a, b - 1)
        return compose(E0ClassShift(b, 1), inner)
    n = const_value(q) + 1
    c2, m = divmod_scalar(sub(b, a), n - 1)
    c = sub(a, c2)
    return E2Affine(a=a, b=b, n=n, c=c, m=m)


def build_from_e3(a1: Element, a2: Element) -> Descriptor:
    """An order-automorphism mapping a1 to a2, given level-3 equivalence.

    Composes a dominated-class scaling taking a1 to the normalized target
    c*a1 with an affine map taking c*a1 to a2 (they have equal degrees).
    In dim 1, or whenever the pair already has a finite ratio, the affine
    route alone suffices.
    """
    if not equiv.related(3, a1, a2):
        raise NotE3Equivalent(f"no dominated companion links {_deg_text(a1)} and {_deg_text(a2)}")
    if equiv.related(2, a1, a2):
        return build_from_e2(a1, a2)
    if a1 > a2:
        return build_from_e3(a2, a1).inverse()
    (gap,) = exponent_differences((lead_term(a1)[0], lead_term(a2)[0]))
    c = Element([(gap, 1)], 2)
    mid = a1 * c
    shift = E3Shift(a1=a1, a2=mid, c=c)
    if mid == a2:
        return shift
    return compose(build_from_e2(mid, a2), shift)


def prove_E5(a: Element, b: Element) -> Descriptor:
    """Sound orbit-equivalence prover: an order-automorphism mapping a to b
    by the level-2 or level-3 construction (every level-2 pair is level-3).

    Raises CannotProve when neither route applies; that is *not* a proof of
    inequivalence.
    """
    try:
        return build_from_e3(a, b)
    except NotE3Equivalent:
        raise CannotProve("no constructive route: pair is neither level-2 nor level-3 equivalent") from None


# --- validation and instrumentation -----------------------------------------


class ValidationReport(NamedTuple):
    probes: int
    pairs: int


def validate(d: Descriptor, probes, anchors: tuple = ()) -> ValidationReport:
    """Probe-based certification of a descriptor.

    The probes may come in any order and repeat: they are checked as their
    sorted set.  Asserts strict monotonicity of images, inverse round-trips,
    anchor correctness, pointwise fixing of standard elements, and transport
    of the finite-distance relation across every adjacent probe pair.
    Raises ValidationFailure carrying the violating probe pair.
    """
    probes = sorted(dict.fromkeys(probes))
    images = [d.apply(p) for p in probes]

    for i in range(len(probes) - 1):
        if not images[i] < images[i + 1]:
            raise ValidationFailure(
                "monotonicity",
                f"images of {probes[i]!r} and {probes[i + 1]!r} are not increasing",
                probe=probes[i],
                other=probes[i + 1],
            )

    for p, img in zip(probes, images):
        back = d.apply_inverse(img)
        if back != p:
            raise ValidationFailure(
                "inverse-roundtrip",
                f"inverse(image({p!r})) = {back!r}",
                probe=p,
            )
        if is_standard(p) != is_standard(img):
            raise ValidationFailure(
                "standard-preservation",
                f"{p!r} and its image {img!r} disagree on standardness",
                probe=p,
            )

    for x, expected in d.anchors() + tuple(anchors):
        got = d.apply(x)
        if got != expected:
            raise ValidationFailure(
                "anchor",
                f"image of {x!r} is {got!r}, expected {expected!r}",
                probe=x,
                other=expected,
            )

    # a finite-distance class is its key, empty exactly for the standard
    # elements
    classes = [split_const(p)[0] for p in probes]
    image_classes = [split_const(img)[0] for img in images]
    for i in range(len(probes) - 1):
        x, y = probes[i], probes[i + 1]
        if not classes[i] or not classes[i + 1]:
            continue
        if (classes[i] == classes[i + 1]) != (image_classes[i] == image_classes[i + 1]):
            raise ValidationFailure(
                "e0-transport",
                f"finite-distance relation not preserved on ({x!r}, {y!r})",
                probe=x,
                other=y,
            )

    return ValidationReport(probes=len(probes), pairs=max(len(probes) - 1, 0))
