"""JSON schemas for the machine interface.

Rationals travel as ``"p/q"`` strings (``"p"`` when the denominator is 1).
Elements are ``{"terms": [{"exp": [...], "coeff": "..."}]}``, verdicts are
``{"level", "equivalent", "witness", "reason"}``.  Serialization is
canonical: fixed key order via sorted dumps, no whitespace, so equal values
are byte-identical.

Descriptors are ``{"kind": ..., <fields>}``, walked generically over the
declared fields (``_fields``) of the kind in :data:`lexarith.automorph.KINDS`,
each by its annotation text: an ``Element`` field is an element, an ``int``
a JSON integer, a ``Descriptor`` a nested descriptor and a
``tuple[Descriptor, ...]`` a list of them.
Loading raises :class:`~lexarith.errors.InvariantViolation` on anything
else: not an object, an unknown kind, missing or extra fields, an integer
that is a string, float or boolean, a rational that is not a ``"p"`` or
``"p/q"`` string, a misshapen element, or fields the kind's constructor
rejects.

Only :func:`descriptor_from_json` needs :mod:`lexarith.automorph` (for
``KINDS``), and it imports it in its body; the records named in the other
annotations are never imported here.  So a CLI request that prints an
element loads no automorphism, decider or analysis code.
"""

from __future__ import annotations

import json
import re
import sys

from .errors import InvariantViolation
from .model import Element, exponent_texts, format_rational, rat
from .oracle import BoundN
from .textform import format_element


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def rational_from_json(s: str) -> tuple:
    if type(s) is not str or _RATIONAL.fullmatch(s) is None:
        raise InvariantViolation(f'rational must be a "p" or "p/q" string, got {s!r:.40}')
    num, _, den = s.partition("/")
    try:
        return rat(int(num), int(den or 1))
    except ValueError:  # more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise InvariantViolation(f"rational parts must have at most {limit} digits") from None


def element_to_json(e: Element) -> dict:
    return {
        "terms": [
            {"exp": exponent_texts(exponent), "coeff": format_rational(coeff)}
            for exponent, coeff in e.term_pairs()
        ]
    }


def element_from_json(obj, dim: int) -> Element:
    if type(obj) is not dict or obj.keys() != {"terms"} or type(obj["terms"]) is not list:
        raise InvariantViolation('element must be {"terms": [...]}')
    terms = []
    for t in obj["terms"]:
        if type(t) is not dict or t.keys() != {"exp", "coeff"} or type(t["exp"]) is not list:
            raise InvariantViolation('element term must be {"exp": [...], "coeff": "p/q"}')
        exp = tuple(rational_from_json(c) for c in t["exp"])
        terms.append((exp, rational_from_json(t["coeff"])))
    return Element(terms, dim)


def witness_to_json(w: Witness):
    if isinstance(w, BoundN):
        return {"n": w.n}
    return {"c": element_to_json(w.c), "c_text": format_element(w.c)}


def verdict_to_json(v: Verdict) -> dict:
    return {**v._asdict(), "witness": witness_to_json(v.witness) if v.witness is not None else None}


def descriptor_to_json(d: automorph.Descriptor) -> dict:
    doc = {"kind": d.kind}
    for name in d._fields:
        doc[name] = _CODECS[type(d).__annotations__[name]][0](getattr(d, name))
    return doc


def descriptor_from_json(obj, dim: int) -> automorph.Descriptor:
    from . import automorph

    kind = obj.get("kind") if type(obj) is dict else None
    cls = automorph.KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise InvariantViolation(f"descriptor must be an object with a kind in {sorted(automorph.KINDS)}")
    if obj.keys() != {"kind", *cls._fields}:
        raise InvariantViolation(f"{kind} descriptor needs exactly the fields {list(cls._fields)}, got {sorted(obj)}")
    return cls(**{name: _CODECS[cls.__annotations__[name]][1](obj[name], dim) for name in cls._fields})


def _int_from_json(v, dim: int) -> int:
    if type(v) is not int:
        raise InvariantViolation(f"expected a JSON integer, got {v!r:.40}")
    return v


def _parts_from_json(v, dim: int) -> tuple:
    if type(v) is not list:
        raise InvariantViolation("parts must be a JSON list of descriptors")
    return tuple(descriptor_from_json(p, dim) for p in v)


# field annotation text -> (to JSON, from JSON at a dimension); the
# module-level codecs are looked up by name on each call, so a rebinding
# (tracing) sees them
_CODECS = {
    "Element": (lambda e: element_to_json(e), lambda v, dim: element_from_json(v, dim)),
    "int": (int, _int_from_json),
    "Descriptor": (lambda d: descriptor_to_json(d), lambda v, dim: descriptor_from_json(v, dim)),
    "tuple[Descriptor, ...]": (
        lambda parts: [descriptor_to_json(p) for p in parts],
        _parts_from_json,
    ),
}


def sequence_to_json(seq: ClassSequence) -> dict:
    return {
        **seq._asdict(),
        "terms": [element_to_json(t) for t in seq.terms],
        "texts": [format_element(t) for t in seq.terms],
    }


def embed_to_json(r: EmbedResult) -> dict:
    return {"value": format_rational(r.value.as_integer_ratio()), "degenerate": r.degenerate}
