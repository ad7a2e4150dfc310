"""JSON schemas for the machine interface.

Rationals travel as ``"p/q"`` strings (``"p"`` when the denominator is 1).
Elements are ``{"terms": [{"exp": [...], "coeff": "..."}]}``, verdicts are
``{"level", "equivalent", "witness", "reason"}``.  Serialization is
canonical: fixed key order via sorted dumps, no whitespace, so equal values
are byte-identical.

Descriptors are ``{"kind": ..., <fields>}``, walked generically over the
dataclass fields of the kind in :data:`lexarith.automorph.KINDS`: an
``Element`` field is an element, an ``int`` a JSON integer, a ``Descriptor``
a nested descriptor and a ``tuple[Descriptor, ...]`` a list of them.
Loading raises :class:`~lexarith.errors.InvariantViolation` on anything
else: not an object, an unknown kind, missing or extra fields, an integer
that is a string, float or boolean, a rational that is not a ``"p"`` or
``"p/q"`` string, a misshapen element, or fields the kind's constructor
rejects.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import typing

from . import automorph
from .analysis import ClassSequence, EmbedResult
from .equiv import Verdict
from .errors import InvariantViolation
from .model import Element, format_rational, rat
from .oracle import BoundN, Witness
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
    except ValueError as exc:  # more digits than int() converts
        raise InvariantViolation(str(exc)) from None


def element_to_json(e: Element) -> dict:
    return {
        "terms": [
            {"exp": exponent.texts(), "coeff": format_rational(coeff)}
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
    return {
        "level": v.level,
        "equivalent": v.equivalent,
        "witness": witness_to_json(v.witness) if v.witness is not None else None,
        "reason": v.reason,
    }


def descriptor_to_json(d: automorph.Descriptor) -> dict:
    doc = {"kind": d.kind}
    for name, to_json, _ in _fields(type(d)):
        doc[name] = to_json(getattr(d, name))
    return doc


def descriptor_from_json(obj, dim: int) -> automorph.Descriptor:
    kind = obj.get("kind") if type(obj) is dict else None
    cls = automorph.KINDS.get(kind) if type(kind) is str else None
    if cls is None:
        raise InvariantViolation(f"descriptor must be an object with a kind in {sorted(automorph.KINDS)}")
    fields = _fields(cls)
    names = [name for name, _, _ in fields]
    if obj.keys() != {"kind", *names}:
        raise InvariantViolation(f"{kind} descriptor needs exactly the fields {names}, got {sorted(obj)}")
    return cls(**{name: from_json(obj[name], dim) for name, _, from_json in fields})


@functools.cache
def _fields(cls) -> tuple:
    """(name, to JSON, from JSON) of each dataclass field of a descriptor kind."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_CODECS[hints[f.name]]) for f in dataclasses.fields(cls))


def _int_from_json(v, dim: int) -> int:
    if type(v) is not int:
        raise InvariantViolation(f"expected a JSON integer, got {v!r:.40}")
    return v


def _parts_from_json(v, dim: int) -> tuple:
    if type(v) is not list:
        raise InvariantViolation("parts must be a JSON list of descriptors")
    return tuple(descriptor_from_json(p, dim) for p in v)


# field annotation -> (to JSON, from JSON at a dimension); the module-level
# codecs are looked up by name on each call, so a rebinding (tracing) sees them
_CODECS = {
    Element: (lambda e: element_to_json(e), lambda v, dim: element_from_json(v, dim)),
    int: (int, _int_from_json),
    automorph.Descriptor: (lambda d: descriptor_to_json(d), lambda v, dim: descriptor_from_json(v, dim)),
    tuple[automorph.Descriptor, ...]: (
        lambda parts: [descriptor_to_json(p) for p in parts],
        _parts_from_json,
    ),
}


def sequence_to_json(seq: ClassSequence) -> dict:
    return {
        "kind": seq.kind,
        "level": seq.level,
        "direction": seq.direction,
        "terms": [element_to_json(t) for t in seq.terms],
        "texts": [format_element(t) for t in seq.terms],
    }


def embed_to_json(r: EmbedResult) -> dict:
    return {"value": format_rational(r.value.as_integer_ratio()), "degenerate": r.degenerate}
