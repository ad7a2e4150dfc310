"""Exact arithmetic on the integer part of a lexicographic power-series
field, with decision procedures for its scale-equivalence relations,
machine-checkable witness certificates, and constructive order-automorphisms.
"""

from ._backend import backend_name
from .model import (
    Element,
    Exponent,
    Term,
    cmp,
    deg,
    divmod_floor,
    divmod_scalar,
    is_standard,
    pow_int,
    root_floor,
    sub,
)
from .textform import format_element, parse_element

__all__ = [
    "Element",
    "Exponent",
    "Term",
    "backend_name",
    "cmp",
    "deg",
    "divmod_floor",
    "divmod_scalar",
    "format_element",
    "is_standard",
    "parse_element",
    "pow_int",
    "root_floor",
    "sub",
]
