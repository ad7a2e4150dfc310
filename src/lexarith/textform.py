"""Canonical text form of elements.

Grammar (whitespace-insensitive)::

    element  := [sign] term (sign term)*
    sign     := '+' | '-'
    term     := coeff '*' tpart | tpart | coeff
    tpart    := 't' ['^' exponent]
    exponent := rational                    (dim 1, bare integer)
               | '(' rational ')'           (dim 1)
               | '(' rational ',' rational ')'   (dim 2)
    rational := ['-'] digits ['/' digits]
    coeff    := digits ['/' digits]

``format_element`` emits the canonical descending-term rendering and
round-trips exactly through ``parse_element``.
"""

from __future__ import annotations

import sys

from .errors import ParseError
from .model import Element, exponent_texts, format_rational, rat, sum_terms

_WS = " \t\n\r"
_DIGITS = frozenset("0123456789")


def _format_exponent(e: tuple) -> str:
    if len(e) == 1 and e[0][1] == 1:
        num = e[0][0]
        return f"t^{num}" if num != 1 else "t"
    return f"t^({','.join(exponent_texts(e))})"


def format_element(e: Element) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for i, (exponent, (num, den)) in enumerate(e.term_pairs()):
        mag = (abs(num), den)
        if not any(num for num, _ in exponent):
            body = format_rational(mag)
        elif mag == (1, 1):
            body = _format_exponent(exponent)
        else:
            body = f"{format_rational(mag)}*{_format_exponent(exponent)}"
        if i == 0:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(parts)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(self.pos, f"'{ch}'", self.peek() or "end of input")
        self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "digits", self.peek() or "end of input")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise ParseError(start, f"at most {limit} digits", f"{self.pos - start} digits") from None

    def rational(self, signed: bool) -> tuple:
        self.skip_ws()
        neg = False
        if signed and self.peek() == "-":
            self.take()
            neg = True
        num = self.uint()
        den = 1
        if self.peek() == "/":
            self.take()
            den_pos = self.pos
            den = self.uint()
            if den == 0:
                raise ParseError(den_pos, "nonzero denominator", "0")
        return rat(-num if neg else num, den)


def _parse_exponent(s: _Scanner, dim: int) -> tuple:
    if s.peek() != "(":
        if dim != 1:
            raise ParseError(s.pos, "'(' starting a dim-2 exponent", s.peek() or "end of input")
        return (s.rational(signed=False),)
    s.take()
    first = s.rational(signed=True)
    s.skip_ws()
    if s.peek() == ",":
        if dim != 2:
            raise ParseError(s.pos, "')' (dim-1 exponent has one component)", ",")
        s.take()
        second = s.rational(signed=True)
        s.skip_ws()
        s.expect(")")
        return (first, second)
    if dim != 1:
        raise ParseError(s.pos, "',' (dim-2 exponent has two components)", s.peek() or "end of input")
    s.expect(")")
    return (first,)


def _parse_term(s: _Scanner, dim: int) -> tuple:
    """One unsigned term -> (exponent components, coefficient)."""
    s.skip_ws()
    coeff = (1, 1)
    if s.peek() != "t":
        if s.peek() not in _DIGITS:
            raise ParseError(s.pos, "a term ('t', coefficient, or digits)", s.peek() or "end of input")
        coeff = s.rational(signed=False)
        s.skip_ws()
        if s.peek() != "*":
            return ((0, 1),) * dim, coeff
        s.take()
        s.skip_ws()
        if s.peek() != "t":
            raise ParseError(s.pos, "'t' after '*'", s.peek() or "end of input")
    s.take()
    if s.peek() == "^":
        s.take()
        return _parse_exponent(s, dim), coeff
    return ((1, 1),) + ((0, 1),) * (dim - 1), coeff


def parse_element(text: str, dim: int) -> Element:
    """Parse canonical element text; raises ParseError or InvariantViolation."""
    s = _Scanner(text)
    s.skip_ws()
    if s.at_end():
        raise ParseError(0, "an element expression", "end of input")
    terms = []
    sign = 1
    if s.peek() in "+-":
        sign = -1 if s.take() == "-" else 1
    while True:
        exp, (num, den) = _parse_term(s, dim)
        terms.append((exp, (sign * num, den)))
        s.skip_ws()
        if s.at_end():
            break
        ch = s.peek()
        if ch not in "+-":
            raise ParseError(s.pos, "'+', '-' or end of input", ch)
        s.take()
        sign = -1 if ch == "-" else 1
    return sum_terms(terms, dim)
