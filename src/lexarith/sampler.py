"""Seeded element sampling.

Deterministic for a fixed profile: the same seed always produces the same
stream.  Sampled values always satisfy the model invariants; most samples
are nonstandard (the property suites need them), with a small standard
admixture controlled by the profile size.

Every integer draw goes through one primitive, :meth:`Sampler._below`,
which runs CPython's rejection loop of ``Random._randbelow`` on
``rng.getrandbits``: ``lo + _below(hi - lo + 1)`` is ``randint(lo, hi)``
and ``seq[_below(len(seq))]`` is ``choice(seq)``, value for value and draw
for draw, so the stream is the one ``randint`` and ``choice`` drew
(``tests/test_sampler.py`` checks both against a twin ``random.Random``,
and pins the stream).

Terms are built as canonical ``(num, den)`` pairs taken from precomputed
tables, sorted once by an int key, and handed to
:meth:`Element.from_pairs`, which checks them without normalizing or
sorting again.
"""

from __future__ import annotations

import random
from math import lcm
from typing import NamedTuple

from .errors import InvariantViolation
from .model import Element, is_standard, rat


# exponent components are p/q with 0 <= p <= EXP_NUM_BOUND, 1 <= q <= EXP_DEN_BOUND
EXP_NUM_BOUND = 6
EXP_DEN_BOUND = 3
# the denominators a coefficient is drawn from, one of them uniformly
COEFF_DENS = (1, 1, 1, 2, 3)

# every drawn denominator divides _LCM, so p * (_LCM // q) is p/q scaled to
# an int: the sort key of a dim-1 exponent, and of each component of a dim-2
# one, packed as first * _SPAN + second (|second| <= EXP_NUM_BOUND * _LCM)
_LCM = lcm(*range(1, EXP_DEN_BOUND + 1))
_SPAN = 2 * EXP_NUM_BOUND * _LCM + 1

# _COMPONENT[q][p]: the pair and the key of p/q, for |p| <= EXP_NUM_BOUND
_COMPONENT = {
    q: {p: (rat(p, q), p * (_LCM // q)) for p in range(-EXP_NUM_BOUND, EXP_NUM_BOUND + 1)}
    for q in range(1, EXP_DEN_BOUND + 1)
}


class SampleProfile(NamedTuple):
    max_terms: int = 3
    coeff_bound: int = 9
    dim: int = 1
    seed: int = 0


class Sampler:
    """A deterministic stream of sampled elements; its profile is checked here."""

    def __init__(self, profile: SampleProfile):
        if min(profile.max_terms, profile.coeff_bound) < 1:
            raise InvariantViolation("profile bounds must be >= 1")
        if profile.dim not in (1, 2):
            raise InvariantViolation(f"dim must be 1 or 2, got {profile.dim}")
        self.profile = profile
        self.rng = random.Random(profile.seed)
        self._getrandbits = self.rng.getrandbits
        # _coeffs[i][n]: rat(n, COEFF_DENS[i]) for 0 <= n <= coeff_bound
        rows = {q: [rat(n, q) for n in range(profile.coeff_bound + 1)] for q in set(COEFF_DENS)}
        self._coeffs = [rows[q] for q in COEFF_DENS]

    def _below(self, n: int) -> int:
        """A uniform int in [0, n), as ``Random._randbelow`` draws it."""
        if n <= 0:
            raise ValueError(f"empty range below {n}")
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def _exponent(self) -> tuple:
        """(sort key, exponent): a nonzero exponent >= 0 in the lexicographic
        order, as a tuple of canonical pairs."""
        below = self._below
        if self.profile.dim == 1:
            num = 1 + below(EXP_NUM_BOUND)
            pair, key = _COMPONENT[1 + below(EXP_DEN_BOUND)][num]
            return key, (pair,)
        num = below(EXP_NUM_BOUND + 1)
        first, high = _COMPONENT[1 + below(EXP_DEN_BOUND)][num]
        num = below(EXP_NUM_BOUND + 1)
        den = 1 + below(EXP_DEN_BOUND)
        if not (high or num):
            num = 1 + below(EXP_NUM_BOUND)
            den = 1 + below(EXP_DEN_BOUND)
        # a second component may be negative only behind a positive first
        elif high and num and self.rng.random() < 0.3:
            num = -num
        second, low = _COMPONENT[den][num]
        return high * _SPAN + low, (first, second)

    def element(self) -> Element:
        """One sample; standard with probability about 1/8."""
        max_terms, bound, dim, _ = self.profile
        below = self._below
        if self.rng.random() < 0.125:
            return Element.integer(below(bound + 1), dim)
        n_terms = 1 + below(max_terms)
        # exponents by sort key: canonical pairs, so equal keys are equal exponents
        exps = {}
        guard = 0
        while len(exps) < n_terms and guard < 8 * n_terms:
            guard += 1
            key, e = self._exponent()
            exps[key] = e
        coeffs = self._coeffs
        terms = []
        for i, key in enumerate(sorted(exps, reverse=True)):
            num = 1 + below(bound)
            coeff = coeffs[below(len(COEFF_DENS))][num]
            if i > 0 and self.rng.random() < 0.4:
                coeff = (-coeff[0], coeff[1])
            terms.append((exps[key], coeff))
        constant = below(2 * bound + 1) - bound
        # every sampled exponent is above zero, so the constant comes last
        if constant:
            terms.append((((0, 1),) * dim, (constant, 1)))
        return Element.from_pairs(terms, dim)

    def nonstandard(self) -> Element:
        for _ in range(64):
            e = self.element()
            if not is_standard(e):
                return e
        raise AssertionError("sampler failed to produce a nonstandard element")

    def integer(self, lo: int, hi: int) -> int:
        """``randint(lo, hi)``: a uniform int in [lo, hi]."""
        return lo + self._below(hi - lo + 1)

    def choice(self, seq):
        """``choice(seq)``: a uniform item of a nonempty sequence."""
        if not len(seq):
            raise IndexError("cannot choose from an empty sequence")
        return seq[self._below(len(seq))]

    def chance(self, p: float) -> bool:
        return self.rng.random() < p
