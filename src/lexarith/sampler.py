"""Seeded element sampling.

Deterministic for a fixed profile: the same seed always produces the same
stream.  Sampled values always satisfy the model invariants; most samples
are nonstandard (the property suites need them), with a small standard
admixture controlled by the profile size.

Terms are built as canonical ``(num, den)`` pairs (:func:`model.rat`),
sorted once by :data:`model.exponent_key`, and handed to
:meth:`Element.from_pairs`, which checks them without normalizing or
sorting again.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import InvariantViolation
from .model import Element, exponent_key, is_standard, rat


# exponent components are p/q with 0 <= p <= EXP_NUM_BOUND, 1 <= q <= EXP_DEN_BOUND
EXP_NUM_BOUND = 6
EXP_DEN_BOUND = 3


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

    def _rational(self, allow_zero: bool, allow_negative: bool) -> tuple:
        """A canonical ``(num, den)`` pair."""
        num = self.rng.randint(0 if allow_zero else 1, EXP_NUM_BOUND)
        den = self.rng.randint(1, EXP_DEN_BOUND)
        if allow_negative and num and self.rng.random() < 0.3:
            num = -num
        return rat(num, den)

    def _exponent(self) -> tuple:
        """A nonzero exponent >= 0 in the lexicographic order, as a tuple of
        canonical pairs."""
        if self.profile.dim == 1:
            return (self._rational(allow_zero=False, allow_negative=False),)
        first = self._rational(allow_zero=True, allow_negative=False)
        second = self._rational(allow_zero=True, allow_negative=first[0] > 0)
        if first[0] == 0 and second[0] == 0:
            second = rat(self.rng.randint(1, EXP_NUM_BOUND), self.rng.randint(1, EXP_DEN_BOUND))
        return (first, second)

    def _coeff(self) -> tuple:
        p = self.profile
        num = self.rng.randint(1, p.coeff_bound)
        den = self.rng.choice((1, 1, 1, 2, 3))
        return rat(num, den)

    def element(self) -> Element:
        """One sample; standard with probability about 1/8."""
        p = self.profile
        if self.rng.random() < 0.125:
            return Element.integer(self.rng.randint(0, p.coeff_bound), p.dim)
        n_terms = self.rng.randint(1, p.max_terms)
        exps = set()
        guard = 0
        while len(exps) < n_terms and guard < 8 * n_terms:
            guard += 1
            exps.add(self._exponent())
        terms = []
        for i, e in enumerate(sorted(exps, key=exponent_key, reverse=True)):
            coeff = self._coeff()
            if i > 0 and self.rng.random() < 0.4:
                coeff = (-coeff[0], coeff[1])
            terms.append((e, coeff))
        constant = self.rng.randint(-p.coeff_bound, p.coeff_bound)
        # every sampled exponent is above zero, so the constant comes last
        if constant:
            terms.append((((0, 1),) * p.dim, (constant, 1)))
        return Element.from_pairs(terms, p.dim)

    def nonstandard(self) -> Element:
        for _ in range(64):
            e = self.element()
            if not is_standard(e):
                return e
        raise AssertionError("sampler failed to produce a nonstandard element")

    def integer(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def choice(self, seq):
        return self.rng.choice(seq)

    def chance(self, p: float) -> bool:
        return self.rng.random() < p
