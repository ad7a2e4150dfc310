"""One check for every element built from terms, against a literal reference.

``Element(...)`` normalizes and sorts its terms, ``Element.from_pairs(...)``
takes them canonical and strictly descending; both end in the same check.
The reference below lists every fault of a term list, term by term, with
``Fraction`` values: the rules of ``Element(...)``, and for
``from_pairs`` the same rules plus canonical pairs and strict descent.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lexarith.errors import InvariantViolation
from lexarith.model import Element, rat

FAULTS = (
    "unsorted",
    "shuffled",
    "duplicate",
    "zero-coefficient",
    "negative-exponent",
    "fractional-constant",
    "negative-lead",
    "wrong-length",
    "non-canonical",
)


def _text(e) -> str:
    return "(" + ",".join(str(n) if d == 1 else f"{n}/{d}" for n, d in e) + ")"


def _value(e) -> tuple:
    return tuple(Fraction(n, d) for n, d in e)


def _canon(r) -> tuple:
    v = Fraction(*r)
    return (v.numerator, v.denominator)


def _over_zero(terms) -> bool:
    """Whether a pair of the term list has denominator 0, and so no value."""
    return any(d == 0 for e, c in terms for _, d in (*e, c))


def reference(terms, dim, normalize):
    """(every fault of the term list, the element's terms if there is none).

    With normalize, pairs are reduced and terms sorted first, as
    ``Element(...)`` does; without, both must already hold."""
    faults = []
    if normalize:
        terms = [(tuple(map(_canon, e)), _canon(c)) for e, c in terms]
    else:
        faults += [
            f"rational pair ({n}, {d}) is not canonical"
            for e, c in terms
            for n, d in (*e, c)
            if d < 1 or gcd(n, d) != 1
        ]
    faults += [f"exponent {_text(e)} has wrong dimension for dim={dim}" for e, _ in terms if len(e) != dim]
    faults += ["zero coefficient term" for _, c in terms if c[0] == 0]
    # with a pair over 0 the check reports one of the faults above first
    if any(len(e) != dim for e, _ in terms) or _over_zero(terms):
        return faults, None
    if normalize:
        terms = sorted(terms, key=lambda t: _value(t[0]), reverse=True)
    for (e, _), (f, _) in zip(terms, terms[1:]):
        if _value(e) == _value(f):
            faults.append(f"duplicate exponent {_text(e)}")
        elif _value(e) < _value(f):
            faults.append(f"terms out of order: exponent {_text(f)} after {_text(e)}")
    zero = (Fraction(0),) * dim
    for e, c in terms:
        if _value(e) < zero:
            faults.append(f"negative exponent {_text(e)}")
        if _value(e) == zero and Fraction(*c).denominator != 1:
            faults.append(f"constant coefficient {c[0]}/{c[1]} is not an integer")
    if terms and Fraction(*terms[0][1]) < 0:
        constant = _value(terms[0][0]) == zero
        faults.append("constant element must be nonnegative" if constant else "leading coefficient must be positive")
    return faults, None if faults else tuple(terms)


pairs = st.tuples(st.integers(0, 4), st.integers(1, 3)).map(lambda p: rat(*p))
signed_pairs = st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(lambda p: rat(*p))
coeffs = st.tuples(st.integers(1, 9), st.sampled_from((1, 1, 2, 3))).map(lambda p: rat(*p))


@st.composite
def term_lists(draw):
    """(dim, terms): mostly an element's terms, highest first, then up to
    two drawn faults."""
    dim = draw(st.sampled_from((1, 2)))
    exponent = st.tuples(pairs) if dim == 1 else st.tuples(pairs, signed_pairs)
    zero = ((0, 1),) * dim
    exps = draw(st.lists(exponent.filter(lambda e: _value(e) > (0,) * dim), unique=True, max_size=4))
    terms = [(e, draw(coeffs)) for e in sorted(exps, key=_value, reverse=True)]
    terms[1:] = [(e, (-n, d) if draw(st.booleans()) else (n, d)) for e, (n, d) in terms[1:]]
    constant = draw(st.integers(0 if not terms else -5, 5))
    if constant:
        terms.append((zero, (constant, 1)))
    index = st.integers(0, max(len(terms) - 1, 0))
    for _ in range(draw(st.integers(0, 2))):
        fault, i = draw(st.sampled_from(FAULTS)), draw(index)
        if fault == "unsorted" and len(terms) > 1:
            i = min(i, len(terms) - 2)
            terms[i : i + 2] = terms[i + 1], terms[i]
        elif fault == "shuffled":
            terms = list(draw(st.permutations(terms)))
        elif fault == "duplicate" and terms:
            terms.insert(i + 1, (terms[i][0], draw(coeffs)))
        elif fault == "zero-coefficient" and terms:
            terms[i] = (terms[i][0], (0, 1))
        elif fault == "negative-exponent":
            below = (rat(-draw(st.integers(1, 4)), draw(st.integers(1, 3))),)
            terms.append((below if dim == 1 else draw(st.sampled_from((((0, 1),) + below, below + ((1, 1),)))), draw(coeffs)))
        elif fault == "fractional-constant":
            fraction = (draw(st.integers(1, 5)), draw(st.sampled_from((2, 3))))
            terms = [t for t in terms if t[0] != zero] + [(zero, fraction)]
        elif fault == "negative-lead" and terms:
            terms[0] = (terms[0][0], (-terms[0][1][0], terms[0][1][1]))
        elif fault == "wrong-length" and terms:
            e, c = terms[i]
            terms[i] = (e + ((1, 1),) if dim == 1 or draw(st.booleans()) else e[:1], c)
        elif fault == "non-canonical" and terms:
            k = draw(st.sampled_from((2, 0, -1, -2)))
            e, c = terms[i]
            j = draw(st.integers(0, len(e)))
            if j == len(e):
                c = (c[0] * k, c[1] * k)
            else:
                e = e[:j] + ((e[j][0] * k, e[j][1] * k),) + e[j + 1 :]
            terms[i] = (e, c)
    return dim, terms


def _outcome(build, terms, dim):
    try:
        return None, build(terms, dim).raw
    except InvariantViolation as exc:
        return str(exc), None


@settings(max_examples=400, deadline=None)
@given(term_lists())
def test_both_constructors_match_the_reference(case):
    dim, terms = case
    for build, normalize in ((Element, True), (Element.from_pairs, False)):
        if normalize and _over_zero(terms):
            # normalizing a pair over 0 divides by zero, before any check
            with pytest.raises(ZeroDivisionError):
                build(terms, dim)
            continue
        faults, raw = reference(terms, dim, normalize)
        message, built = _outcome(build, terms, dim)
        # refused exactly when there is a fault, for one of the faults there
        # are: with a single fault, its message
        assert (message is None) == (not faults), (build, terms, faults, message)
        assert message is None or message in faults, (build, terms, faults, message)
        assert built == raw
