"""Pure-Python term-arithmetic kernel.

This is the reference implementation of the hot inner loops.  A compiled
Cython twin (``lexarith._kernel``) exports the same functions; the backend
is chosen at import time in :mod:`lexarith._backend`.

Data layout (shared by both backends):

- rational: ``(num, den)`` pair of ints, ``den > 0``, gcd-reduced, so zero
            is ``(0, 1)``; this canonical pair is the only rational inside
            the package (equality, hashing and dedupe rely on it), and
            ``fractions.Fraction`` exists only in the public views of
            :mod:`lexarith.model` and in ``analysis.EmbedResult``
- exponent: tuple of rationals, one per dimension, compared lexicographically
- terms:    tuple of ``(exponent, coeff)`` pairs, strictly descending by
            exponent, with no zero coefficients

Terms here are *signed* series: the model-level invariants (nonnegative
exponents, integer constant, positive leading coefficient) are enforced one
layer up, in :mod:`lexarith.model`.
"""

from math import gcd

BACKEND = "pure"


def rat(num, den=1):
    """Normalize a rational: positive denominator, lowest terms."""
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if den < 0:
        num = -num
        den = -den
    g = gcd(num, den)
    if g > 1:
        return (num // g, den // g)
    return (num, den)


def rat_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return rat(an + bn, ad)
    return rat(an * bd + bn * ad, ad * bd)


def rat_sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        return rat(an - bn, ad)
    return rat(an * bd - bn * ad, ad * bd)


def rat_mul(a, b):
    return rat(a[0] * b[0], a[1] * b[1])


def rat_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError("rational division by zero")
    return rat(a[0] * b[1], a[1] * b[0])


def rat_neg(a):
    return (-a[0], a[1])


def rat_cmp(a, b):
    v = a[0] * b[1] - b[0] * a[1]
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def exp_cmp(e, f):
    """Lexicographic comparison of two equal-length exponents."""
    for i in range(len(e)):
        c = rat_cmp(e[i], f[i])
        if c:
            return c
    return 0


def exp_add(e, f):
    return tuple(rat_add(e[i], f[i]) for i in range(len(e)))


def exp_sub(e, f):
    return tuple(rat_sub(e[i], f[i]) for i in range(len(e)))


def exp_scale(e, r):
    return tuple(rat_mul(c, r) for c in e)


def exp_is_zero(e):
    for c in e:
        if c[0]:
            return False
    return True


def terms_neg(A):
    return tuple((e, (-c[0], c[1])) for e, c in A)


def terms_add(A, B):
    """Merge two descending term tuples, cancelling zeros."""
    if not A:
        return tuple(B)
    if not B:
        return tuple(A)
    out = []
    i = j = 0
    la = len(A)
    lb = len(B)
    while i < la and j < lb:
        ea, ca = A[i]
        eb, cb = B[j]
        c = exp_cmp(ea, eb)
        if c > 0:
            out.append(A[i])
            i += 1
        elif c < 0:
            out.append(B[j])
            j += 1
        else:
            s = rat_add(ca, cb)
            if s[0]:
                out.append((ea, s))
            i += 1
            j += 1
    if i < la:
        out.extend(A[i:])
    if j < lb:
        out.extend(B[j:])
    return tuple(out)


def terms_sub(A, B):
    return terms_add(A, terms_neg(B))


def terms_scale(A, r):
    if r[0] == 0:
        return ()
    return tuple((e, rat_mul(c, r)) for e, c in A)


def terms_mul(A, B):
    if not A or not B:
        return ()
    acc = {}
    for ea, ca in A:
        for eb, cb in B:
            k = exp_add(ea, eb)
            v = acc.get(k)
            if v is None:
                acc[k] = rat_mul(ca, cb)
            else:
                acc[k] = rat_add(v, rat_mul(ca, cb))
    items = [(e, c) for e, c in acc.items() if c[0]]
    # insertion sort by descending exponent; term counts stay small
    out = []
    for item in items:
        lo = 0
        hi = len(out)
        while lo < hi:
            mid = (lo + hi) // 2
            if exp_cmp(item[0], out[mid][0]) > 0:
                hi = mid
            else:
                lo = mid + 1
        out.insert(lo, item)
    return tuple(out)


def terms_cmp(A, B):
    """Sign of A - B without materializing the difference."""
    i = j = 0
    la = len(A)
    lb = len(B)
    while i < la and j < lb:
        ea, ca = A[i]
        eb, cb = B[j]
        c = exp_cmp(ea, eb)
        if c > 0:
            return 1 if ca[0] > 0 else -1
        if c < 0:
            return -1 if cb[0] > 0 else 1
        d = rat_cmp(ca, cb)
        if d:
            return d
        i += 1
        j += 1
    if i < la:
        return 1 if A[i][1][0] > 0 else -1
    if j < lb:
        return -1 if B[j][1][0] > 0 else 1
    return 0


def terms_sign(A):
    if not A:
        return 0
    return 1 if A[0][1][0] > 0 else -1
