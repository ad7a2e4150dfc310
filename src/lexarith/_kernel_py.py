"""The term-arithmetic kernel: the exact inner loops under every element.

The rest of the package reaches it through :mod:`lexarith._backend`, as
``kernel``.

Data layout:

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

Inside :func:`terms_mul` only, each exponent is one int key, its
components packed into power-of-two fields over one denominator per
component, so the convolution adds and sorts plain ints (the packed
exponent vectors of Monagan and Pearce, CASC 2007).

Work ceiling: :func:`terms_mul` is the one multiply of series, and it
refuses with :class:`~lexarith.errors.ResourceLimit`, before its double
loop, a product of more than ``MAX_MUL_PRODUCTS`` term products, or of two
factors of more than one term each whose word products (term products
times the 64-bit words of the widest int each factor is scaled to: a
coefficient over the lcm of its factor's denominators, or an exponent key)
pass ``MAX_MUL_WORDS``.

Two shortcuts leave the ceilings, their order and their messages as they
are: a square, ``terms_mul(A, A)`` with one object as ``pow_int`` passes
it, is counted as the product of two factors but takes each cross product
once; and a one-term factor of coefficient 1 or exponent 0 skips that half
of the shift, the monomial 1 returning the other factor itself.
"""

from math import gcd, lcm

from .errors import ResourceLimit

BACKEND = "pure"

# the most term products one multiply may take: four times as many,
# squaring the 513-term (t^2 - 10)^512, takes over a second
MAX_MUL_PRODUCTS = 1 << 16
# the most word products (term products times the 64-bit words of the
# widest int each factor is scaled to) one multiply may take: the last
# square of (2*t)**MAX_POW_BITS would read 8193**2 (a one-term factor is
# not counted) and takes milliseconds; (t + 10**600)**32 reads 71,961,289
MAX_MUL_WORDS = 70_000_000


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


# The sum, difference and product of canonical pairs have a positive
# denominator already, so they only need the gcd reduction of rat().


def rat_add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        num, den = an + bn, ad
    else:
        num, den = an * bd + bn * ad, ad * bd
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def rat_sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        num, den = an - bn, ad
    else:
        num, den = an * bd - bn * ad, ad * bd
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def rat_mul(a, b):
    num, den = a[0] * b[0], a[1] * b[1]
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def rat_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError("rational division by zero")
    return rat(a[0] * b[1], a[1] * b[0])


def rat_cmp(a, b):
    v = a[0] * b[1] - b[0] * a[1]
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def exp_cmp(e, f):
    """Lexicographic comparison of two equal-length exponents.

    Rationals are canonical pairs, so equal components are equal tuples and
    the first component that differs as a tuple decides.
    """
    if e == f:
        return 0
    for x, y in zip(e, f):
        if x != y:
            return 1 if x[0] * y[1] > y[0] * x[1] else -1


def exp_add(e, f):
    return tuple(map(rat_add, e, f))


def exp_sub(e, f):
    return tuple(map(rat_sub, e, f))


def exp_scale(e, r):
    return tuple([rat_mul(c, r) for c in e])


def exp_is_zero(e):
    for c in e:
        if c[0]:
            return False
    return True


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
        if ea == eb:
            s = rat_add(ca, cb)
            if s[0]:
                out.append((ea, s))
            i += 1
            j += 1
        elif exp_cmp(ea, eb) > 0:
            out.append(A[i])
            i += 1
        else:
            out.append(B[j])
            j += 1
    if i < la:
        out.extend(A[i:])
    if j < lb:
        out.extend(B[j:])
    return tuple(out)


def terms_sub(A, B):
    return terms_add(A, [(e, (-c[0], c[1])) for e, c in B])


def terms_scale(A, r):
    if r[0] == 0:
        return ()
    return tuple([(e, rat_mul(c, r)) for e, c in A])


def _shift(A, e, c):
    """A times the monomial ``c * t^e``: every exponent moves by e, so the
    order is kept and nothing cancels.  A coefficient 1 takes no rat_mul,
    an exponent 0 no exp_add, and the monomial 1 returns A itself."""
    if exp_is_zero(e):
        return A if c == (1, 1) else tuple([(ea, rat_mul(ca, c)) for ea, ca in A])
    if c == (1, 1):
        return tuple([(exp_add(ea, e), ca) for ea, ca in A])
    return tuple([(exp_add(ea, e), rat_mul(ca, c)) for ea, ca in A])


def _require_words(words):
    if words > MAX_MUL_WORDS:
        raise ResourceLimit(f"multiply needs {words} word products, over {MAX_MUL_WORDS}")


def terms_mul(A, B):
    """Product of two series.

    Over one denominator per exponent component, and one per factor for the
    coefficients, every coefficient is an int and every exponent a vector
    of ints, packed into one int key: x0 in dim 1, ``(x0 << b) + x1`` in
    dim 2.  M is the widest |x1| of A plus the widest of B, so the x1 of
    every term and of every product lies in [-M, M], and
    ``b = (2M).bit_length()`` makes 2M < 2**b: the low field never reaches
    into x0.  So keys add as exponents add, sort in the lexicographic order
    of the exponents (negative components too, as two keys whose x0
    differ are at least 2**b - 2M apart), and unpack exactly as
    ``x0 = (k + M) >> b``, ``x1 = k - (x0 << b)``.  The fields are powers
    of two because a shift is linear in the width of the key, and a
    divmod by 2M + 1 is quadratic.  The double loop adds and multiplies
    ints only, and each output term takes one gcd per component and one
    for its coefficient.

    Refused past the ceilings of the module docstring.  A factor's scaled
    coefficient is at most its widest numerator times the lcm of its
    denominators, so the word count adds their bits, checked before any
    exponent is scaled; the keys descend with the terms, so a factor's
    widest key is its first or its last, and their words are counted
    after packing, before the loop.  A one-term factor takes no lcm and
    only the product ceiling: its work is linear in the other factor.
    """
    if len(A) * len(B) > MAX_MUL_PRODUCTS:
        raise ResourceLimit(f"multiply needs {len(A)}x{len(B)} term products, over {MAX_MUL_PRODUCTS}")
    if not A or not B:
        return ()
    if len(B) == 1:
        return _shift(A, *B[0])
    if len(A) == 1:
        return _shift(B, *A[0])
    # a square, A is B, aliases B's lcm, scaled lists and keys to A's
    sq = A is B
    da = lcm(*[c[1] for _, c in A])
    db = da if sq else lcm(*[c[1] for _, c in B])
    wa = max([c[0].bit_length() for _, c in A]) + da.bit_length() + 63 >> 6
    wb = wa if sq else max([c[0].bit_length() for _, c in B]) + db.bit_length() + 63 >> 6
    _require_words(len(A) * len(B) * wa * wb)
    AB = A if sq else A + B
    d0 = lcm(*[e[0][1] for e, _ in AB])
    KA = [e[0][0] * (d0 // e[0][1]) for e, _ in A]
    KB = KA if sq else [e[0][0] * (d0 // e[0][1]) for e, _ in B]
    two = len(A[0][0]) == 2
    M = b = 0
    if two:
        d1 = lcm(*[e[1][1] for e, _ in AB])
        XA = [e[1][0] * (d1 // e[1][1]) for e, _ in A]
        XB = XA if sq else [e[1][0] * (d1 // e[1][1]) for e, _ in B]
        M = max(map(abs, XA)) + max(map(abs, XB))
        b = (2 * M).bit_length()
        KA = [(x0 << b) + x1 for x0, x1 in zip(KA, XA)]
        KB = KA if sq else [(x0 << b) + x1 for x0, x1 in zip(KB, XB)]
    ka = max(KA[0].bit_length(), KA[-1].bit_length()) + 63 >> 6
    kb = ka if sq else max(KB[0].bit_length(), KB[-1].bit_length()) + 63 >> 6
    if ka > wa or kb > wb:
        _require_words(len(A) * len(B) * max(wa, ka) * max(wb, kb))
    IA = list(zip(KA, [c[0] * (da // c[1]) for _, c in A]))
    IB = IA if sq else list(zip(KB, [c[0] * (db // c[1]) for _, c in B]))
    acc = {}
    get = acc.get
    for i, (xa, na) in enumerate(IA):
        if sq:
            # the diagonal product once, then each cross product once, doubled
            acc[xa + xa] = get(xa + xa, 0) + na * na
            na += na
            IB = IA[i + 1:]
        for xb, nb in IB:
            k = xa + xb
            acc[k] = get(k, 0) + na * nb
    den = da * db
    out = []
    for k in sorted(acc, reverse=True):
        n = acc[k]
        if n:
            x0 = k + M >> b
            e = (rat(x0, d0), rat(k - (x0 << b), d1)) if two else (rat(x0, d0),)
            out.append((e, rat(n, den)))
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


def terms_split_const(A):
    """A as (its terms above exponent zero, the coefficient at exponent zero).

    For a series with nonnegative exponents, as every element is, exponent
    zero is the least one, so the constant term is the last term if any.
    """
    if A and exp_is_zero(A[-1][0]):
        return A[:-1], A[-1][1]
    return A, (0, 1)


def terms_split_level(A, lvl):
    """A as (its terms with a nonzero among the first lvl exponent
    components, the rest).

    For a series with nonnegative exponents, as every element is, the terms
    of the first kind come first, so the split is at one index.
    """
    zero = ((0, 1),) * lvl
    for i, (e, _) in enumerate(A):
        if e[:lvl] == zero:
            return A[:i], A[i:]
    return A, ()


def terms_sign(A):
    if not A:
        return 0
    return 1 if A[0][1][0] > 0 else -1
