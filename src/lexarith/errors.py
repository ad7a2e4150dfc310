"""Error types shared across the package, and the CLI's one failure rule.

Each lexarith error type carries its exit code as the class attribute
``exit_code``, and the CLI reports it as
``{"error": <type name>, "detail": ...}``:

- 2: usage, input and precondition errors (the base class's code),
  including :class:`ResourceLimit`, an input larger than the package does
  work for (its docstring lists the limits);
- 3: model partiality (:class:`NonTerminatingQuotient`,
  :class:`CoefficientNotRepresentable`);
- 1: a negative result where a command promises a positive
  (:class:`NotEquivalent`, :class:`CannotProve`, :class:`ValidationFailure`).

An ``OSError`` is ``"io"`` with exit 2.  Any other exception is a bug and is
``"internal"`` with exit 4, never partiality and never a usage error; a
closed form that fails its own exact check raises a plain
``AssertionError`` for this reason.
"""


class LexarithError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class InvariantViolation(LexarithError, ValueError):
    """A value breaks the model invariants, or a precondition was violated."""


class ParseError(LexarithError, ValueError):
    """Element text did not parse; carries position and expectation."""

    def __init__(self, position: int, expected: str, found: str = ""):
        self.position = position
        self.expected = expected
        self.found = found
        detail = f"at position {position}: expected {expected}"
        if found:
            detail += f", found {found!r}"
        super().__init__(detail)


class Underflow(LexarithError, ArithmeticError):
    """Subtraction would leave the nonnegative part of the model."""


class ResourceLimit(LexarithError):
    """An input is larger than the package does work for, refused as soon
    as its size is known.  The limits, each constant named:

    - before the work starts: a term budget above 1024
      (``MAX_DIV_BUDGET``), a sequence count above 1024, a power that needs
      a coefficient of more than 2**20 bits (``MAX_POW_BITS``), a dim-1
      root expansion of more than 64 steps (``MAX_ROOT_STEPS``), a suite
      run of more than 10,000 samples (``suites.MAX_SAMPLES``);
    - before the kernel's double loop, for every multiply of two series
      (``arith mul``, ``divmod``, ``pow`` and ``root``, a witness check, an
      automorphism): more than 2**16 term products
      (``MAX_MUL_PRODUCTS``), or, when both factors have more than one term,
      more than 7*10**7 word products, term products times the 64-bit words
      of the widest int each factor is scaled to: a coefficient over the
      lcm of its factor's denominators, or an exponent packed into one int
      key over the lcm of each component's denominators
      (``MAX_MUL_WORDS``);
    - at the step that passes the ceiling: a dim-1 quotient of more than
      1024 terms; a quotient whose steps, shifts of the divisor by one
      term, take more than ``MAX_MUL_WORDS`` word products in all; a power
      of more than 1024 terms; a root expansion (``arith root``,
      ``seq b11``) with a series of more than 1024 terms;
    - when it is printed: a rational longer than the parser reads, or an
      integer of a document (a witness, a descriptor) longer than ``str``
      converts.

    A refused precondition on input size, like a term budget below 1, so
    exit 2: the model is not partial there, and a smaller input gets an
    answer.
    """


class NonTerminatingQuotient(LexarithError, ArithmeticError):
    """A quotient or root expansion exceeded the term budget.

    Can only happen for dim 2, where lexicographic exponents admit
    expansions with unboundedly many nonnegative-exponent terms.
    """

    exit_code = 3


class CoefficientNotRepresentable(LexarithError, ArithmeticError):
    """A root-floor needs an irrational leading coefficient."""

    exit_code = 3


class StandardInput(LexarithError, ValueError):
    """An equivalence operation received a standard (finite) element.

    Raised only by :func:`lexarith.oracle.require_pair`, the one rule for
    the pairs the levels are defined on; a pair of two dimensions is an
    InvariantViolation there."""


class NotEquivalent(LexarithError, ValueError):
    """Witness requested for a pair that is not equivalent at the level."""

    exit_code = 1


class NotE2Equivalent(NotEquivalent):
    pass


class NotE3Equivalent(NotEquivalent):
    pass


class NotE4Equivalent(NotEquivalent):
    pass


class CannotProve(LexarithError):
    """The sound orbit-equivalence prover has no route; not a refutation."""

    exit_code = 1


class ValidationFailure(LexarithError):
    """An automorphism descriptor failed a probe check."""

    exit_code = 1

    def __init__(self, check: str, detail: str, probe=None, other=None):
        self.check = check
        self.probe = probe
        self.other = other
        super().__init__(f"{check}: {detail}")
