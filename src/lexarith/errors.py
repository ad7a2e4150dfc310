"""Error types shared across the package.

The CLI maps these onto its exit-code contract: input/precondition problems
exit 2, negative results where a command promises a positive exit 1, and
model-partiality errors exit 3.  A closed form that fails its own exact
check raises a plain ``AssertionError``: an internal error (exit 4), never
partiality.
"""


class LexarithError(Exception):
    """Base class for all package errors."""


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


class NonTerminatingQuotient(LexarithError, ArithmeticError):
    """A quotient or root expansion exceeded the term budget.

    Can only happen for dim 2, where lexicographic exponents admit
    expansions with unboundedly many nonnegative-exponent terms.
    """


class CoefficientNotRepresentable(LexarithError, ArithmeticError):
    """A root-floor needs an irrational leading coefficient."""


class StandardInput(LexarithError, ValueError):
    """An equivalence operation received a standard (finite) element."""


class NotEquivalent(LexarithError, ValueError):
    """Witness requested for a pair that is not equivalent at the level."""


class NotE2Equivalent(NotEquivalent):
    pass


class NotE3Equivalent(NotEquivalent):
    pass


class NotE4Equivalent(NotEquivalent):
    pass


class CannotProve(LexarithError):
    """The sound orbit-equivalence prover has no route; not a refutation."""


class ValidationFailure(LexarithError, AssertionError):
    """An automorphism descriptor failed a probe check."""

    def __init__(self, check: str, detail: str, probe=None, other=None):
        self.check = check
        self.probe = probe
        self.other = other
        super().__init__(f"{check}: {detail}")
