"""Exception hierarchy; `cli.run` maps InputError, UnsupportedError and
BudgetError to exit codes 2, 3 and 4.

Certified comparisons and square roots work out their last precision from
their inputs (Mahler's root-separation bound), so they never give up; failing
there is an ArithmeticError, an internal self-check that surfaces.  A loop
with no proof that it ends (the root-disc precision, the sign ladder of
log-linear forms, the Baker ceiling, the power iteration of a limit matrix
of degree >= 3) raises BudgetError with its last enclosures, or its last
scaled power, in partial.
"""


class MonoheightError(Exception):
    """Base class for all package errors."""


class InputError(MonoheightError):
    """Malformed or out-of-domain input (zero coordinate, singular matrix, ...)."""


class UnsupportedError(MonoheightError):
    """Input is valid but outside the exact-arithmetic scope of the package."""


class BudgetError(MonoheightError):
    """A word, bit-size, iteration or precision budget was exhausted; partial
    holds what was computed before it ran out, such as the last enclosures."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
