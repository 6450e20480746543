"""Exception hierarchy; `cli.run` maps InputError, UnsupportedError and
BudgetError to exit codes 2, 3 and 4."""


class MonoheightError(Exception):
    """Base class for all package errors."""


class InputError(MonoheightError):
    """Malformed or out-of-domain input (zero coordinate, singular matrix, ...)."""


class UnsupportedError(MonoheightError):
    """Input is valid but outside the exact-arithmetic scope of the package."""


class IndistinguishableModuliError(UnsupportedError):
    """Eigenvalue moduli could not be separated within the refinement budget.

    Carries the offending enclosures so callers can report them.
    """

    def __init__(self, message, enclosures=None):
        super().__init__(message)
        self.enclosures = enclosures or []


class BudgetError(MonoheightError):
    """A word, bit-size, or iteration budget was exhausted."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
