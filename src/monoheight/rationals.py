"""Exact rational arithmetic: factorizations, parsing, log-scale scalars.

A factorization is kept as exact integer exponents per prime.
"""

from fractions import Fraction

import sympy
from mpmath import mp

from .errors import InputError

Rat = Fraction


def factor_rational(x: Rat) -> dict[int, int]:
    """Signed prime factorization of a nonzero rational, sign discarded.

    Returns {p: e_p} with x = sign(x) * prod p^e_p exactly and every e_p nonzero.

    Examples
    ========
    >>> factor_rational(Fraction(12, 5))
    {2: 2, 3: 1, 5: -1}
    >>> factor_rational(Fraction(1))
    {}
    """
    if x == 0:
        raise InputError("cannot factor zero")
    out: dict[int, int] = {}
    for p, e in sympy.factorint(x.numerator).items():
        if p > 0:
            out[p] = out.get(p, 0) + e
    for p, e in sympy.factorint(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return dict(sorted((p, e) for p, e in out.items() if e != 0))


def parse_rational(text: str) -> Rat:
    """Parse "p" or "p/q" (ASCII, no whitespace) into an exact rational."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc
    return value


class NegLogScalar:
    """A positive real x <= 1 stored as -log x, for magnitudes far below float range.

    Products add neg_logs; order is reversed: x < y iff neg_log(x) > neg_log(y).
    """

    __slots__ = ("neg_log",)

    def __init__(self, neg_log):
        neg_log = mp.mpf(neg_log)
        if neg_log < 0:
            raise InputError("NegLogScalar requires neg_log >= 0 (value <= 1)")
        self.neg_log = neg_log

    def __mul__(self, other):
        return NegLogScalar(self.neg_log + other.neg_log)

    def __lt__(self, other):
        return self.neg_log > other.neg_log

    def __le__(self, other):
        return self.neg_log >= other.neg_log

    def __eq__(self, other):
        return isinstance(other, NegLogScalar) and self.neg_log == other.neg_log

    def __hash__(self):
        return hash(("neglog", str(self.neg_log)))

    def log10_neg_log(self):
        """log10 of -log x; the scale on which these constants are comparable."""
        if self.neg_log == 0:
            return mp.mpf("-inf")
        return mp.log(self.neg_log) / mp.log(10)

    def __repr__(self):
        return f"NegLogScalar(neg_log={mp.nstr(self.neg_log, 10)})"
