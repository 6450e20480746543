"""Symbolic linear combinations sum c_p * log p over primes, with exact coefficients.

Coefficients are rational or real quadratic.  A rational one is stored as
an int, or a Fraction when it has a denominator; a Quad only when it has a
surd, so a rational Quad becomes its rational part.  Logarithms of distinct
primes are linearly independent over the algebraic numbers (Baker), so such a
combination is zero exactly when every coefficient is zero; that makes
equality decidable and sign evaluation terminating.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from mpmath import mp

from .errors import IndistinguishableModuliError
from .precision import default_precision, log_enclosure
from .quadratic import Quad

# Precision ladder for sign decisions; a genuinely nonzero combination of prime
# logarithms separates from 0 long before this runs out.
_SIGN_PRECISIONS = (128, 256, 512, 1024, 2048)

# A rational form whose cleared exponents e_p have sum |e_p| * bitlen(p) up to
# this many bits is decided by comparing prod p^e_p+ with prod p^e_p- as
# integers, which is exact and cheaper than any enclosure; larger forms go up
# the ladder.
_EXACT_BITS = 1 << 16


def _coefficient(c):
    """c as stored: a Quad only when it has a surd, else an int or a Fraction."""
    if isinstance(c, Quad):
        if not c.is_rational:
            return c
        c = c.rational_value()
    if type(c) is not int:
        c = Fraction(c)
        c = c.numerator if c.denominator == 1 else c
    return c


@lru_cache(maxsize=1024)
def _prime_log_enclosure(p: int, prec: int) -> tuple[Fraction, Fraction]:
    return log_enclosure(Fraction(p), prec)


def _enclosure(coeffs, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational interval for sum c * log p over coeffs = {p: c}."""
    lo = Fraction(0)
    hi = Fraction(0)
    for p, c in coeffs.items():
        clo, chi = c.enclosure(prec) if isinstance(c, Quad) else (c, c)
        llo, lhi = _prime_log_enclosure(p, prec)
        # log p > 0, so only the coefficient's sign matters for orientation
        products = (clo * llo, clo * lhi, chi * llo, chi * lhi)
        lo += min(products)
        hi += max(products)
    return lo, hi


def _power_ratio(exps):
    """(prod p^e over e > 0, prod p^-e over e < 0) for integer exponents {p: e}.

    None when an exponent is not an int or sum |e| * bitlen(p) exceeds
    _EXACT_BITS; sum e * log p then has the sign of the first minus the second.
    """
    pos = neg = 1
    bits = 0
    for p, e in exps.items():
        if type(e) is not int:
            return None
        bits += abs(e) * p.bit_length()
        if bits > _EXACT_BITS:
            return None
        if e > 0:
            pos *= p**e
        elif e:
            neg *= p**-e
    return pos, neg


def _form_sign(coeffs) -> int:
    """Exact sign of sum c * log p over coeffs = {p: c}, c an int, Fraction or Quad.

    0 only when every coefficient is zero.  A rational form, Quads with b == 0
    included, is scaled to integer exponents and decided by _power_ratio while
    they stay within _EXACT_BITS; otherwise, and for quadratic coefficients,
    the enclosure is tightened up the precision ladder until it excludes zero.
    """
    coeffs = {p: _coefficient(c) for p, c in coeffs.items()}
    if not any(isinstance(c, Quad) for c in coeffs.values()):
        den = lcm(*(c.denominator for c in coeffs.values()))
        ratio = _power_ratio({p: c.numerator * (den // c.denominator) for p, c in coeffs.items()})
        if ratio is not None:
            return (ratio[0] > ratio[1]) - (ratio[0] < ratio[1])
    for prec in _SIGN_PRECISIONS:
        lo, hi = _enclosure(coeffs, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise IndistinguishableModuliError(
        "sign of log-linear form did not separate from zero", [_enclosure(coeffs, _SIGN_PRECISIONS[-1])]
    )


def max_with_zero(forms):
    """The largest of the forms {p: c} (sum c * log p) and the empty zero form.

    Decided exactly; on a tie the earlier form is kept.  Two integer forms
    within _EXACT_BITS are compared through their power ratios, any other
    pair through the sign of their difference.
    """
    best, best_ratio = {}, (1, 1)
    for form in forms:
        ratio = _power_ratio(form)
        if ratio is not None and best_ratio is not None:
            wins = ratio[0] * best_ratio[1] > best_ratio[0] * ratio[1]
        else:
            diff = dict(form)
            for p, c in best.items():
                diff[p] = diff.get(p, 0) - c
            wins = _form_sign(diff) > 0
        if wins:
            best, best_ratio = form, ratio
    return best


class LogLinear:
    """Immutable sum of c_p * log p; the empty sum is exact zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for p, c in (coeffs or {}).items():
            c = _coefficient(c)
            if c:  # a stored Quad has a surd, so it is never zero
                clean[int(p)] = c
        self.coeffs = dict(sorted(clean.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return LogLinear(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return LogLinear({p: c * factor for p, c in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, LogLinear) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def enclosure(self, prec=None) -> tuple[Fraction, Fraction]:
        """Rigorous rational interval for the value."""
        return _enclosure(self.coeffs, prec or default_precision())

    def evaluate(self, prec=None):
        """mpf value at the given binary precision."""
        prec = prec or default_precision()
        with mp.workprec(prec):
            total = mp.mpf(0)
            for p, c in self.coeffs.items():
                value = c.to_mpf(prec) if isinstance(c, Quad) else mp.mpf(c.numerator) / mp.mpf(c.denominator)
                total += value * mp.log(p)
            return total

    def sign(self) -> int:
        """Exact sign; 0 only for the identically zero form."""
        return _form_sign(self.coeffs)

    def compare(self, other) -> int:
        return (self - other).sign()

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for p, c in self.coeffs.items():
            cs = str(c)
            if cs == "1":
                parts.append(f"log {p}")
            elif cs == "-1":
                parts.append(f"-log {p}")
            elif not isinstance(c, Quad) or cs.startswith("("):
                parts.append(f"{cs}*log {p}")
            else:
                parts.append(f"({cs})*log {p}")
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    def __repr__(self):
        return f"LogLinear({self.coeffs!r})"
