"""Symbolic linear combinations sum c_p * log p over primes, with exact coefficients.

Coefficients are rational or real quadratic.  A rational one is stored as
an int, or a Fraction when it has a denominator; a Quad only when it has a
surd, so a rational Quad becomes its rational part.  Logarithms of distinct
primes are linearly independent over the algebraic numbers (Baker), so such a
combination is zero exactly when every coefficient is zero; that makes
equality decidable and sign evaluation terminating.

Enclosures run on integers.  Each prime's log bounds are read once per
precision as numerators over 2^k, a surd coefficient's bounds come from
Quad.bounds, the sign of each coefficient bound picks the log bound it
multiplies, and the terms are summed over one common denominator, so only
the two ends of the interval become Fractions.  The module imports no
mpmath, so no step reads the ambient precision; enclosure(prec) is the one
way a form becomes a number.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import BudgetError, InputError
from .precision import log_enclosure
from .quadratic import Quad

# Precision ladder for sign decisions; a genuinely nonzero combination of prime
# logarithms separates from 0 long before this runs out, but no bound on how
# close to 0 one with quadratic coefficients comes is applied, so running out
# is a BudgetError.
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
def _prime_log_bounds(p: int, prec: int) -> tuple[int, int, int]:
    """log_enclosure(p, prec) on integers: (lo, hi, k) with lo / 2^k <= log p <= hi / 2^k.

    Both bounds are dyadic, so k is read off the larger denominator.
    """
    lo, hi = log_enclosure(Fraction(p), prec)
    den = max(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den.bit_length() - 1


def _enclosure(coeffs, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational interval for sum c * log p over coeffs = {p: c}.

    On integers: each coefficient is bounded by numerators over a denominator
    (Quad.bounds for a surd) and log p by numerators over 2^k.  As log p > 0,
    a bound c >= 0 takes the lower log bound at the lower end and c < 0 the
    upper one (and the other way round at the upper end).  The terms are added
    over lcm(coefficient denominators) * 2^kmax and each end becomes one
    Fraction.  For prec > PAD_BITS the lower log bound is positive and this is
    the same exact rational as the interval product term by term; below, it
    is a narrower interval that still holds the value.
    """
    terms = []
    den = 1
    kmax = 0
    for p, c in coeffs.items():
        if isinstance(c, Quad):
            clo, chi, cden = c.bounds(prec)
        else:
            clo = chi = c.numerator
            cden = c.denominator
        llo, lhi, k = _prime_log_bounds(p, prec)
        terms.append((clo * (llo if clo >= 0 else lhi), chi * (lhi if chi >= 0 else llo), cden, k))
        den = lcm(den, cden)
        kmax = max(kmax, k)
    lo = hi = 0
    for tlo, thi, cden, k in terms:
        scale = (den // cden) << (kmax - k)
        lo += tlo * scale
        hi += thi * scale
    den <<= kmax
    return Fraction(lo, den), Fraction(hi, den)


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
    they stay within _EXACT_BITS; a tie there on nonzero coefficients can
    only come from a non-prime base and raises InputError.  Otherwise, and
    for quadratic coefficients, the enclosure is tightened up the precision
    ladder until it excludes zero, and BudgetError carries the last enclosure
    when the ladder runs out.
    """
    coeffs = {p: _coefficient(c) for p, c in coeffs.items()}
    if not any(isinstance(c, Quad) for c in coeffs.values()):
        den = lcm(*(c.denominator for c in coeffs.values()))
        ratio = _power_ratio({p: c.numerator * (den // c.denominator) for p, c in coeffs.items()})
        if ratio is not None:
            if ratio[0] == ratio[1] and any(coeffs.values()):
                raise InputError("a log form with a zero value but nonzero coefficients has a non-prime base")
            return (ratio[0] > ratio[1]) - (ratio[0] < ratio[1])
    for prec in _SIGN_PRECISIONS:
        lo, hi = _enclosure(coeffs, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise BudgetError("sign of log-linear form did not separate from zero", partial=[(lo, hi)])


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

    def enclosure(self, prec) -> tuple[Fraction, Fraction]:
        """Rigorous rational interval for the value."""
        return _enclosure(self.coeffs, prec)

    def sign(self) -> int:
        """Exact sign; 0 only for the identically zero form."""
        return _form_sign(self.coeffs)

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
