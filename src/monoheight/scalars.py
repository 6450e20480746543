"""Multiplicative heights of rational and real quadratic scalars.

H_mult(x) is the Mahler measure of the minimal polynomial of x over Z to the
power 1/degree.  For degree <= 2 the measure is exact, a rational or an
explicit quadratic value, so log H_mult has a rigorous enclosure.

References
==========
Mahler measure M(f) = |lc(f)| * prod max(1, |root|); for a reduced rational
p/q this gives H_mult = max(|p|, q), and H_mult(1/x) = H_mult(x) because the
reversed polynomial has the same measure.
"""

from fractions import Fraction

from .errors import InputError
from .precision import log_enclosure
from .quadratic import Quad


def h_mult_log_enclosure(x, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure of log H_mult(x) for a nonzero rational or Quad x.

    Examples
    ========
    >>> h_mult_log_enclosure(Fraction(2, 3), 64) == log_enclosure(Fraction(3), 64)
    True
    """
    x = x if isinstance(x, Quad) else Quad(Fraction(x))
    if not x:
        raise InputError("heights of zero are not defined here")
    if x.is_rational:
        q = x.rational_value()
        return log_enclosure(Fraction(max(abs(q.numerator), q.denominator)), prec)
    # Mahler measure c2 * max(1, |x|) * max(1, |conjugate|) of the minimal
    # polynomial c2 X^2 + c1 X + c0
    c0, _, c2 = x.minimal_poly().coeffs
    big = [v for v in (abs(x), abs(x.conjugate())) if v > 1]
    if len(big) == 2:
        measure = Fraction(abs(c0))
    elif not big:
        measure = Fraction(c2)
    else:
        measure = Quad(c2) * big[0]
    blo, bhi = measure.enclosure(prec) if isinstance(measure, Quad) else (measure, measure)
    lo = log_enclosure(blo, prec)[0] if blo > 0 else Fraction(0)
    return lo / 2, log_enclosure(bhi, prec)[1] / 2
