"""Heights of rational and real quadratic scalars.

H(x) is the max absolute coefficient of the minimal polynomial over Z.  The
multiplicative Weil height H_mult(x) is the Mahler measure of the minimal
polynomial to the power 1/degree; for degree <= 2 both are exact, H_mult as a
rational or the square root of an explicit rational/quadratic value.

References
==========
Mahler measure M(f) = |lc(f)| * prod max(1, |root|); for a reduced rational
p/q this gives H_mult = max(|p|, q), and H_mult(1/x) = H_mult(x) because the
reversed polynomial has the same measure.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError
from .polys import IntPoly
from .precision import default_precision, log_enclosure
from .quadratic import Quad


def minimal_polynomial(x: Quad) -> IntPoly:
    """Minimal polynomial over Z, primitive with positive leading coefficient."""
    if x.is_rational:
        q = x.rational_value()
        return IntPoly((-q.numerator, q.denominator))
    # X^2 - trace X + norm, cleared to integers
    tr = x.trace()
    nm = x.norm()
    den = lcm(tr.denominator, nm.denominator)
    return IntPoly((nm.numerator * (den // nm.denominator),
                    -tr.numerator * (den // tr.denominator),
                    den)).primitive()


@dataclass(frozen=True)
class AlgebraicScalar:
    """A scalar with its exact height data attached."""

    value: Quad
    minpoly: IntPoly
    H: int
    # H_mult = mult_base ** (1/mult_root); mult_base is Fraction or Quad
    mult_base: object
    mult_root: int

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def h_mult_log_enclosure(self, prec=None):
        """Rigorous enclosure of log H_mult."""
        prec = prec or default_precision()
        base = self.mult_base
        if isinstance(base, Quad):
            blo, bhi = base.enclosure(prec)
        else:
            blo = bhi = Fraction(base)
        lo = log_enclosure(blo, prec)[0] if blo > 0 else Fraction(0)
        hi = log_enclosure(bhi, prec)[1]
        return lo / self.mult_root, hi / self.mult_root


def scalar_heights(x) -> AlgebraicScalar:
    """H and H_mult of a nonzero rational or real quadratic scalar.

    Examples
    ========
    >>> scalar_heights(Fraction(2, 3)).H
    3
    """
    x = x if isinstance(x, Quad) else Quad(Fraction(x))
    if x == Quad(0):
        raise InputError("heights of zero are not defined here")
    mp = minimal_polynomial(x)
    H = max(abs(c) for c in mp.coeffs)
    if x.is_rational:
        q = x.rational_value()
        base = Fraction(max(abs(q.numerator), q.denominator))
        return AlgebraicScalar(x, mp, H, base, 1)
    # real quadratic: Mahler measure |c2| * max(1,|x|) * max(1,|conj|)
    conj = x.conjugate()
    ax, ac = abs(x), abs(conj)
    c2 = abs(mp.coeffs[2])
    c0 = abs(mp.coeffs[0])
    one = Quad(1)
    x_big = (ax - one).sign() > 0
    c_big = (ac - one).sign() > 0
    if x_big and c_big:
        measure = Fraction(c0)
    elif not x_big and not c_big:
        measure = Fraction(c2)
    else:
        big = ax if x_big else ac
        measure = Quad(c2) * big
    return AlgebraicScalar(x, mp, H, measure, 2)
