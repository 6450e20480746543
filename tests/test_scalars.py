"""Multiplicative heights of algebraic scalars, against minimal-polynomial oracles.

The naive height H (max absolute coefficient of the minimal polynomial over Z)
and the Mahler measure are computed here from sympy's minimal polynomial, as
oracles independent of the library.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from monoheight import InputError, Quad, h_mult_log_enclosure, mp
from monoheight.precision import fraction_to_mpf, log_enclosure

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = Quad(0, 1, 5)
PREC = 96
_X = sympy.Symbol("x")


def minimal_polynomial(x: Quad) -> tuple:
    """Ascending integer coefficients of the primitive minimal polynomial over Z."""
    expr = sympy.Rational(x.a.numerator, x.a.denominator)
    if x.b:
        expr += sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.d)
    return tuple(int(c) for c in reversed(sympy.minimal_polynomial(expr, _X, polys=True).all_coeffs()))


def oracle_log_h_mult(coeffs):
    """log of M(f)^(1/deg f), M the Mahler measure, from numerical roots at 300 bits."""
    with mp.workprec(300):
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=300)
        measure = abs(mp.mpf(coeffs[-1]))
        for r in roots:
            measure *= max(1, abs(r))
        return mp.log(measure) / (len(coeffs) - 1)


def check_height_data(x) -> None:
    """The enclosure holds log H_mult, and H <= (2 H_mult)^degree is proven by it.

    The inequality is decided on rigorous ends: an upper bound for log H
    against degree * (lower bound for log 2 + lower end of the enclosure).
    """
    x = x if isinstance(x, Quad) else Quad(x)
    coeffs = minimal_polynomial(x)
    degree = len(coeffs) - 1
    lo, hi = h_mult_log_enclosure(x, PREC)
    with mp.workprec(300):
        value = oracle_log_h_mult(coeffs)
        assert fraction_to_mpf(lo, 300) <= value <= fraction_to_mpf(hi, 300)
    H = max(abs(c) for c in coeffs)
    assert log_enclosure(Fraction(H), PREC)[1] <= degree * (log_enclosure(Fraction(2), PREC)[0] + lo)


def test_minimal_polynomials():
    assert minimal_polynomial(Quad(Fraction(2, 3))) == (-2, 3)
    assert minimal_polynomial(SQRT5) == (-5, 0, 1)
    assert minimal_polynomial(PHI) == (-1, -1, 1)
    assert minimal_polynomial(Quad(Fraction(-1, 2), Fraction(1, 2), 5)) == (-1, 1, 1)


def test_rational_heights():
    # H_mult(p/q) = max(|p|, q)
    assert h_mult_log_enclosure(Fraction(2, 3), PREC) == log_enclosure(Fraction(3), PREC)
    assert h_mult_log_enclosure(Fraction(-7, 2), PREC) == log_enclosure(Fraction(7), PREC)
    assert h_mult_log_enclosure(Quad(Fraction(-7, 2)), PREC) == log_enclosure(Fraction(7), PREC)
    assert h_mult_log_enclosure(Fraction(1), PREC) == (0, 0)


def test_sqrt5_heights():
    # Mahler measure of x^2-5 is 5; H_mult = 5^(1/2)
    lo, hi = h_mult_log_enclosure(SQRT5, PREC)
    with mp.workprec(200):
        assert mp.exp(2 * fraction_to_mpf(lo, 200)) < 5 < mp.exp(2 * fraction_to_mpf(hi, 200))


def test_golden_ratio_height_is_root_of_measure():
    # minpoly x^2-x-1 has Mahler measure phi (one root outside the unit circle),
    # so H_mult(phi) = phi^(1/2)
    lo, hi = h_mult_log_enclosure(PHI, PREC)
    with mp.workprec(96):
        assert abs(fraction_to_mpf((lo + hi) / 2, 96) - mp.log(PHI.to_mpf(96)) / 2) < mp.mpf(2) ** -80


def test_conjugate_pair_heights_match():
    # conjugates share a minimal polynomial, and 1/x has the reversed one
    for x in (Quad(Fraction(-1, 2), Fraction(1, 2), 5), PHI, Quad(Fraction(3), Fraction(-2), 2)):
        assert h_mult_log_enclosure(x, PREC) == h_mult_log_enclosure(x.conjugate(), PREC)
        assert h_mult_log_enclosure(x, PREC) == h_mult_log_enclosure(x.inverse(), PREC)


def test_height_inequality_examples():
    for x in (Fraction(2, 3), Fraction(-100), Fraction(1, 17)):
        check_height_data(x)
    for q in (PHI, SQRT5, Quad(Fraction(3), Fraction(-2), 2)):
        check_height_data(q)


def test_zero_rejected():
    with pytest.raises(InputError):
        h_mult_log_enclosure(Fraction(0), PREC)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(lambda q: q != 0))
def test_height_inequality_random_rationals(q):
    # H <= (2 H_mult)^degree on rationals
    check_height_data(q)


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.fractions(min_value=-6, max_value=6, max_denominator=8).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5, 7]),
)
def test_height_inequality_random_quads(a, b, d):
    check_height_data(Quad(a, b, d))
