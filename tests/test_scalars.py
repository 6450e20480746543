"""Heights of algebraic scalars: naive H and multiplicative H_mult."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monoheight import InputError, Quad, mp, scalar_heights
from monoheight.precision import fraction_to_mpf
from monoheight.scalars import minimal_polynomial

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = Quad(0, 1, 5)


def height_inequality_holds(s) -> bool:
    """H <= (2 H_mult)^degree, compared exactly as H <= 2^degree * mult_base^(degree/mult_root)."""
    if s.mult_root == 1:
        return s.H <= (2 * Fraction(s.mult_base)) ** s.degree
    # mult_root == 2 and degree == 2: (2 M^(1/2))^2 = 4 M
    rhs = 4 * s.mult_base
    if isinstance(rhs, Quad):
        return (rhs - Quad(s.H)).sign() >= 0
    return s.H <= rhs


def test_minimal_polynomials():
    assert minimal_polynomial(Quad(Fraction(2, 3))).coeffs == (-2, 3)
    assert minimal_polynomial(SQRT5).coeffs == (-5, 0, 1)
    assert minimal_polynomial(PHI).coeffs == (-1, -1, 1)
    assert minimal_polynomial(Quad(Fraction(-1, 2), Fraction(1, 2), 5)).coeffs == (-1, 1, 1)


def test_rational_heights():
    s = scalar_heights(Fraction(2, 3))
    assert s.H == 3
    assert s.mult_base == Fraction(3) and s.mult_root == 1
    s = scalar_heights(Fraction(-7, 2))
    assert s.H == 7
    assert s.mult_base == Fraction(7)
    s = scalar_heights(Fraction(1))
    assert s.H == 1 and s.mult_base == Fraction(1)


def test_sqrt5_heights():
    s = scalar_heights(SQRT5)
    assert s.H == 5
    # Mahler measure of x^2-5 is 5; H_mult = 5^(1/2)
    assert s.mult_base == Fraction(5) and s.mult_root == 2
    lo, hi = s.h_mult_log_enclosure(96)
    with mp.workprec(200):
        assert mp.exp(2 * fraction_to_mpf(lo, 200)) < 5 < mp.exp(2 * fraction_to_mpf(hi, 200))


def test_golden_ratio_height_is_root_of_measure():
    # minpoly x^2-x-1 has Mahler measure phi (one root outside the unit circle),
    # so H_mult(phi) = phi^(1/2); H = max |coefficient| = 1
    s = scalar_heights(PHI)
    assert s.H == 1
    assert s.mult_base == PHI and s.mult_root == 2
    lo, hi = s.h_mult_log_enclosure(96)
    with mp.workprec(96):
        assert abs(fraction_to_mpf((lo + hi) / 2, 96) - mp.log(PHI.to_mpf(96)) / 2) < mp.mpf(2) ** -80


def test_conjugate_pair_heights_match():
    a = scalar_heights(Quad(Fraction(-1, 2), Fraction(1, 2), 5))
    b = scalar_heights(Quad(Fraction(-1, 2), Fraction(-1, 2), 5))
    assert a.H == b.H
    assert a.mult_base == b.mult_base and a.mult_root == b.mult_root


def test_height_inequality_examples():
    for x in (Fraction(2, 3), Fraction(-100), Fraction(1, 17)):
        assert height_inequality_holds(scalar_heights(x))
    for q in (PHI, SQRT5, Quad(Fraction(3), Fraction(-2), 2)):
        assert height_inequality_holds(scalar_heights(q))


def test_zero_rejected():
    with pytest.raises(InputError):
        scalar_heights(Fraction(0))


@given(st.fractions(min_value=-50, max_value=50, max_denominator=40).filter(lambda q: q != 0))
def test_height_inequality_random_rationals(q):
    # H <= (2 H_mult)^degree on rationals
    assert height_inequality_holds(scalar_heights(q))


@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.fractions(min_value=-6, max_value=6, max_denominator=8).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5, 7]),
)
def test_height_inequality_random_quads(a, b, d):
    assert height_inequality_holds(scalar_heights(Quad(a, b, d)))
