"""Integer polynomials: arithmetic, Sturm counts, cyclotomic detection."""

from fractions import Fraction

import pytest
import sympy

from monoheight import InputError, IntPoly, poly_str
from monoheight.polys import (
    cyclotomic_index,
    root_bound,
    squarefree_part,
    sturm_chain,
    sturm_count,
)

X2_X_1 = IntPoly([-1, -1, 1])  # x^2 - x - 1


def test_construction_and_eval():
    p = IntPoly([-1, -1, 1])
    assert p.degree == 2
    assert p.lc == 1
    assert p(Fraction(2)) == 1
    assert p(Fraction(1, 2)) == Fraction(-5, 4)
    with pytest.raises(InputError):
        IntPoly([])


def test_poly_str():
    assert poly_str(X2_X_1.coeffs) == "x^2-x-1"
    assert poly_str(IntPoly([2]).coeffs) == "2"
    assert poly_str(IntPoly([0, 1]).coeffs) == "x"
    assert poly_str(IntPoly([1, 0, 2]).coeffs) == "2*x^2+1"
    assert poly_str(IntPoly([-3, 2]).coeffs) == "2*x-3"


def test_poly_str_fraction_coefficients():
    # the strings system reports print for polynomial-family certificates
    F = Fraction
    assert poly_str((F(-1, 2), F(2))) == "2*x-1/2"
    assert poly_str((F(3, 2), F(0), F(-1))) == "-x^2+3/2"
    assert poly_str((F(0), F(-3, 2))) == "-3/2*x"
    assert poly_str((F(1), F(1, 3), F(0), F(-7, 4))) == "-7/4*x^3+1/3*x+1"
    assert poly_str((F(-1), F(-1), F(1))) == "x^2-x-1"
    assert poly_str((F(5),)) == "5"
    assert poly_str((F(0), F(0))) == "0"


def test_derivative_content_primitive():
    p = IntPoly([4, 0, 6])
    assert p.derivative() == IntPoly([0, 12])
    assert p.content() == 2
    assert p.primitive() == IntPoly([2, 0, 3])


def test_squarefree():
    p = IntPoly([1, 2, -1, -2, 1])  # (x^2 - x - 1)^2
    assert squarefree_part(p) == X2_X_1
    assert squarefree_part(X2_X_1) == X2_X_1


def test_sturm_counts():
    # x^2 - x - 1 has two real roots: phi in (1,2) and -1/phi in (-1,0)
    chain = sturm_chain(X2_X_1)
    assert sturm_count(X2_X_1, Fraction(-10), Fraction(10), chain) == 2
    assert sturm_count(X2_X_1, Fraction(1), Fraction(2), chain) == 1
    assert sturm_count(X2_X_1, Fraction(-1), Fraction(0), chain) == 1
    assert sturm_count(X2_X_1, Fraction(2), Fraction(10), chain) == 0
    # x^2 + 1 has no real roots
    assert sturm_count(IntPoly([1, 0, 1]), Fraction(-10), Fraction(10)) == 0


def test_sturm_count_on_a_linear_polynomial():
    # the derivative is a constant, so the chain ends after two entries
    p = IntPoly([-2, 1])  # x - 2
    assert sturm_chain(p) == [[-2, 1], [1]]
    assert sturm_count(p, Fraction(0), Fraction(3)) == 1
    assert sturm_count(p, Fraction(0), Fraction(2)) == 1  # (a, b] holds b
    assert sturm_count(p, Fraction(2), Fraction(3)) == 0


def test_root_bound():
    b = root_bound(X2_X_1)
    assert b >= Fraction(1618, 1000)
    assert root_bound(IntPoly([100, 0, 1])) >= 10


def test_cyclotomic_index():
    assert cyclotomic_index(IntPoly([-1, 1])) == 1  # x - 1
    assert cyclotomic_index(IntPoly([1, 1])) == 2  # x + 1
    assert cyclotomic_index(IntPoly([1, 1, 1])) == 3
    assert cyclotomic_index(IntPoly([1, 0, 1])) == 4  # x^2 + 1
    assert cyclotomic_index(IntPoly([1, -1, 1])) == 6
    assert cyclotomic_index(X2_X_1) is None
    assert cyclotomic_index(IntPoly([-2, 1])) is None  # x - 2


def _cyclotomic_index_by_sympy(p):
    """The m with p = the m-th cyclotomic polynomial, by comparing p with
    every cyclotomic polynomial of its degree in the search range."""
    x = sympy.Symbol("x")
    for m in range(1, 2 * p.degree**2 + 7):
        if sympy.totient(m) == p.degree and IntPoly.from_sympy(sympy.cyclotomic_poly(m, x)) == p:
            return m
    return None


def test_cyclotomic_index_matches_sympy(rng):
    # every cyclotomic polynomial up to Phi_60, and the irreducible factors
    # of random small polynomials, monic or not
    x = sympy.Symbol("x")
    polys = [IntPoly.from_sympy(sympy.cyclotomic_poly(m, x)) for m in range(1, 61)]
    for _ in range(150):
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 6))] + [rng.choice((1, 1, 2))]
        polys += [IntPoly.from_sympy(f) for f, _ in IntPoly(coeffs).to_sympy().factor_list()[1]]
    assert sum(cyclotomic_index(p) is not None for p in polys) > 80
    for p in polys:
        assert cyclotomic_index(p) == _cyclotomic_index_by_sympy(p), str(p)
