"""Integer polynomials: arithmetic, Sturm counts, cyclotomic detection."""

from fractions import Fraction

import pytest
import sympy

from monoheight import InputError, IntPoly, poly_str
from monoheight.polys import (
    cyclotomic_index,
    real_root_count,
    sign_at,
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


@pytest.mark.parametrize("coeffs", [(1.5, True, 2), (1, True), (Fraction(1), 2), ("1", 2), (1.0,)])
def test_coefficients_must_be_ints(coeffs):
    # a float, bool, Fraction or string is refused, not truncated by int()
    with pytest.raises(InputError, match="integers"):
        IntPoly(coeffs)


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


def _fraction_sturm_chain(p):
    """The Sturm chain as it was built by hand over Fraction, kept as the
    reference for the chain from sympy's dense remainders."""
    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= f * c
            a.pop()
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        return a

    chain = [[Fraction(c) for c in p.coeffs]]
    if p.degree:
        chain.append([Fraction(i * c) for i, c in enumerate(p.coeffs)][1:])
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def test_sturm_chain_matches_the_fraction_chain(rng):
    polys = [IntPoly([-2, 1]), IntPoly([3, -5]), IntPoly([7]), IntPoly([-1, 0, 0, -4]),
             IntPoly([1, -3, 0, 6]), IntPoly([-5, 2, 9, 0, -7])]
    while len(polys) < 200:
        deg = rng.randint(1, 12)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]
        polys.append(squarefree_part(IntPoly(coeffs)) if rng.random() < 0.5 else IntPoly(coeffs))
    assert sum(p.lc < 0 for p in polys) >= 20 and sum(abs(p.lc) > 1 for p in polys) >= 20
    for p in polys:
        got, old = sturm_chain(p), _fraction_sturm_chain(p)
        assert all(type(c) is int for g in got for c in g)
        # each term is the reference term times one positive factor
        assert len(got) == len(old), p
        for g, h in zip(got, old):
            factor = Fraction(g[-1]) / h[-1]
            assert factor > 0 and [factor * c for c in h] == g, p


def test_sign_at_matches_the_sign_of_the_value(rng):
    for _ in range(300):
        p = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 7))] + [rng.choice([-3, -1, 1, 2])])
        xs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(5)]
        # the rational roots of p, where the sign is 0
        xs += map(Fraction, sympy.roots(p.to_sympy(), filter="Q"))
        for x in xs:
            v = p(x)
            assert sign_at(p.coeffs, x.numerator, x.denominator) == (v > 0) - (v < 0), (p, x)
    # a factor with roots -1/2 and 3/2: both are found and give 0
    p = IntPoly([-3, -4, 4])
    assert [sign_at(p.coeffs, *x) for x in ((-1, 2), (3, 2), (0, 1), (-1, 1))] == [0, 0, -1, 1]


def _cauchy_bound(p):
    """1 + max |c_i| / |lc|: every root of p has a smaller absolute value."""
    return 1 + max((Fraction(abs(c), abs(p.lc)) for c in p.coeffs[:-1]), default=Fraction(0))


def test_real_root_count_matches_the_bounded_sturm_count(rng):
    for deg in list(range(1, 17)) * 8:
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-4, -1, 1, 3])]
        p = squarefree_part(IntPoly(coeffs))
        bound = _cauchy_bound(p)
        assert real_root_count(p) == sturm_count(p, -bound, bound), p
    assert real_root_count(X2_X_1) == 2
    assert real_root_count(IntPoly([1, 0, 1])) == 0
    assert real_root_count(IntPoly([-2, 1])) == 1


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
