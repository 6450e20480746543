"""Exact matrix invariants: determinants, characteristic polynomials,
certified spectral radii, rational kernels."""

from fractions import Fraction
from itertools import permutations

import pytest
import sympy

from monoheight import kernels
from monoheight import (
    CertifiedReal,
    InputError,
    IntMatrix,
    IntPoly,
    Quad,
    charpoly,
    factor_over_q,
    modulus_profile,
    poly_str,
    spectral_radius,
)
from monoheight.matrices import (
    det_int,
    frac_nullspace,
    frac_rank,
    frac_solve,
    int_nullspace,
    monomial_degree,
    quad_nullspace,
    quad_rank,
    real_roots,
    word_product,
)
from conftest import random_matrix

FIB = IntMatrix([[1, 1], [1, 0]])


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def _leibniz_charpoly(rows):
    """Independent charpoly oracle: expand det(xI - A) by permutations."""
    n = len(rows)
    x = sympy.Symbol("x")
    m = [[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
    total = 0
    for perm in permutations(range(n)):
        term = _sign(perm)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return sympy.Poly(sympy.expand(total), x).all_coeffs()[::-1]


def test_construction_errors():
    with pytest.raises(InputError):
        IntMatrix([[1, 2]])
    with pytest.raises(InputError):
        IntMatrix([[1, 1], [1, 1]])  # singular
    with pytest.raises(InputError):
        IntMatrix([[Fraction(1, 2), 0], [0, 1]])


def test_det_examples():
    assert IntMatrix([[2, 1], [0, 2]]).det() == 4
    assert FIB.det() == -1
    assert det_int([[1, 1], [1, 1]]) == 0
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_charpoly_against_leibniz_oracle(rng):
    for _ in range(40):
        n = rng.randint(2, 4)
        A = random_matrix(rng, n, -5, 5)
        cp = charpoly(A)
        assert list(cp.coeffs) == [int(c) for c in _leibniz_charpoly(A.row_lists())]


def test_charpoly_fib():
    assert poly_str(charpoly(FIB)) == "x^2-x-1"


def test_factor_over_q_round_trip(rng):
    from monoheight.polys import mul

    for _ in range(25):
        A = random_matrix(rng, rng.randint(2, 4))
        cp = charpoly(A)
        prod = IntPoly([cp.lc // abs(cp.lc)]) if cp.lc else IntPoly([1])
        prod = IntPoly([1])
        for g, e in factor_over_q(cp):
            for _ in range(e):
                prod = mul(prod, g)
        assert prod == cp or mul(prod, IntPoly([-1])) == cp


def test_real_roots_match_sympy():
    p = IntPoly([-1, -1, 1])
    roots = real_roots(p)
    sy = sorted(float(r) for r in sympy.Poly([1, -1, -1], sympy.Symbol("x")).real_roots())
    assert len(roots) == 2
    for (lo, hi), expect in zip(roots, sy):
        assert hi - lo <= Fraction(1, 2**53)
        assert abs(float((lo + hi) / 2) - expect) < 1e-9


def test_spectral_radius_exact_values():
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert spectral_radius(FIB).descriptor == phi
    assert spectral_radius(IntMatrix([[2, 0], [0, 3]])).descriptor == Quad(3)
    # rotation matrix: all eigenvalues on the unit circle
    assert spectral_radius(IntMatrix([[0, -1], [1, 0]])).descriptor == Quad(1)
    assert spectral_radius(IntMatrix([[1, 1], [0, 1]])).descriptor == Quad(1)


def test_spectral_radius_of_power(rng):
    for _ in range(10):
        A = random_matrix(rng, rng.randint(2, 3))
        r1 = spectral_radius(A)
        r2 = spectral_radius(A.mul(A))
        if r1.descriptor is not None and r2.descriptor is not None:
            assert r2.descriptor == r1.descriptor * r1.descriptor
        else:
            sq = r1**2  # bare intervals cannot be refined further, so just require overlap
            assert not (r2.hi < sq.lo or sq.hi < r2.lo)


def test_certified_real_compare():
    a = CertifiedReal.from_fraction(Fraction(3, 2))
    b = CertifiedReal.from_quad(Quad.sqrt_of(Fraction(2)))
    assert a.compare(b) == 1  # 1.5 > sqrt2
    assert b.compare(b) == 0
    assert (b**2).descriptor == Quad(2)


def test_monomial_degree():
    # max row abs sum: the degree of the induced monomial map
    assert monomial_degree(FIB) == 2
    assert monomial_degree(IntMatrix([[2, 1], [0, 2]])) == 3
    # (x^2, y^-3) on the projective plane clears denominators to degree 5
    assert monomial_degree(IntMatrix([[2, 0], [0, -3]])) == 5


def test_degree_submultiplicative(rng):
    for _ in range(30):
        n = rng.randint(2, 3)
        A, B = random_matrix(rng, n), random_matrix(rng, n)
        assert monomial_degree(A.mul(B)) <= monomial_degree(A) * monomial_degree(B)


def test_word_product_order():
    A = IntMatrix([[1, 1], [0, 1]])
    B = IntMatrix([[1, 0], [1, 1]])
    assert word_product([A, B]).rows == A.mul(B).rows


def test_frac_linear_algebra():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert frac_rank(rows) == 1
    ns = frac_nullspace(rows)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] * 1 + v[1] * 2 == 0
    sol = frac_solve([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]], [Fraction(6), Fraction(8)])
    assert sol == [Fraction(3), Fraction(2)]


def test_int_nullspace_primitive():
    ns = int_nullspace([[2, 4], [1, 2]])
    assert len(ns) == 1
    assert ns[0] in ([2, -1], [-2, 1])


def test_quad_linear_algebra():
    s5 = Quad(0, 1, 5)
    rows = [[s5, Quad(5)], [Quad(1), s5]]  # rank 1: second row = first / sqrt5
    assert quad_rank(rows) == 1
    ns = quad_nullspace(rows)
    assert len(ns) == 1
    a, b = ns[0]
    assert a * s5 + b * Quad(5) == Quad(0)


def test_modulus_profile_groups_conjugates():
    prof = modulus_profile(FIB)
    # both roots of x^2-x-1 lie in one factor; moduli phi and 1/phi differ
    assert prof.rho.descriptor == Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert len(prof.factors) == 1



def _random_rows(rng, n, bits):
    return [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]


def test_mat_mul_matches_sympy(rng):
    for bits in (8, 64, 300, 2000):
        a = _random_rows(rng, 4, bits)
        b = _random_rows(rng, 4, bits)
        assert kernels.mat_mul(a, b) == (sympy.Matrix(a) * sympy.Matrix(b)).tolist()


def test_mat_vec_matches_sympy(rng):
    for bits in (8, 64, 1000):
        a = _random_rows(rng, 5, bits)
        v = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(5)]
        assert kernels.mat_vec(a, v) == list(sympy.Matrix(a) * sympy.Matrix(v))


def test_mat_pow_matches_sympy(rng):
    a = _random_rows(rng, 3, 16)
    for e in (1, 2, 7, 30):
        assert kernels.mat_pow(a, e) == (sympy.Matrix(a) ** e).tolist()


def test_mat_pow_identity_and_fibonacci():
    a = [[1, 1], [1, 0]]
    assert kernels.mat_pow(a, 0) == [[1, 0], [0, 1]]
    assert kernels.mat_pow(a, 10) == [[89, 55], [55, 34]]


def test_max_bits():
    assert kernels.max_bits([[1, 2], [3, 2**100]]) == 101


def test_kernel_backend_is_python():
    # the value the benchmark records for its environment
    assert kernels.BACKEND == "python"
