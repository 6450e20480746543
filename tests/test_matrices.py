"""Exact matrix invariants: determinants, characteristic polynomials,
certified spectral radii, rational kernels."""

import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import monoheight.matrices
from monoheight import kernels
from monoheight import (
    CertifiedReal,
    IndistinguishableModuliError,
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
from monoheight.jordan import jordan_profile
from monoheight.matrices import (
    _bisect_to_width,
    _echelon,
    _factor_data_high_degree,
    _factor_data_low_degree,
    _isolate_real_roots,
    _modulus_resultant,
    _rank_boxes,
    _sq_modulus_interval,
    det,
    frac_solve,
    monomial_degree,
    nullspace,
    rank,
)
from monoheight.polys import real_root_count, squarefree_part, sturm_count
from monoheight.precision import default_precision
from conftest import random_matrix

FIB = IntMatrix([[1, 1], [1, 0]])


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def _leibniz_det(rows):
    """Independent determinant oracle: the sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = _sign(perm)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


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


def test_rows_are_the_one_read_only_storage(rng):
    A = IntMatrix([[2, 1], [1, 1]])
    assert A.rows == ((2, 1), (1, 1))
    with pytest.raises(TypeError):
        A.rows[0][0] = 1
    with pytest.raises(TypeError):
        A.rows[0] = (1, 1)
    assert repr(A) == "IntMatrix([[2, 1], [1, 1]])"
    mats = [random_matrix(rng, n) for n in (1, 2, 3, 4) for _ in range(10)]
    mats += [m.mul(m) for m in mats[:10]] + [IntMatrix([list(r) for r in m.rows]) for m in mats[:10]]
    for A in mats:
        assert type(A.rows) is tuple and all(type(r) is tuple for r in A.rows)
        assert all(type(v) is int for r in A.rows for v in r)
        assert IntMatrix(A.rows) == A and hash(IntMatrix(A.rows)) == hash(A)
        key = tuple(tuple(r) for r in A.rows)
        for B in mats:
            assert (A == B) == (key == tuple(tuple(r) for r in B.rows))
        assert hash(A) == hash(key)


def test_factor_data_is_frozen():
    fd = modulus_profile(FIB).factors[0]
    with pytest.raises(FrozenInstanceError):
        fd.rho = fd.rho_sq
    with pytest.raises(FrozenInstanceError):
        fd.roots_at_max = 2


def test_det_examples():
    assert det(IntMatrix([[2, 1], [0, 2]]).rows) == 4
    assert det(FIB.rows) == -1
    assert det([[1, 1], [1, 1]]) == 0
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_charpoly_against_leibniz_oracle(rng):
    for _ in range(40):
        n = rng.randint(2, 4)
        A = random_matrix(rng, n, -5, 5)
        cp = charpoly(A)
        assert list(cp.coeffs) == [int(c) for c in _leibniz_charpoly(A.rows)]


def test_charpoly_fib():
    assert poly_str(charpoly(FIB).coeffs) == "x^2-x-1"


def test_factor_over_q_round_trip(rng):
    for _ in range(25):
        A = random_matrix(rng, rng.randint(2, 4))
        cp = charpoly(A).to_sympy()
        prod = sympy.Poly(1, cp.gen)
        for g, e in factor_over_q(charpoly(A)):
            prod *= g.to_sympy() ** e
        assert prod in (cp, -cp)


def _real_roots(p, eps=Fraction(1, 2**53)):
    """Isolating intervals of width <= eps, as modulus ranking builds them."""
    return [_bisect_to_width(p, lo, hi, eps) for lo, hi in _isolate_real_roots(p)]


def test_real_roots_match_sympy():
    p = IntPoly([-1, -1, 1])
    roots = _real_roots(p)
    sy = sorted(float(r) for r in sympy.Poly([1, -1, -1], sympy.Symbol("x")).real_roots())
    assert len(roots) == real_root_count(p) == 2
    for (lo, hi), expect in zip(roots, sy):
        assert hi - lo <= Fraction(1, 2**53)
        assert abs(float((lo + hi) / 2) - expect) < 1e-9


def test_real_roots_when_an_endpoint_is_a_root():
    # sympy isolates this modulus resultant (of x^4-3x^3+3x^2-3x+1) with the
    # intervals [0, 1] and [1, 1]: the first one ends on the root of the second
    q = squarefree_part(_modulus_resultant(IntPoly([1, -3, 3, -3, 1])))
    roots = _real_roots(q)
    assert len(roots) == real_root_count(q) == 3
    for lo, hi in roots:
        assert (lo == hi and q(lo) == 0) or (q(lo) != 0 and sturm_count(q, lo, hi) == 1)
    A = IntMatrix([[0, 0, 0, 0, 1], [1, 0, 0, 0, -4], [0, 1, 0, 0, 6],
                   [0, 0, 1, 0, -6], [0, 0, 0, 1, 4]])
    assert abs(float(jordan_profile(A).rho.to_mpf(64)) - 2.15372137554177) < 1e-12


def _sympy_modulus_resultant(g):
    """Res_x(g(x), x^deg * g(y/x)) built as sympy expressions: the route the
    dense-list resultant replaced, kept as its oracle."""
    x, y = sympy.symbols("x y")
    d = g.degree
    gx = sum(c * x**i for i, c in enumerate(g.coeffs))
    hy = sum(c * y**i * x ** (d - i) for i, c in enumerate(g.coeffs))
    return IntPoly.from_sympy(sympy.Poly(sympy.resultant(gx, hy, x), y)).primitive()


def test_modulus_resultant_matches_the_sympy_expression_route(rng):
    for t in range(40):
        deg = rng.randint(3, 8)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [1 if t % 2 else rng.choice((-3, -2, 2, 5))]
        coeffs[0] = coeffs[0] or 1  # g(0) != 0, as for an eigenvalue factor
        g = IntPoly(coeffs)
        assert _modulus_resultant(g) == _sympy_modulus_resultant(g)


def _fraction_bisection(p, lo, hi, eps):
    """Sign bisection on Fraction endpoints: the route the integer bisection
    replaced, kept as its oracle."""
    if lo == hi:
        return lo, hi
    flo = p(lo)
    if flo == 0:
        return lo, lo
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0:
            return mid, mid
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


@pytest.mark.parametrize("coeffs, lo, hi", [
    ([-1, -1, 1], Fraction(1), Fraction(2)),  # x^2 - x - 1 on [1, 2]
    ([-1, -1, 1], Fraction(-7, 10), Fraction(-1, 3)),  # its negative root, mixed denominators
    ([-2, 0, 0, 1], Fraction(5, 4), Fraction(4, 3)),  # x^3 - 2
    ([-1, 4], Fraction(0), Fraction(1)),  # 4x - 1: the second midpoint is the root
    ([1, -2], Fraction(0), Fraction(1)),  # 1 - 2x: the first midpoint is the root
    ([-1, -1, 1], Fraction(-1, 2), Fraction(-1, 2)),  # a degenerate interval
])
def test_integer_bisection_matches_the_fraction_bisection(coeffs, lo, hi):
    p = IntPoly(coeffs)
    for eps in (Fraction(1, 2**10), Fraction(1, 2**40), Fraction(3, 7 * 2**20)):
        got = _bisect_to_width(p, lo, hi, eps)
        assert got == _fraction_bisection(p, lo, hi, eps)
        assert all(type(v) is Fraction for v in got)


def test_integer_bisection_matches_on_isolating_intervals(rng):
    for _ in range(20):
        p = squarefree_part(IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 6))] + [1]))
        for lo, hi in _isolate_real_roots(p):
            assert _bisect_to_width(p, lo, hi, Fraction(1, 2**40)) == \
                _fraction_bisection(p, lo, hi, Fraction(1, 2**40))


@pytest.mark.parametrize("rows, cube", [
    ([[0, 0, -2], [1, 0, 0], [0, 1, 0]], 2),  # x^3 + 2
    ([[0, 0, 3], [1, 0, 0], [0, 1, 0]], 3),  # x^3 - 3
])
def test_binomial_companion_radius(rows, cube):
    # sympy gives radical roots for binomials unless asked for CRootOf
    rho = jordan_profile(IntMatrix(rows)).rho.refine(Fraction(1, 2**60))
    assert rho.lo**3 <= cube <= rho.hi**3


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
            # the square of r1's enclosure must meet r2's; radii are >= 0
            assert not (r2.hi < r1.lo**2 or r1.hi**2 < r2.lo)


def test_certified_real_compare():
    a = CertifiedReal.from_fraction(Fraction(3, 2))
    b = CertifiedReal.from_quad(Quad.sqrt_of(Fraction(2)))
    assert a.compare(b) == 1  # 1.5 > sqrt2
    assert b.compare(b) == 0


SQRT2 = Quad.sqrt_of(Fraction(2))


def _root(coeffs, lo=1, hi=2):
    return CertifiedReal.from_poly_root(IntPoly(coeffs), lo, hi)


# (make a, make b, a.compare(b)) for each pair of representations; each side is
# made afresh for each direction
COMPARE_PAIRS = [
    pytest.param(lambda: CertifiedReal(1, 2, descriptor=SQRT2),
                 lambda: CertifiedReal(1, 2, descriptor=Quad.sqrt_of(Fraction(3))), -1,
                 id="sqrt2-sqrt3-wide-descriptors"),
    pytest.param(lambda: _root((-2, 0, 0, 1)), lambda: _root((10, -2, 0, -5, 1)), 0,
                 id="cbrt2-via-(x^3-2)(x-5)"),
    pytest.param(lambda: _root((-2, 0, 0, 1)), lambda: _root((-3, 0, 0, 1)), -1,
                 id="cbrt2-cbrt3"),
    pytest.param(lambda: CertifiedReal.from_quad(SQRT2), lambda: _root((-4, 0, 0, 0, 1)), 0,
                 id="sqrt2-root-of-x^4-4"),
    pytest.param(lambda: CertifiedReal.from_quad(SQRT2), lambda: _root((-2, 0, 0, 1)), 1,
                 id="sqrt2-cbrt2"),
    pytest.param(lambda: CertifiedReal.sqrt_of(_root((-2, 0, 0, 1))),
                 lambda: CertifiedReal.sqrt_of(_root((-2, 0, 0, 1))), 0,
                 id="sqrt-sqrt-same-square"),
    pytest.param(lambda: CertifiedReal.sqrt_of(_root((12, -3, -4, 1), 3, 5)),
                 lambda: CertifiedReal.from_fraction(2), 0,
                 id="sqrt-of-root-4-of-(x-4)(x^2-3)-against-2"),
    pytest.param(lambda: CertifiedReal.sqrt_of(CertifiedReal.from_quad(SQRT2)),
                 lambda: CertifiedReal.from_quad(SQRT2), -1,
                 id="2^(1/4)-sqrt2"),
    pytest.param(lambda: CertifiedReal(1, 2, descriptor=SQRT2),
                 lambda: CertifiedReal.from_quad(SQRT2), 0,
                 id="one-field-tie"),
]


@pytest.mark.parametrize("make_a, make_b, expected", COMPARE_PAIRS)
def test_compare_representation_pairs(make_a, make_b, expected):
    assert make_a().compare(make_b()) == expected
    assert make_b().compare(make_a()) == -expected


def test_to_mpf_and_compare_leave_the_enclosure_as_it_is():
    # a radius read through the analysis table is shared by all its readers,
    # so reading it must not narrow the enclosure it prints
    rho = spectral_radius(IntMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
    assert rho.descriptor is None and rho.sq is not None and rho.sq.poly is not None
    state = lambda: (rho.lo, rho.hi, rho.sq.lo, rho.sq.hi)  # noqa: E731
    before = state()
    rho.to_mpf(1024)
    assert rho.compare(CertifiedReal.from_fraction(rho.mid())) != 0  # overlaps: decided by refinement
    assert state() == before


@pytest.mark.parametrize("make", [
    lambda: CertifiedReal.from_quad(SQRT2),
    lambda: CertifiedReal.sqrt_of(_root((-2, 0, 0, 1))),  # 2^(1/6) by its square
    lambda: _root((-2, 0, 0, 1)),  # 2^(1/3) by its polynomial
    lambda: _root((-3, 2), 0, 4),  # 3/2 by 2x - 3: bisection lands on the root
], ids=["descriptor", "square", "poly", "poly-exact"])
def test_refine_returns_a_narrower_value_and_leaves_its_receiver(make):
    x = make()
    before = (x.lo, x.hi, x.descriptor, x.poly, x.sq and (x.sq.lo, x.sq.hi))
    y = x.refine(Fraction(1, 2**300))  # below the width every constructor gives
    assert (x.lo, x.hi, x.descriptor, x.poly, x.sq and (x.sq.lo, x.sq.hi)) == before
    assert y.width <= Fraction(1, 2**300) and x.lo <= y.lo <= y.hi <= x.hi
    assert y.compare(x) == 0 and y.to_mpf(200) == x.to_mpf(200)


def test_compare_decides_one_field_before_any_refinement():
    # printed radii keep their bytes only if an exact sign leaves the intervals alone
    a, b = CertifiedReal(1, 2, descriptor=SQRT2), CertifiedReal.from_quad(SQRT2 + Fraction(1, 10**40))
    assert a.compare(b) == -1
    assert (a.lo, a.hi) == (1, 2)


def _equal_but_unseen():
    # 2^(1/4) as a square root against the root of x^4 - 2: no tie test applies
    return CertifiedReal.sqrt_of(_root((-2, 0, 1))), _root((-2, 0, 0, 0, 1))


def test_compare_raises_on_an_equality_no_tie_test_sees():
    a, b = _equal_but_unseen()
    with pytest.raises(IndistinguishableModuliError, match="did not separate"):
        a.compare(b)


def test_every_statement_of_compare_runs():
    from monoheight.matrices import _separate, _share_root

    codes = {f.__code__ for f in (CertifiedReal.compare, _share_root, _separate)}
    statements = {(c, line) for c in codes for _, _, line in c.co_lines()
                  if line is not None and line != c.co_firstlineno}
    seen = set()

    def tracer(frame, event, arg):
        if frame.f_code not in codes:
            return None
        if event == "line":
            seen.add((frame.f_code, frame.f_lineno))
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for make_a, make_b, _ in (case.values for case in COMPARE_PAIRS):
            make_a().compare(make_b())
            make_b().compare(make_a())
        with pytest.raises(IndistinguishableModuliError):
            a, b = _equal_but_unseen()
            a.compare(b)
    finally:
        sys.settrace(previous)
    assert sorted((c.co_name, line) for c, line in statements - seen) == []


def test_square_root_refinement_raises_rather_than_fall_short(monkeypatch):
    # 2^(1/4) as the square root of the quadratic sqrt(2)
    r = CertifiedReal.sqrt_of(CertifiedReal.from_quad(Quad.sqrt_of(Fraction(2))))
    assert r.sq is not None
    assert r.refine(Fraction(1, 2**300)).width <= Fraction(1, 2**300)
    # square-root enclosures that stall at a width of 2^-200 cannot reach 2^-400
    exact = monoheight.matrices.sqrt_enclosure
    pad = Fraction(1, 2**201)

    def stalled(q, prec):
        lo, hi = exact(q, prec)
        return lo - pad, hi + pad

    monkeypatch.setattr(monoheight.matrices, "sqrt_enclosure", stalled)
    r = CertifiedReal.sqrt_of(CertifiedReal.from_quad(Quad.sqrt_of(Fraction(2))))
    with pytest.raises(IndistinguishableModuliError, match="did not reach"):
        r.refine(Fraction(1, 2**400))


def test_refine_to_width_zero():
    # an exact rational already has width 0; an irrational value can never reach it
    assert CertifiedReal.from_fraction(Fraction(3, 2)).refine(0).width == 0
    for value, eps in ((Quad.sqrt_of(Fraction(2)), 0), (Quad.sqrt_of(Fraction(2)), -1), (Quad(3), -1)):
        with pytest.raises(InputError, match="width <= 0"):
            CertifiedReal.from_quad(value).refine(eps)


def test_monomial_degree():
    assert monomial_degree(FIB) == 2
    assert monomial_degree(IntMatrix([[2, 1], [0, 2]])) == 3
    # (x^2, y^-3) on the projective plane clears denominators to degree 5
    assert monomial_degree(IntMatrix([[2, 0], [0, -3]])) == 5


def test_degree_submultiplicative(rng):
    for _ in range(30):
        n = rng.randint(2, 3)
        A, B = random_matrix(rng, n), random_matrix(rng, n)
        assert monomial_degree(A.mul(B)) <= monomial_degree(A) * monomial_degree(B)


def _homogenized_degree(A):
    """The former route to monomial_degree: homogenize the N+1 coordinate
    monomials, shift away negative exponents, check one common degree and
    divide out the monomial gcd."""
    n = A.n
    exps = [[0] * (n + 1)] + [[-sum(row)] + list(row) for row in A.rows]
    shifts = [max(0, -min(e[v] for e in exps)) for v in range(n + 1)]
    shifted = [[e[v] + shifts[v] for v in range(n + 1)] for e in exps]
    degrees = {sum(e) for e in shifted}
    assert len(degrees) == 1
    return degrees.pop() - sum(min(e[v] for e in shifted) for v in range(n + 1))


def test_monomial_degree_matches_the_homogenization(rng):
    mats = [random_matrix(rng, n, -9, 9) for n in range(1, 7) for _ in range(150)]
    # entries of 2^16 bits, the word enumeration's bit budget
    mats.append(IntMatrix([[-(2**65535), 1], [3, 2**65535 - 1]]))
    # the sample has negative row sums, all row sums negative, and negative columns
    assert any(min(map(sum, A.rows)) < 0 for A in mats)
    assert any(max(map(sum, A.rows)) < 0 for A in mats)
    assert any(max(col) < 0 for A in mats for col in zip(*A.rows))
    for A in mats:
        assert monomial_degree(A) == _homogenized_degree(A), A


def test_frac_linear_algebra():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(rows) == 1
    assert rank([[1, 2], [2, 4]]) == 1
    sol = frac_solve([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]], [Fraction(6), Fraction(8)])
    assert sol == [Fraction(3), Fraction(2)]


def test_quad_linear_algebra():
    s5 = Quad(0, 1, 5)
    rows = [[s5, Quad(5)], [Quad(1), s5]]  # rank 1: second row = first / sqrt5
    assert rank(rows) == 1
    ns = nullspace(rows)
    assert len(ns) == 1
    a, b = ns[0]
    assert a * s5 + b * Quad(5) == Quad(0)



def test_det_matches_leibniz_on_integers(rng):
    # singular matrices included: small entries make them common
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det(rows) == _leibniz_det(rows)


def test_field_det_matches_sympy_over_sqrt5(rng):
    s5 = sympy.sqrt(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        pairs = [[(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(n)]
        rows = [[Quad(a, b, 5) for a, b in row] for row in pairs]
        M = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) + b * s5 for a, b in row] for row in pairs])
        expected = sympy.expand(M.det(method="berkowitz"))  # division-free: a polynomial in sqrt5
        b = expected.coeff(s5)
        a = sympy.expand(expected - b * s5)
        assert det(rows) == Quad(Fraction(str(a)), Fraction(str(b)), 5)


def _low_rank_rows(rng, entry, zero):
    """A random m x n matrix, 1 <= m, n <= 5, of rank at most k as a product
    (m x k)(k x n), k = min(m, n) half the time, with some columns zeroed so
    that elimination skips pivot columns; entry() draws one entry and zero is
    the zero of its type."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    k = min(m, n) if rng.random() < 0.5 else rng.randint(0, min(m, n))
    left = [[entry() for _ in range(k)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(k)]
    dropped = set(rng.sample(range(n), rng.randint(0, n // 2)))
    return [[zero if j in dropped else sum((left[i][t] * right[t][j] for t in range(k)), zero)
             for j in range(n)] for i in range(m)]


def _rational(v):
    v = Fraction(v.rational_value() if isinstance(v, Quad) else v)
    return sympy.Rational(v.numerator, v.denominator)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_elimination_matches_sympy_and_leibniz(rng, kind):
    if kind == "int":
        entry, zero = (lambda: rng.randint(-3, 3)), 0
    else:
        entry, zero = (lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))), Fraction(0)
    for _ in range(150):
        rows = _low_rank_rows(rng, entry, zero)
        ncols = len(rows[0])
        M = sympy.Matrix([[_rational(v) for v in row] for row in rows])
        assert _echelon(rows)[1] == list(M.rref()[1])
        assert rank(rows) == M.rank()
        # sympy's basis has the same normalisation: 1 at its free column, 0 at the others
        assert [[_rational(q) for q in v] for v in nullspace(rows)] == [list(v) for v in M.nullspace()]
        if len(rows) == ncols:
            assert det(rows) == _leibniz_det(rows)
        # half the right-hand sides are consistent: the image of a random vector
        x0 = [entry() for _ in range(ncols)]
        rhs = [sum((v * x for v, x in zip(row, x0)), zero) if rng.random() < 0.5 else entry() for row in rows]
        x = frac_solve(rows, rhs)
        if M.row_join(sympy.Matrix([_rational(b) for b in rhs])).rank() > M.rank():
            assert x is None
        else:
            assert [sum(v * xi for v, xi in zip(row, x)) for row in rows] == rhs


def test_elimination_over_sqrt5(rng):
    def entry():
        return Quad(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2), 5)

    def transpose(rows):
        return [list(col) for col in zip(*rows)]

    for _ in range(60):
        rows = _low_rank_rows(rng, entry, Quad(0))
        for a in (rows, transpose(rows)):
            ns = nullspace(a)
            assert rank(a) + len(ns) == len(a[0])
            for v in ns:
                assert all(x == 0 for x in kernels.mat_vec(a, v))
            # the basis is independent: it is the identity on the free columns
            free = [c for c in range(len(a[0])) if c not in _echelon(a)[1]]
            assert [[v[c] for c in free] for v in ns] == [[int(i == j) for j in free] for i in free]
        assert rank(rows) == rank(transpose(rows))
        if len(rows) == len(rows[0]):
            assert det(rows) == _leibniz_det(rows)


def test_integer_rows_eliminate_on_integers(rng, monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was constructed")

    monkeypatch.setattr(monoheight.matrices, "Fraction", no_fraction)
    for _ in range(60):
        rows = _low_rank_rows(rng, lambda: rng.randint(-9, 9), 0)
        echelon, pivots, d = _echelon(rows)
        assert all(type(v) is int for row in echelon for v in row)
        assert type(d) is int and type(rank(rows)) is int
    assert det(IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]).rows) == 18


def test_modulus_profile_groups_conjugates():
    prof = modulus_profile(FIB)
    # both roots of x^2-x-1 lie in one factor; moduli phi and 1/phi differ
    assert prof.rho.descriptor == Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert len(prof.factors) == 1



def _random_rows(rng, n, bits):
    return [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)]


def _random_sqrt5(rng, bits):
    """An element of Q(sqrt 5); one in five is a plain int, which Quads mix with."""
    a = rng.getrandbits(bits) - (1 << (bits - 1))
    if rng.random() < 0.2:
        return a
    return Quad(Fraction(a, rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 5)


def _random_sqrt5_rows(rng, n, bits):
    return [[_random_sqrt5(rng, bits) for _ in range(n)] for _ in range(n)]


def _to_sympy(x):
    if isinstance(x, Quad):
        return sympy.Rational(x.a.numerator, x.a.denominator) \
            + sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(5)
    return sympy.Integer(x)


def _sympy_matrix(rows):
    return sympy.Matrix([[_to_sympy(x) for x in row] for row in rows])


def _equal_rows(got, expected):
    """Exact equality of Q(sqrt 5) rows with sympy rows."""
    return len(got) == len(expected) and all(
        len(g) == len(e) and all(sympy.expand(_to_sympy(x) - y) == 0 for x, y in zip(g, e))
        for g, e in zip(got, expected)
    )


def test_mat_mul_matches_sympy(rng):
    for bits in (8, 64, 300, 2000):
        a = _random_rows(rng, 4, bits)
        b = _random_rows(rng, 4, bits)
        assert kernels.mat_mul(a, b) == (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
    for bits in (8, 300):
        a = _random_sqrt5_rows(rng, 3, bits)
        b = _random_sqrt5_rows(rng, 3, bits)
        assert _equal_rows(kernels.mat_mul(a, b), (_sympy_matrix(a) * _sympy_matrix(b)).tolist())


def test_mat_vec_matches_sympy(rng):
    for bits in (8, 64, 1000):
        a = _random_rows(rng, 5, bits)
        v = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(5)]
        assert kernels.mat_vec(a, v) == list(sympy.Matrix(a) * sympy.Matrix(v))
    for bits in (8, 300):
        a = _random_sqrt5_rows(rng, 4, bits)
        v = [_random_sqrt5(rng, bits) for _ in range(4)]
        expected = _sympy_matrix(a) * sympy.Matrix([_to_sympy(x) for x in v])
        assert _equal_rows([kernels.mat_vec(a, v)], [list(expected)])


def test_mat_pow_matches_sympy(rng):
    a = _random_rows(rng, 3, 16)
    for e in (1, 2, 7, 30):
        assert kernels.mat_pow(a, e) == (sympy.Matrix(a) ** e).tolist()
    a = _random_sqrt5_rows(rng, 3, 8)
    for e in (1, 2, 7):
        assert _equal_rows(kernels.mat_pow(a, e), (_sympy_matrix(a) ** e).tolist())


def test_mat_pow_identity_and_fibonacci():
    a = [[1, 1], [1, 0]]
    assert kernels.mat_pow(a, 0) == [[1, 0], [0, 1]]
    assert kernels.mat_pow(a, 10) == [[89, 55], [55, 34]]


def _horner_at_matrix(coeffs, rows):
    """p(A) by Horner on ascending integer coefficients: the routine jordan
    used for g(A) before mat_poly, kept as an oracle."""
    n = len(rows)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        if any(map(any, acc)):  # 0 * A = 0: skip zero leading coefficients
            acc = kernels.mat_mul(acc, rows)
        for i in range(n):
            acc[i][i] += c
    return acc


def _random_coeffs(rng, make):
    """Ascending coefficients with zeros inside and, often, at the top."""
    coeffs = [make() if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, 6))]
    return coeffs + [0] * rng.randint(0, 2)


def test_mat_poly_matches_horner(rng):
    for n in (1, 2, 3, 5):
        for _ in range(12):
            rows = _random_rows(rng, n, 8)
            coeffs = _random_coeffs(rng, lambda: rng.randint(-50, 50))
            got = kernels.mat_poly(coeffs, rows)
            assert got == _horner_at_matrix(coeffs, rows), (coeffs, rows)
            assert all(type(v) is int for row in got for v in row)
    fib = [[1, 1], [1, 0]]
    assert kernels.mat_poly([], fib) == kernels.mat_poly([0, 0, 0], fib) == [[0, 0], [0, 0]]
    assert kernels.mat_poly([3, 0, 0], fib) == [[3, 0], [0, 3]]
    assert kernels.mat_poly([0, 0, 1, 0], fib) == [[2, 1], [1, 1]]


def test_mat_poly_matches_entrywise_quad_evaluation(rng):
    for n in (1, 2, 3):
        rows = _random_rows(rng, n, 6)
        powers = [kernels.mat_pow(rows, k) for k in range(9)]
        for _ in range(8):
            coeffs = _random_coeffs(rng, lambda: _random_sqrt5(rng, 8))
            expected = [[sum((c * powers[k][i][j] for k, c in enumerate(coeffs)), Quad(0))
                         for j in range(n)] for i in range(n)]
            got = kernels.mat_poly(coeffs, rows)
            assert got == expected, (coeffs, rows)
            if any(isinstance(c, Quad) for c in coeffs):
                assert all(isinstance(v, Quad) for row in got for v in row)


def test_mat_poly_forms_each_power_once(monkeypatch):
    products = []
    real = kernels.mat_mul

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(kernels, "mat_mul", counting)
    # x^3 + 2x with zero coefficients inside and at the top: powers A .. A^3 only
    kernels.mat_poly([0, 2, 0, 1, 0, 0], [[1, 1], [1, 0]])
    assert len(products) == 3


def test_max_bits():
    assert kernels.max_bits([[1, 2], [3, 2**100]]) == 101


def test_kernel_backend_is_python():
    # the value the benchmark records for its environment
    assert kernels.BACKEND == "python"


# ---------------------------------------------------------------------------
# root-modulus ranking of factors of degree >= 3 against the former sympy route

EISENSTEIN = IntPoly([-2, 2**60, -2**121, 1])  # x^3 - 2^121 x^2 + 2^60 x - 2
LEHMER = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def _companion(poly):
    """Companion matrix of a monic integer polynomial."""
    n = poly.degree
    return IntMatrix([[1 if i == j + 1 else 0 for j in range(n - 1)] + [-poly.coeffs[i]] for i in range(n)])


def _sympy_route(g):
    """(roots_at_max, max_real_signs, all_roots_real, second_sq_hi) by the
    former route: sympy's CRootOf roots, boxed by eval_rational and shrunk
    until each |root|^2 meets one isolating interval of the modulus resultant."""
    q = squarefree_part(_modulus_resultant(g))
    intervals = [_bisect_to_width(q, lo, hi, Fraction(1, 2**40)) for lo, hi in _isolate_real_roots(q)]
    top = len(intervals) - 1

    def box(root, eps):
        scale, root = root.as_coeff_Mul()  # sympy may scale the root: 2*CRootOf(...)
        d = sympy.Rational(eps) / abs(scale)
        approx = scale * root.eval_rational(dx=d, dy=d)
        re, im = (Fraction(int(v.p), int(v.q)) for v in (sympy.re(approx), sympy.im(approx)))
        return re - eps, re + eps, im - eps, im + eps

    def assign(root):
        eps = Fraction(1, 2**16)
        while True:
            slo, shi = _sq_modulus_interval(box(root, eps))
            hits = [k for k, (lo, hi) in enumerate(intervals) if shi >= lo and slo <= hi]
            if len(hits) == 1:
                return hits[0]
            eps = eps * eps if eps > Fraction(1, 2**512) else eps / 2**64

    def sign(root):
        eps = Fraction(1, 4)
        while True:
            lo, hi, _, _ = box(root, eps)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            eps /= 16

    roots = g.to_sympy().all_roots(radicals=False)
    where = [assign(r) for r in roots]
    seconds = [intervals[k][1] for k in where if k != top]
    return (where.count(top), [sign(r) for r, k in zip(roots, where) if k == top and r.is_real],
            all(r.is_real for r in roots), max(seconds) if seconds else None)


def _disc_route(g):
    fd = _factor_data_high_degree(g, 1)
    return fd.roots_at_max, fd.max_real_signs, fd.all_roots_real, fd.second_sq_hi


@pytest.mark.parametrize("coeffs", [
    [-1, -1, 0, 1],  # x^3 - x - 1
    [-1, -1, 0, 0, 0, 1],  # x^5 - x - 1
    [2, 0, 0, 1],  # x^3 + 2
    [-3, 0, 0, 1],  # x^3 - 3
    [1, 1, 1, 1, 1],  # the 5th cyclotomic polynomial
    [1, -3, 3, -3, 1],  # its modulus resultant has an isolating interval ending on a root
    [2, 0, -5, 0, 1],  # x^4 - 5x^2 + 2: -r and r at the maximum
    LEHMER.coeffs,
    EISENSTEIN.coeffs,
    [-2**150, 1, 0, 1],  # x^3 + x - 2^150: moduli^2 rho^2 and rho^2 + 1 near 2^100
])
def test_root_discs_agree_with_the_sympy_route(coeffs):
    g = IntPoly(coeffs)
    assert _disc_route(g) == _sympy_route(g)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=5))
def test_root_discs_agree_on_irreducible_cubics_and_quartics(coeffs):
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    g = IntPoly(coeffs).primitive()
    assume(factor_over_q(g) == [(g, 1)])
    assert _disc_route(g) == _sympy_route(g)


def _random_irreducible(rng, degree):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((1, 2, -3))]
        g = IntPoly(coeffs).primitive()
        if coeffs[0] and factor_over_q(g) == [(g, 1)]:
            return g.coeffs


def _chebyshev_16():
    """2 T_16(x / 2): the minimal polynomial of 2 cos(pi / 32), 16 real roots."""
    before, p = [2], [0, 1]
    for _ in range(15):
        before, p = p, [a - (before[i] if i < len(before) else 0) for i, a in enumerate([0] + p)]
    return p


def _mignotte(degree, a):
    """x^degree - 2 (a x - 1)^2, with two roots about 2 a^(-(degree + 2) / 2) apart."""
    coeffs = [-2, 4 * a, -2 * a * a] + [0] * (degree - 2)
    coeffs[degree] += 1
    return coeffs


_RNG = random.Random(24)
DISC_CASES = (
    [_random_irreducible(_RNG, d) for d in range(3, 10)]
    + [[-2] + [0] * (d - 1) + [1] for d in (3, 4, 7)]  # x^d - 2: every root at the maximum
    + [[a * a - 1, 0, -2 * a, 0, 1] for a in (4, 7)]  # (x^2 - a)^2 - 1: -r and r at the maximum
    + [_mignotte(3, 2**10), _mignotte(5, 2**24), [402, 0, -401, 0, 100]]  # clustered roots
    + [_chebyshev_16()]  # FACTOR_DEGREE_BOUND
)


def _roots_held(g, boxes):
    """For each box, the roots of g in its disc, read off mpmath's roots at 512 bits."""
    def to_mpf(q):
        return mp.mpf(q.numerator) / q.denominator

    with mp.workprec(512):
        roots = mp.polyroots(list(reversed(g.coeffs)), maxsteps=200, extraprec=512)
        held = []
        for re_lo, re_hi, im_lo, im_hi in boxes:
            x, y, r = to_mpf((re_lo + re_hi) / 2), to_mpf((im_lo + im_hi) / 2), to_mpf((re_hi - re_lo) / 2)
            held.append([k for k, z in enumerate(roots) if (z.real - x) ** 2 + (z.imag - y) ** 2 < r * r])
    return held


@pytest.mark.parametrize("coeffs", DISC_CASES)
def test_each_root_disc_holds_one_root(coeffs):
    g = IntPoly(coeffs)
    assert squarefree_part(g) == g and coeffs[0] != 0
    prec = 64
    while (boxes := monoheight.matrices._root_boxes(g, prec)) is None:
        prec *= 2
    assert sorted(_roots_held(g, boxes)) == [[k] for k in range(g.degree)]
    assert _disc_route(g) == _sympy_route(g)


def _count_calls(monkeypatch, name, replacement=None):
    """Record (precision, result is not None) of every call of the root-disc
    step matrices.<name>(g, prec), and run replacement in its place when given."""
    calls = []
    step = replacement or getattr(monoheight.matrices, name)

    def counted(g, prec):
        found = step(g, prec)
        calls.append((prec, found is not None))
        return found

    monkeypatch.setattr(monoheight.matrices, name, counted)
    return calls


def test_root_discs_ignore_the_order_of_the_approximations(monkeypatch):
    def reversed_start(g, prec):
        z, e = exact(g, prec)
        return z[::-1], e

    exact = monoheight.matrices._aberth_roots
    calls = _count_calls(monkeypatch, "_aberth_roots", reversed_start)
    g = IntPoly([2, 0, -5, 0, 1])  # x^4 - 5x^2 + 2: max_real_signs stay in root order
    assert _disc_route(g) == _sympy_route(g)
    assert calls == [(64, True)]


def test_overlapping_root_discs_certify_nothing(monkeypatch):
    # two approximations 2^-30 apart of one root of x^3 - x - 1 and none of another
    g = IntPoly([-1, -1, 0, 1])
    (first, second, _), e = monoheight.matrices._aberth_roots(g, 64)
    assert monoheight.matrices._root_boxes(g, 64) is not None
    near = (second[0], second[1] + (1 << (e - 30)))
    _count_calls(monkeypatch, "_aberth_roots", lambda g, prec: ([first, second, near], e))
    assert monoheight.matrices._root_boxes(g, 64) is None


def test_root_discs_double_the_precision_when_the_start_fails(monkeypatch):
    # x^3 - 2 (2^48 x - 1)^2 has two roots about 2^-119 apart near 2^-48: the
    # corrections settle after 66 sweeps, more than the 64 allowed at 64 bits
    g = IntPoly(_mignotte(3, 2**48))
    calls = _count_calls(monkeypatch, "_aberth_roots")
    assert _disc_route(g) == _sympy_route(g)
    assert calls == [(64, False), (128, True)]


def test_root_discs_double_the_precision_until_the_boxes_decide(monkeypatch):
    # at 64 bits the discs around the roots of modulus ~2^70 are disjoint, but
    # their |z|^2 ranges are wider than the gap 1 between rho^2 and rho^2 + 1
    g = IntPoly([-2**210, 1, 0, 1])
    calls = _count_calls(monkeypatch, "_root_boxes")
    fd = _factor_data_high_degree(g, 1)
    assert calls == [(64, True), (128, True)]
    assert (fd.roots_at_max, fd.max_real_signs) == (2, [])


def test_coincident_root_approximations_raise_at_the_precision_cap(monkeypatch):
    calls = _count_calls(monkeypatch, "_aberth_roots", lambda g, prec: ([(1 << prec, 0)] * g.degree, prec))
    with pytest.raises(IndistinguishableModuliError, match="did not separate"):
        _factor_data_high_degree(IntPoly([-1, -1, 0, 0, 0, 1]), 1)
    assert calls == [(prec, True) for prec in (64, 128, 256, 512, 1024, 2048, 4096)]


@pytest.mark.parametrize("coeffs", [
    [-1, -1, 0, 1],  # x^3 - x - 1 and x^5 - x - 1, the fixed spectral items
    [-1, -1, 0, 0, 0, 1],
    EISENSTEIN.coeffs,  # roots of modulus 2^121 and 2^-60
    [-2**150, 1, 0, 1],  # moduli^2 rho^2 and rho^2 + 1 near 2^100
])
def test_root_discs_certify_at_the_first_precision(monkeypatch, coeffs):
    # the start is the fast path: one that quietly falls back to a higher
    # precision fails here
    calls = _count_calls(monkeypatch, "_root_boxes")
    modulus_profile(_companion(IntPoly(coeffs)))
    assert calls == [(64, True)]


def test_only_the_intervals_that_reach_an_output_are_bisected(monkeypatch):
    # x^4 - 5x^2 + 2: of the six isolating intervals of q, the top one and the
    # one holding the smaller roots' |z|^2 reach the output
    bisected = []
    exact = monoheight.matrices._bisect_to_width

    def counted(p, lo, hi, eps):
        bisected.append((lo, hi))
        return exact(p, lo, hi, eps)

    monkeypatch.setattr(monoheight.matrices, "_bisect_to_width", counted)
    fd = _factor_data_high_degree(IntPoly([2, 0, -5, 0, 1]), 1)
    assert len(bisected) == 2
    assert fd.second_sq_hi == Fraction(482077780483, 1099511627776)


def test_root_boxes_decide_realness_and_signs_only_when_certain():
    F = Fraction
    # the roots 1 and 4 of q, isolated by [1/2, 3/2] and [7/2, 9/2]
    at_1_and_4 = [_root((-1, 1), F(1, 2), F(3, 2)), _root((-4, 1), F(7, 2), F(9, 2))]
    roots = list(at_1_and_4)
    real = (F(19, 10), F(21, 10), F(-1, 10), F(1, 10))  # around the real root 2
    near = (F(199, 100), F(201, 100), F(-1, 1000), F(2, 1000))  # around 2 + i*eps, |z|^2 = 4
    assert _rank_boxes([real, near], roots, 2) == ([1, 1], [1, 1])
    # one real root but two boxes meet the real axis: which one is real is open
    assert _rank_boxes([real, near], roots, 1) is None
    assert all(r is s for r, s in zip(roots, at_1_and_4))  # each box met one root: none refined
    # a box meeting both roots, even once they are refined, or a real root's
    # box holding 0, decides nothing
    assert _rank_boxes([(F(0), F(2), F(-1), F(1))], roots, 1) is None
    assert [(r.lo, r.hi) for r in roots] == [(1, 1), (4, 4)]  # both refined, to the roots themselves
    assert [(r.lo, r.hi) for r in at_1_and_4] == [(F(1, 2), F(3, 2)), (F(7, 2), F(9, 2))]
    assert _rank_boxes([(F(-1, 2), F(1, 2), F(-1, 2), F(1, 2))], [_root((-1, 4), 0, F(1, 2))], 1) is None


def _profile_fields(prof):
    def real(x):
        return x.lo, x.hi, x.exact_str()

    return (real(prof.rho), prof.max_indices, prof.second_sq_hi, [
        (fd.poly, fd.multiplicity, real(fd.rho), real(fd.rho_sq), fd.roots_at_max,
         fd.all_roots_real, fd.real_roots_at_max, fd.max_real_signs,
         fd.second_sq_hi) for fd in prof.factors])


def _old_record(**fields):
    out = dict(roots=[], real_roots_at_max=[], max_real_signs=[], second_sq_hi=None)
    out.update(fields)
    return out


def _old_factor_data_deg1(g, mult):
    """The linear-factor builder the low-degree builder replaced, kept as an oracle."""
    lam = Fraction(-g.coeffs[0], g.coeffs[1])
    rho = CertifiedReal.from_quad(Quad(abs(lam)))
    return _old_record(
        poly=g,
        multiplicity=mult,
        rho=rho,
        rho_sq=CertifiedReal.from_quad(Quad(lam * lam)),
        roots_at_max=1,
        neg_real_at_max=lam < 0,
        all_roots_real=True,
        roots=[Quad(lam)],
        real_roots_at_max=[Quad(lam)],
        max_real_signs=[1 if lam > 0 else -1],
    )


def _old_factor_data_deg2(g, mult):
    """The quadratic-factor builder the low-degree builder replaced, kept as an oracle."""
    c0, c1, c2 = (Fraction(c) for c in g.coeffs)
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        sq = c0 / c2
        rho = CertifiedReal.from_quad(Quad.sqrt_of(sq))
        return _old_record(
            poly=g, multiplicity=mult, rho=rho,
            rho_sq=CertifiedReal.from_quad(Quad(sq)),
            roots_at_max=2, neg_real_at_max=False,
            all_roots_real=False,
        )
    root_disc = Quad.sqrt_of(disc)
    r1 = (Quad(-c1) + root_disc) / Quad(2 * c2)
    r2 = (Quad(-c1) - root_disc) / Quad(2 * c2)
    a1, a2 = abs(r1), abs(r2)
    cmp = (a1 - a2).sign()
    if cmp == 0:
        rho_val = a1
        at_max = [r1, r2]
        second = None
    else:
        rho_val, small = (a1, a2) if cmp > 0 else (a2, a1)
        at_max = [r1 if cmp > 0 else r2]
        second = (small * small).enclosure(default_precision())[1]
    return _old_record(
        poly=g, multiplicity=mult,
        rho=CertifiedReal.from_quad(rho_val),
        rho_sq=CertifiedReal.from_quad(rho_val * rho_val),
        roots_at_max=len(at_max),
        neg_real_at_max=any(r.sign() < 0 for r in at_max),
        all_roots_real=True,
        roots=[r1, r2],
        real_roots_at_max=at_max,
        max_real_signs=[r.sign() for r in at_max],
        second_sq_hi=second,
    )


def _factor_record(fields):
    """Comparable form of the FactorData fields, with exact representations."""
    def real(x):
        return x.lo, x.hi, x.exact_str(), repr(x.descriptor)

    return (fields["poly"], fields["multiplicity"], real(fields["rho"]), real(fields["rho_sq"]),
            fields["roots_at_max"], fields["neg_real_at_max"], fields["all_roots_real"],
            [repr(r) for r in fields["roots"]], [repr(r) for r in fields["real_roots_at_max"]],
            fields["max_real_signs"], fields["second_sq_hi"])


def test_low_degree_builder_matches_the_per_degree_builders(rng):
    seen = {"linear": 0, "pm_pair": 0, "c1_pos": 0, "c1_neg": 0, "non_monic": 0, "complex": 0}
    polys = []
    while len(polys) < 60:
        polys.append(IntPoly([rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([-1, 1]) * rng.randint(1, 9)]))
    while len(polys) < 260:
        c0 = rng.choice([-1, 1]) * rng.randint(1, 30)
        c1 = rng.choice([0, 0, rng.randint(-12, 12)])
        c2 = rng.choice([1, 1, -1, rng.randint(-6, 6) or 2])
        if c1 * c1 != 4 * c0 * c2:  # a double root is never an irreducible factor
            polys.append(IntPoly([c0, c1, c2]))
    for g in polys:
        mult = rng.randint(1, 3)
        fd = _factor_data_low_degree(g, mult)
        got = {name: getattr(fd, name) for name in fd.__dataclass_fields__}
        got["neg_real_at_max"] = -1 in fd.max_real_signs
        old = (_old_factor_data_deg1 if g.degree == 1 else _old_factor_data_deg2)(g, mult)
        assert _factor_record(got) == _factor_record(old), g
        if g.degree == 1:
            seen["linear"] += 1
            continue
        c0, c1, c2 = g.coeffs
        seen["complex"] += c1 * c1 < 4 * c0 * c2
        seen["pm_pair"] += c1 == 0 and c0 * c2 < 0
        seen["c1_pos"] += c1 > 0
        seen["c1_neg"] += c1 < 0
        seen["non_monic"] += abs(c2) > 1
    assert min(seen.values()) >= 20, seen


def test_irreducible_matches_the_three_part_predicate(rng):
    mats = [random_matrix(rng, n) for n in range(1, 6) for _ in range(8)]
    mats += [IntMatrix([[c * (i == j) for j in range(n)] for i in range(n)]) for n, c in ((2, 2), (3, -1), (4, 3))]
    mats += [IntMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]]), IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])]
    verdicts = []
    for A in mats:
        facs = modulus_profile(A).factors
        old = len(facs) == 1 and facs[0].multiplicity == 1 and facs[0].poly.degree == A.n
        assert modulus_profile(A).irreducible == old, A
        verdicts.append(old)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


@pytest.mark.parametrize("poly", [IntPoly([-1, -1, 0, 0, 0, 1]), LEHMER])
def test_modulus_profile_ignores_the_ambient_precision(poly):
    seen = []
    for prec in (20, 53, 300):
        with mp.workprec(prec):
            seen.append(_profile_fields(modulus_profile(_companion(poly))))
    assert seen[0] == seen[1] == seen[2]
