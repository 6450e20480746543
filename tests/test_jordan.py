"""Jordan structure: profiles, exact limit matrices, symbolic bases.

The frozen entries below were derived by high-precision power iteration
A^n / (n^l rho^n) along the parity subsequence before any exact path existed,
then pinned.  The exact limit B = sum q_lam(A) / (l! lam^l h(lam)) is also
checked against independent routes: the power iteration at tol 1e-30 when
l = 0, and the l-th difference of the scaled powers when l >= 1.  Exact
identities (B^2 = B or B^2 = 0) are checked on random matrices, and a
corrupted B must fail the runtime self-check.
"""

import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from mpmath import mp, mpf

import monoheight.jordan

from monoheight import (
    BudgetError,
    IntMatrix,
    Quad,
    UnsupportedError,
    jordan_basis,
    jordan_profile,
    limit_matrix_B,
    spectral_radius,
)
from monoheight import kernels
from monoheight.matrices import rank
from monoheight.scalars import h_mult_log_enclosure
from conftest import random_matrix

FIB = IntMatrix([[1, 1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
DIAG23 = IntMatrix([[2, 0], [0, 3]])
JORDAN2 = IntMatrix([[2, 1], [0, 2]])
PARITY = IntMatrix([[-2, 0], [0, 1]])

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = Quad(0, 1, 5)


def test_profiles():
    p = jordan_profile(FIB)
    assert (p.l, p.r, p.rbar, p.m) == (0, 1, 2, 1)
    p = jordan_profile(DIAG23)
    assert (p.l, p.r, p.rbar, p.m) == (0, 1, 1, 1)
    p = jordan_profile(SHEAR)
    assert (p.l, p.r, p.rbar, p.m) == (1, 1, 1, 1)
    p = jordan_profile(JORDAN2)
    assert (p.l, p.r, p.rbar, p.m) == (1, 1, 1, 1)
    p = jordan_profile(PARITY)
    assert (p.l, p.r, p.rbar, p.m) == (0, 1, 1, 2)


def test_profile_of_powers():
    for A in (FIB, SHEAR, DIAG23, JORDAN2):
        base = jordan_profile(A)
        M = A
        for k in range(2, 4):
            M = M.mul(A)
            p = jordan_profile(M)
            assert p.l == base.l
            assert spectral_radius(M).descriptor == base.rho.descriptor**k


def test_limit_matrix_fib():
    b = limit_matrix_B(FIB)
    assert b.exact
    # B = (1/sqrt5) * [[phi, 1], [1, 1/phi]]
    assert b.entries[0][0] == Quad(Fraction(1, 2), Fraction(1, 10), 5)  # (5+sqrt5)/10
    assert b.entries[0][1] == Quad(0, Fraction(1, 5), 5)  # sqrt5/5
    assert b.entries[1][0] == Quad(0, Fraction(1, 5), 5)
    assert b.entries[1][1] == Quad(Fraction(1, 2), Fraction(-1, 10), 5)  # (5-sqrt5)/10
    assert b.m == 1 and b.l == 0


def test_limit_matrix_shear_and_jordan2():
    b = limit_matrix_B(SHEAR)
    assert b.exact and b.l == 1
    assert b.entries == [[Quad(0), Quad(1)], [Quad(0), Quad(0)]]
    b = limit_matrix_B(JORDAN2)
    assert b.exact and b.l == 1
    assert b.entries == [[Quad(0), Quad(Fraction(1, 2))], [Quad(0), Quad(0)]]


def test_limit_matrix_diag_and_parity():
    b = limit_matrix_B(DIAG23)
    assert b.exact
    assert b.entries == [[Quad(0), Quad(0)], [Quad(0), Quad(1)]]
    b = limit_matrix_B(PARITY)
    assert b.exact and b.m == 2
    assert b.entries == [[Quad(1), Quad(0)], [Quad(0), Quad(0)]]


def test_limit_matrix_step_relation():
    # B A^m = rho^m B, exactly
    for A in (FIB, SHEAR, DIAG23, JORDAN2, PARITY):
        b = limit_matrix_B(A)
        rho_m = b.rho.descriptor**b.m
        rows = A.pow(b.m).row_lists()
        n = A.n
        for i in range(n):
            for j in range(n):
                lhs = Quad(0)
                for t in range(n):
                    lhs = lhs + b.entries[i][t] * rows[t][j]
                assert lhs == b.entries[i][j] * rho_m


def test_limit_matrix_rank_equals_r():
    for A in (FIB, SHEAR, DIAG23, JORDAN2, PARITY):
        b = limit_matrix_B(A)
        p = jordan_profile(A)
        assert rank(b.entries) == p.r


def test_limit_matrix_nonzero():
    for A in (FIB, SHEAR, DIAG23, JORDAN2, PARITY):
        b = limit_matrix_B(A)
        assert any(v != Quad(0) for row in b.entries for v in row)


def test_limit_complex_dominant_rejected():
    with pytest.raises(UnsupportedError):
        limit_matrix_B(IntMatrix([[0, -1], [1, 0]]))  # eigenvalues +-i


def test_jordan_basis_diagonal_identity():
    jb = jordan_basis(DIAG23)
    assert jb.J == [[Quad(1), Quad(0)], [Quad(0), Quad(1)]]
    assert jb.T == [[Quad(2), Quad(0)], [Quad(0), Quad(3)]]
    assert jb.det_J == Quad(1)
    assert jb.field_d == 0


def test_jordan_basis_shear_chain():
    jb = jordan_basis(SHEAR)
    assert jb.J == [[Quad(1), Quad(0)], [Quad(0), Quad(1)]]
    assert jb.T == [[Quad(1), Quad(1)], [Quad(0), Quad(1)]]


def test_jordan_basis_symmetric_fib():
    # [[2,1],[1,1]] has eigenvalues (3 +- sqrt5)/2; normalized eigenvectors
    # give det J = -sqrt5
    jb = jordan_basis(IntMatrix([[2, 1], [1, 1]]))
    assert jb.det_J == -SQRT5
    assert jb.field_d == 5


def test_jordan_basis_conjugation_identity(rng):
    # A J = J T exactly, on every basis the solver accepts
    mats = [FIB, SHEAR, DIAG23, JORDAN2, PARITY, IntMatrix([[2, 1], [1, 1]])]
    for _ in range(15):
        mats.append(random_matrix(rng, 2))
    for A in mats:
        try:
            jb = jordan_basis(A)
        except UnsupportedError:
            continue
        n = A.n
        rows = A.row_lists()
        for i in range(n):
            for j in range(n):
                lhs = Quad(0)
                for t in range(n):
                    lhs = lhs + rows[i][t] * jb.J[t][j]
                rhs = Quad(0)
                for t in range(n):
                    rhs = rhs + jb.J[i][t] * jb.T[t][j]
                assert lhs == rhs
        assert jb.det_J != Quad(0)


def _quadratic_jordan_item(rng):
    """A repeated real quadratic pair of eigenvalues, in a Jordan chain when
    coupled, next to small rational ones, conjugated by a unimodular matrix
    (the construction of the spectral benchmark's Jordan items)."""
    reps = rng.choice((1, 2))
    size = 2 * reps + rng.randint(0, 2)
    c = [[rng.choice((1, 2, 3)), 1], [1, 0]]
    j = [[0] * size for _ in range(size)]
    for r in range(reps):
        for a in range(2):
            j[2 * r + a][2 * r:2 * r + 2] = c[a]
            if r and rng.random() < 0.7:
                j[2 * r - 2 + a][2 * r + a] = 1
    for i in range(2 * reps, size):
        j[i][i] = rng.choice((1, -1, 2))
    u = [[int(i == k) for k in range(size)] for i in range(size)]
    for _ in range(2 * size):
        i, k = rng.sample(range(size), 2)
        f = rng.choice((-1, 1, 2))
        u[i] = [a + f * b for a, b in zip(u[i], u[k])]
    return _conjugated(u, j)


def test_quadratic_jordan_items_satisfy_AJ_equals_JT(rng):
    # chains built from the Quad powers (A - lam I)^j, checked against A
    # itself rather than through the library's own self-check
    seen_quadratic = 0
    for _ in range(12):
        A = _quadratic_jordan_item(rng)
        jb = jordan_basis(A)
        seen_quadratic += sum(not lam.is_rational for fd in jordan_profile(A).modulus.factors
                              for lam in fd.roots)
        assert kernels.mat_mul(A.row_lists(), jb.J) == kernels.mat_mul(jb.J, jb.T)
        assert all(v == 0 for i, row in enumerate(jb.T) for j, v in enumerate(row)
                   if j not in (i, i + 1))
        assert jb.det_J != 0
    assert seen_quadratic >= 20


def test_jordan_basis_heights_attached():
    jb = jordan_basis(FIB)
    lo, hi = jb.max_entry_mult_log
    assert lo <= hi
    # H_mult(1/det J) = H_mult(det J), and it is at least 1
    dlo, dhi = h_mult_log_enclosure(jb.det_J.inverse(), 96)
    assert (dlo, dhi) == h_mult_log_enclosure(jb.det_J, 96)
    assert 0 <= dlo <= dhi


def _stepping_limit(A, jp, tol, prec):
    """The power iteration of _iterated_limit as it formed and scaled the power
    at every step, kept as the reference; returns (entries, width, stop n,
    first n whose tail estimate is below tol)."""
    l, m = jp.l, jp.m
    n = A.n
    rho_mpf = jp.rho.to_mpf(prec + 32)
    second = jp.modulus.second_sq_hi
    ratio = None
    if second is not None:
        jp.rho.refine(Fraction(1, 2**96))
        ratio = mp.sqrt(mpf(second.numerator) / mpf(second.denominator)) / rho_mpf
    poly_decay = any(
        fd.is_max and any(s < l + 1 for s in sizes)
        for fd, sizes in zip(jp.modulus.factors, jp.block_sizes)
    )
    tol_mpf = mpf(tol.numerator) / mpf(tol.denominator)
    with mp.workprec(prec + 64):
        step = A.pow(m)
        power = step
        nval = m
        prev = None
        first = None
        for _ in range(4000):
            scalemat = [[mpf(v) for v in row] for row in power.row_lists()]
            denom = mpf(nval) ** l * rho_mpf**nval
            cur = [[v / denom for v in row] for row in scalemat]
            geo = (ratio**nval * mpf(nval) ** (2 * n)) if ratio is not None else mpf(0)
            if first is None and geo < tol_mpf:
                first = nval
            if prev is not None:
                diff = max(abs(cur[i][j] - prev[i][j]) for i in range(n) for j in range(n))
                poly_ok = (not poly_decay) or diff * nval < tol_mpf
                if diff < tol_mpf and geo < tol_mpf and poly_ok:
                    return cur, diff + geo, nval, first
            prev = cur
            power = power.mul(step)
            nval += m
            if power.max_bit_length() > monoheight.jordan._POWER_BIT_BUDGET:
                break
        raise BudgetError("power iteration for the limit matrix did not converge", partial=prev)


# companions of x^3-x-1, x^4-x^3-1, x^5-x^4-2 (a simple real dominant root of
# degree >= 3) and x^4-3x^2-1 (dominant roots -r and r, so m = 2)
LIMIT_COMPANIONS = [
    [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    [[0, 0, 0, 0, 2], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1]],
    [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0]],
]


def _counting_muls(monkeypatch):
    """Count IntMatrix.mul calls: the power iteration makes one per step that
    reads or checks the power, after the first such step."""
    calls = []
    mul = IntMatrix.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counted)
    return calls


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS)
def test_iterated_limit_matches_the_stepping_reference(rows, monkeypatch):
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    muls = _counting_muls(monkeypatch)
    for tol in ("1e-8", "1e-12", "1e-16"):
        for prec in (64, 128, 256):
            entries, width, stop, first = _stepping_limit(A, jp, Fraction(tol), prec)
            muls.clear()
            got = monoheight.jordan._iterated_limit(A, jp, Fraction(tol), prec)
            assert got == (entries, width)
            # powers are formed from the first step whose tail estimate passes:
            # A^(first - m) by A.pow, then one product per step up to stop
            assert len(muls) == (stop - first) // jp.m + (first > jp.m)
            assert len(muls) < stop // jp.m - 1


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS)
def test_iterated_limit_checks_bits_past_the_norm_bound(rows, monkeypatch):
    # a budget that nval * bits(||A||_inf) crosses long before the entries of
    # A^nval reach it: from the crossing on every power is formed and checked
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    tol = Fraction("1e-12")
    stop, first = _stepping_limit(A, jp, tol, 128)[2:]
    norm_bits = max(sum(map(abs, row)) for row in rows).bit_length()
    budget = A.pow(stop).max_bit_length() + 2
    monkeypatch.setattr(monoheight.jordan, "_POWER_BIT_BUDGET", budget)
    crossing = (budget // norm_bits + 1 + jp.m - 1) // jp.m * jp.m  # first n = 0 (mod m) past the bound
    assert crossing < first - jp.m
    entries, width, stop_here, _ = _stepping_limit(A, jp, tol, 128)
    assert stop_here == stop
    muls = _counting_muls(monkeypatch)
    assert monoheight.jordan._iterated_limit(A, jp, tol, 128) == (entries, width)
    assert len(muls) == (stop - crossing) // jp.m


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS)
def test_iterated_limit_budget_keeps_the_partial_limit(rows, monkeypatch):
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    monkeypatch.setattr(monoheight.jordan, "_POWER_BIT_BUDGET", 12)
    with pytest.raises(BudgetError) as expected:
        _stepping_limit(A, jp, Fraction("1e-16"), 128)
    with pytest.raises(BudgetError) as got:
        monoheight.jordan._iterated_limit(A, jp, Fraction("1e-16"), 128)
    assert expected.value.partial is not None
    assert got.value.partial == expected.value.partial


# ---------------------------------------------------------------------------
# the exact limit B = sum q_lam(A) / (l! lam^l h(lam)) against independent routes

U3 = [[1, 2, 0], [0, 1, 3], [1, 2, 1]]
U4 = [[1, 2, 0, 0], [0, 1, 3, 0], [1, 2, 1, 0], [0, 0, 1, 1]]


def _conjugated(u, rows):
    """u rows u^-1 for a unimodular u, as an integer matrix."""
    u = sympy.Matrix(u)
    assert abs(u.det()) == 1
    return IntMatrix([[int(v) for v in row] for row in (u * sympy.Matrix(rows) * u.inv()).tolist()])


# (name, matrix, l, m); the l >= 1 cases carry a smaller eigenvalue so that
# their reference converges from a nontrivial tail
EXACT_LIMIT_CASES = [
    ("rational", _conjugated(U3, [[3, 0, 0], [0, 2, 0], [0, 0, -1]]), 0, 1),
    ("quadratic", _conjugated(U3, [[2, 1, 0], [1, 1, 0], [0, 0, 1]]), 0, 1),
    ("negative", _conjugated(U3, [[-3, 0, 0], [0, 2, 0], [0, 0, 1]]), 0, 2),
    ("plus_minus_sqrt2", _conjugated(U3, [[0, 2, 0], [1, 0, 0], [0, 0, 1]]), 0, 2),
    ("jordan_l1", _conjugated(U3, [[3, 1, 0], [0, 3, 0], [0, 0, -2]]), 1, 1),
    ("jordan_l1_negative", _conjugated(U3, [[-2, 1, 0], [0, -2, 0], [0, 0, 1]]), 1, 2),
    ("jordan_l1_quadratic",
     _conjugated(U4, [[1, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0]]), 1, 1),
    ("jordan_l2", _conjugated(U4, [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]]), 2, 1),
]


def _differenced_limit(A, jp, k, prec):
    """The l-th difference in k of A^(km) / rho^(km), over m^l l!.

    Along n = km each dominant generalised eigenspace contributes a polynomial
    of degree l in k whose top coefficient is m^l B / l!, and the rest decays
    geometrically; the difference removes every lower-degree term, so this
    converges to B geometrically, where A^n / (n^l rho^n) gains only 1/n.
    """
    l, m, n = jp.l, jp.m, A.n
    with mp.workprec(prec):
        rho = jp.rho.to_mpf(prec)
        total = [[mpf(0)] * n for _ in range(n)]
        for j in range(l + 1):
            e = (k + j) * m
            weight = (-1) ** (l - j) * comb(l, j) / rho**e
            rows = A.pow(e).row_lists()
            total = [[t + weight * v for t, v in zip(rt, rv)] for rt, rv in zip(total, rows)]
        scale = m**l * factorial(l)
        return [[v / scale for v in row] for row in total]


@pytest.mark.parametrize("name, A, l, m", EXACT_LIMIT_CASES, ids=[c[0] for c in EXACT_LIMIT_CASES])
def test_exact_limit_matches_an_independent_limit(name, A, l, m):
    prec = 512
    b = limit_matrix_B(A)
    jp = jordan_profile(A)
    assert b.exact and (b.l, b.m) == (jp.l, jp.m) == (l, m)
    if l == 0:
        reference, _ = monoheight.jordan._iterated_limit(A, jp, Fraction("1e-30"), prec)
    else:
        # A^n / (n^l rho^n) moves by about 1/n^2 per step, so the power
        # iteration cannot reach tol 1e-30 when l >= 1
        reference = _differenced_limit(A, jp, 300, prec)
    with mp.workprec(prec):
        err = max(abs(b.entries[i][j].to_mpf(prec) - reference[i][j])
                  for i in range(A.n) for j in range(A.n))
    assert err < mpf("1e-28")


def test_exact_limit_square_identity(rng):
    # B^2 = B when l = 0 (a sum of spectral projectors), B^2 = 0 when l >= 1;
    # entries in [-1, 1] give the Jordan blocks that [-3, 3] rarely does
    checked = Counter()
    for t in range(100):
        A = random_matrix(rng, rng.choice((2, 3, 4)), *((-1, 1) if t % 2 else (-3, 3)))
        prof = jordan_profile(A).modulus
        if any(prof.factors[i].degree > 2 for i in prof.max_indices):
            continue
        try:
            b = limit_matrix_B(A)
        except UnsupportedError:
            continue  # a complex dominant eigenvalue
        assert b.exact
        square = kernels.mat_mul(b.entries, b.entries)
        if b.l == 0:
            assert square == b.entries
        else:
            assert all(v == 0 for row in square for v in row)
        checked[min(b.l, 1)] += 1
    assert checked[0] >= 20 and checked[1] >= 3


def _plus_unit_at_1_1(B):
    # for the shear the rows of B + E_11 are still left eigenvectors of A
    return [[v + (i == j == 1) for j, v in enumerate(row)] for i, row in enumerate(B)]


@pytest.mark.parametrize("rows, corrupt, message", [
    ([[1, 1], [1, 0]], lambda B: [[2 * v for v in row] for row in B], "B^2"),
    ([[1, 1], [0, 1]], _plus_unit_at_1_1, "B^2"),
    ([[1, 1], [0, 1]], lambda B: [list(col) for col in zip(*B)], "B A^m"),
    ([[2, 0], [0, 3]], lambda B: [[0 * v for v in row] for row in B], "vanished"),
    # the other eigenvalue's projector: B^2 = B still holds, and only the
    # sqrt(5) cross terms of B A = rho B fail
    ([[1, 1], [1, 0]], lambda B: [[v.conjugate() for v in row] for row in B], "B A^m"),
    # the same parts over sqrt(2): entries outside the field of rho fail the
    # check as an ArithmeticError, not as an UnsupportedError
    ([[1, 1], [1, 0]], lambda B: [[Quad(v.a, v.b, 2) for v in row] for row in B], "B A^m"),
], ids=["fib_2B", "shear_not_nilpotent", "shear_transposed", "diag_zero", "fib_conjugate", "fib_sqrt2"])
def test_corrupted_limit_raises(rows, corrupt, message, monkeypatch):
    exact = monoheight.jordan._exact_limit
    monkeypatch.setattr(monoheight.jordan, "_exact_limit", lambda *args: corrupt(exact(*args)))
    A = IntMatrix(rows)  # a fresh matrix: its limit slot is empty
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        limit_matrix_B(A)
    assert A._limit is None
