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
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, log

import pytest
import sympy
from mpmath import mp, mpf

import monoheight.jordan
import monoheight.matrices

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
        rows = A.pow(b.m).rows
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
        rows = A.rows
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
        assert kernels.mat_mul(A.rows, jb.J) == kernels.mat_mul(jb.J, jb.T)
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


def _decay_ratio(jp, prec):
    """sqrt(second_sq_hi) / rho, the decay ratio of the tail bound, rounded to
    53 bits; None without a second modulus."""
    second = jp.modulus.second_sq_hi
    if second is None:
        return None
    with mp.workprec(53):
        return mp.sqrt(mpf(second.numerator) / mpf(second.denominator)) / jp.rho.to_mpf(prec + 32)


def _stepping_limit(A, jp, tol, prec):
    """The power iteration of _iterated_limit as it formed and scaled the power
    at every step, kept as the reference; returns (entries, width, stop n,
    first n whose tail estimate is below tol).  The decay ratio is rounded
    to 53 bits and tol to prec + 64, whatever the ambient precision."""
    l, m = jp.l, jp.m
    n = A.n
    rho_mpf = jp.rho.to_mpf(prec + 32)
    ratio = _decay_ratio(jp, prec)
    poly_decay = any(
        i in jp.modulus.max_indices and any(s < l + 1 for s in sizes)
        for i, sizes in enumerate(jp.block_sizes)
    )
    with mp.workprec(prec + 64):
        tol_mpf = mpf(tol.numerator) / mpf(tol.denominator)
        step = A.pow(m)
        power = step
        nval = m
        prev = None
        first = None
        for _ in range(4000):
            scalemat = [[mpf(v) for v in row] for row in power.rows]
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
# companion of x^3 - 10^6 x^2 + 1: the second modulus is about 10^-3 against
# rho near 10^6, so every stop below has its first step at 1
FIRST_STEP_ONE = [[0, 0, -1], [1, 0, 0], [0, 1, 1000000]]


def _counting_muls(monkeypatch, name="mul"):
    """Count IntMatrix.mul (or another IntMatrix method's) calls: the power
    iteration makes one product per step that reads or checks the power,
    after the first such step."""
    calls = []
    method = getattr(IntMatrix, name)

    def counted(self, *args):
        calls.append(1)
        return method(self, *args)

    monkeypatch.setattr(IntMatrix, name, counted)
    return calls


# LIMIT_TOL itself (as limit_matrix_B), one scaled by a point's log mass
# 2 log 6 (as canonical_height_closed), a tighter one and a looser one
LIMIT_STOP = Fraction(str(monoheight.jordan.LIMIT_TOL))
STOPS = (LIMIT_STOP, Fraction(str(monoheight.jordan.LIMIT_TOL / (4.0 * (2.0 * log(6) + 1.0)))),
         Fraction("1e-16"), Fraction("1e-8"))


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS + [FIRST_STEP_ONE])
def test_iterated_limit_matches_the_stepping_reference(rows, monkeypatch):
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    muls, pows = _counting_muls(monkeypatch), _counting_muls(monkeypatch, "pow")
    for tol in STOPS:
        for prec in (64, 128, 256):
            entries, width, stop, first = _stepping_limit(A, jp, tol, prec)
            muls.clear()
            pows.clear()
            assert monoheight.jordan._iterated_limit(A, jp, tol, prec) == (entries, width)
            # no step whose tail estimate is at least tol passes tol, so
            # powers are formed from the step k0 before the first whose
            # estimate is below it (step 1 at the latest): A^m and A^(k0 m)
            # by A.pow, then one product per step up to stop
            k0 = max(1, first // jp.m - 1)
            assert (k0 == 1) == (rows == FIRST_STEP_ONE)
            assert (len(pows), len(muls)) == (2, stop // jp.m - k0)


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


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS)
def test_iterated_limit_reads_one_walk_in_any_order(rows):
    # nothing is kept between calls: every stop gets what the stepping
    # iteration gives, whichever stops came before it
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    for prec in (64, 128, 256):
        cold = {stop: _stepping_limit(A, jp, stop, prec)[:2] for stop in STOPS}
        for order in (STOPS, STOPS[::-1]):
            for stop in order + order:
                assert monoheight.jordan._iterated_limit(A, jp, stop, prec) == cold[stop]


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS)
def test_iterated_limit_does_not_read_the_ambient_precision(rows):
    A = IntMatrix(rows)
    jp = jordan_profile(A)
    raw = set()
    for ambient in (20, 53, 300):
        with mp.workprec(ambient):
            entries, width = monoheight.jordan._iterated_limit(A, jp, Fraction("1e-12"), 128)
        raw.add((tuple(v._mpf_ for row in entries for v in row), width._mpf_))
    assert len(raw) == 1


def _counting_geo(monkeypatch):
    """Record the n at which the iteration evaluates its tail bound."""
    calls = []
    geo = monoheight.jordan._geo

    def counted(ratio, n, N):
        calls.append(n)
        return geo(ratio, n, N)

    monkeypatch.setattr(monoheight.jordan, "_geo", counted)
    return calls


def _recording_first_steps(monkeypatch):
    """Record (bound, tol, first step) of each first-step search."""
    calls = []
    first_step = monoheight.jordan._first_step

    def recorded(geo, stop):
        calls.append((geo, stop, first_step(geo, stop)))
        return calls[-1][2]

    monkeypatch.setattr(monoheight.jordan, "_first_step", recorded)
    return calls


def _scanned_first(geo, tol, prec):
    """The first step k >= 1 whose next tail bound is below tol, capped at
    4001, found by evaluating the bound at every step, at prec + 64 bits as
    the iteration compares."""
    with mp.workprec(prec + 64):
        return next(k for k in range(1, 4002) if k == 4001 or geo(k + 1) < tol)


# companion of x^3 - 100x + 1: roots near -10.005 and 9.995 give a decay ratio
# of about 0.999, so the tail bound stays above LIMIT_TOL past the step cap
NEAR_TIE = [[0, 0, -1], [1, 0, 100], [0, 1, 0]]


@pytest.mark.parametrize("rows", LIMIT_COMPANIONS + [NEAR_TIE])
def test_a_cold_limit_evaluates_few_tail_bounds(rows, monkeypatch):
    # the first step is bisected: at most 14 bounds, then one per step after
    # it; a scan evaluated one per step, 4,000 on the near tie
    A = IntMatrix(rows)
    calls = _counting_geo(monkeypatch)
    try:
        limit_matrix_B(A)
    except BudgetError:
        assert rows == NEAR_TIE
    assert 0 < len(calls) <= 40


def test_the_step_cap_ends_a_cold_walk_as_the_stepping_reference():
    A = IntMatrix(NEAR_TIE)
    jp = jordan_profile(A)
    with pytest.raises(BudgetError) as expected:
        _stepping_limit(A, jp, LIMIT_STOP, 128)
    with pytest.raises(BudgetError) as got:
        monoheight.jordan._iterated_limit(A, jp, LIMIT_STOP, 128)
    assert str(got.value) == str(expected.value)
    assert expected.value.partial is not None
    assert got.value.partial == expected.value.partial


def _companion(coeffs):
    """Companion matrix of x^d + coeffs[d-1] x^(d-1) + ... + coeffs[0]."""
    d = len(coeffs)
    return [[-coeffs[i] if j == d - 1 else int(i == j + 1) for j in range(d)] for i in range(d)]


def _seeded_walk_companions(rng, count):
    """count companions of degree 3 to 5 whose dominant root is real of degree
    >= 3, of three kinds in the proportion 3 : 3 : 1: random small
    coefficients; even quartics x^4 + a x^2 + b, alone or times x - e, whose
    roots +-r give m = 2; and near ties x^d - a x^(d-2) + c x^(d-3) (+-1 when
    d > 3), whose roots near +-sqrt(a) give decay ratios of about 0.8 to 0.94."""
    found, seen = [], set()
    while len(found) < count:
        kind = (0, 0, 0, 1, 1, 1, 2)[len(found) % 7]
        if kind == 0:
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(3, 5))]
        elif kind == 1:
            a, b = rng.randint(-6, 6), rng.choice([-3, -2, -1, 1, 2, 3])
            coeffs = [b, 0, a, 0]
            if rng.random() < 0.5:
                e = rng.choice([-2, -1, 1, 2])
                coeffs = [-e * b, b, -e * a, a, -e]
        else:
            d = rng.randint(3, 5)
            coeffs = [rng.choice([-1, 1])] + [0] * (d - 1)
            coeffs[d - 3] = rng.choice([-2, -1, 1, 2])
            coeffs[d - 2] = -rng.randint(5, 6)
        if coeffs[0] == 0 or tuple(coeffs) in seen:
            continue
        seen.add(tuple(coeffs))
        A = IntMatrix(_companion(coeffs))
        jp = jordan_profile(A)
        try:
            dominant = monoheight.jordan._dominant_factors(jp)
        except UnsupportedError:
            continue
        if all(fd.poly.degree <= 2 for fd in dominant) or (kind == 1 and jp.m != 2):
            continue
        found.append((A, jp))
    return found


def test_the_first_step_and_limit_match_a_scan_on_seeded_companions(rng, monkeypatch):
    firsts = _recording_first_steps(monkeypatch)
    ms, ratios = Counter(), []
    for A, jp in _seeded_walk_companions(rng, 105):
        firsts.clear()
        got = monoheight.jordan._iterated_limit(A, jp, LIMIT_STOP, 64)
        [(geo, tol, first)] = firsts
        assert first == _scanned_first(geo, tol, 64)
        assert got == _stepping_limit(A, jp, LIMIT_STOP, 64)[:2]
        ms[jp.m] += 1
        ratios.append(_decay_ratio(jp, 64))
    assert ms[1] >= 20 and ms[2] >= 20
    assert sum(r > 0.9 for r in ratios) >= 10


@pytest.mark.parametrize("second_sq_hi", [Fraction(2), Fraction(10**6)])
def test_a_decay_ratio_of_at_least_one_ends_at_the_step_cap(second_sq_hi):
    # rho^2 of the x^3 - x - 1 companion is about 1.755, so either bound on the
    # second modulus gives a ratio >= 1 and a tail bound that never falls
    A = IntMatrix(LIMIT_COMPANIONS[0])
    jp = jordan_profile(A)
    jp = replace(jp, modulus=replace(jp.modulus, second_sq_hi=second_sq_hi))
    with pytest.raises(BudgetError) as expected:
        _stepping_limit(A, jp, LIMIT_STOP, 128)
    with pytest.raises(BudgetError) as got:
        monoheight.jordan._iterated_limit(A, jp, LIMIT_STOP, 128)
    assert str(got.value) == str(expected.value)
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
            rows = A.pow(e).rows
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
    A = IntMatrix(rows)  # the analysis table starts empty in every test
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        limit_matrix_B(A)
    assert monoheight.matrices._ANALYSES[A.rows].limit_matrix_B is None
