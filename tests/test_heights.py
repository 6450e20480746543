"""Canonical heights: closed forms, truncated word sums, orbit classification."""

import math
from fractions import Fraction

from mpmath import mp
import pytest

from monoheight import (
    BudgetError,
    InputError,
    IntMatrix,
    PointGm,
    Quad,
    canonical_height_closed,
    canonical_height_truncated,
    classify_orbit,
    eval_monomial,
    spectral_radius,
)
from monoheight.heights import _enumerate_orbit
from monoheight.points import log_profile

from conftest import random_matrix, random_point

FIB = IntMatrix([[1, 1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
DIAG23 = IntMatrix([[2, 0], [0, 3]])
PARITY = IntMatrix([[-2, 0], [0, 1]])


def pt(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def test_closed_fib():
    h = canonical_height_closed(FIB, pt(2, 3))
    assert h.exact
    assert h.symbolic.coeffs[2] == Quad(Fraction(1, 2), Fraction(1, 10), 5)
    assert h.symbolic.coeffs[3] == Quad(0, Fraction(1, 5), 5)
    assert h.str15() == "0.992880363370112"


def test_closed_diag_and_shear():
    h = canonical_height_closed(DIAG23, pt(2, 3))
    assert h.exact and h.symbolic.coeffs == {3: Quad(1)}
    h = canonical_height_closed(SHEAR, pt(2, 3))
    assert h.exact and h.symbolic.coeffs == {3: Quad(1)}
    h = canonical_height_closed(SHEAR, pt(2, 1))
    assert h.is_zero()


def test_closed_torsion_is_zero():
    h = canonical_height_closed(FIB, pt(1, -1))
    assert h.exact and h.is_zero()


def test_step_relation_exact():
    # h_hat(phi^m P) = rho^m h_hat(P) with m the parity period
    cases = [(FIB, pt(2, 3), 1), (DIAG23, pt(2, 3), 1), (PARITY, pt(3, 5), 2)]
    for A, P, m in cases:
        rho = spectral_radius(A).descriptor
        h0 = canonical_height_closed(A, P)
        Q = P
        for _ in range(m):
            Q = eval_monomial(A, Q)
        h1 = canonical_height_closed(A, Q)
        assert h0.exact and h1.exact
        want = {p: c * rho**m for p, c in h0.symbolic.coeffs.items()}
        assert h1.symbolic.coeffs == want


def test_sign_invariance():
    a = canonical_height_closed(FIB, pt(2, 3))
    b = canonical_height_closed(FIB, pt(-2, -3))
    assert a.symbolic.coeffs == b.symbolic.coeffs


def test_truncated_diag_constant():
    est = canonical_height_truncated(DIAG23, pt(2, 3), 12)
    log3 = mp.log(3)
    assert est.n == 12 and est.k == 1 and est.tail_window == 3
    for v in est.values:
        assert abs(v - log3) < 1e-12
    assert abs(est.estimate - log3) < 1e-12


def test_truncated_shear_tail_window():
    # values are log3 + log2/nu; the window max over nu in [31, 40] sits at 31
    est = canonical_height_truncated(SHEAR, pt(2, 3), 40)
    assert est.l == 1 and est.tail_window == 10
    log2, log3 = mp.log(2), mp.log(3)
    for i, v in enumerate(est.values, start=1):
        assert abs(v - (log3 + log2 / i)) < 1e-12
    assert abs(est.estimate - (log3 + log2 / 31)) < 1e-12


def test_truncated_fib_matches_fibonacci_numbers():
    est = canonical_height_truncated(FIB, pt(2, 3), 30)
    fibs = [0, 1]
    while len(fibs) < 40:
        fibs.append(fibs[-1] + fibs[-2])
    with mp.workprec(120):
        phi = (1 + mp.sqrt(5)) / 2
        for i, v in enumerate(est.values, start=1):
            want = (fibs[i + 1] * mp.log(2) + fibs[i] * mp.log(3)) / phi**i
            assert abs(v - want) < 1e-25
    assert est.estimate == max(est.values[-est.tail_window:])


def test_truncated_averaged_variant():
    s = canonical_height_truncated(DIAG23, pt(2, 3), 8, variant="summed")
    a = canonical_height_truncated(DIAG23, pt(2, 3), 8, variant="averaged")
    # one matrix: k^n = 1, the variants coincide
    assert [str(x) for x in s.values] == [str(x) for x in a.values]


def test_truncated_word_budget():
    F = [DIAG23, FIB]
    with pytest.raises(BudgetError):
        canonical_height_truncated(F, pt(2, 3), 20, word_budget=100)


def test_truncated_word_budget_counts_every_level():
    # the budget bounds the reported word_count, k + k^2 + ... + k^n, also for one map
    with pytest.raises(BudgetError, match=r"^word budget 100 exceeded at 101 words$"):
        canonical_height_truncated(FIB, pt(2, 3), 2000, word_budget=100)
    assert canonical_height_truncated(FIB, pt(2, 3), 100, word_budget=100).word_count == 100
    F = [DIAG23, FIB]
    assert canonical_height_truncated(F, pt(2, 3), 6, delta=Fraction(3), word_budget=126).word_count == 126
    with pytest.raises(BudgetError, match=r"^word budget 125 exceeded at 126 words$"):
        canonical_height_truncated(F, pt(2, 3), 6, word_budget=125)


def test_classify_fib_infinite():
    v = classify_orbit(FIB, pt(2, 3))
    assert v.status == "infinite"
    assert v.certificate
    assert v.hhat.exact and not v.hhat.is_zero()


def test_classify_fib_torsion_cycle():
    v = classify_orbit(FIB, pt(1, -1))
    assert v.status == "finite"
    assert (v.preperiod, v.period, v.orbit_size) == (0, 3, 3)


def test_classify_zero_height_infinite():
    # (2,1) has h_hat = 0 under diag(2,3) yet escapes through the 2-adic place
    v = classify_orbit(DIAG23, pt(2, 1))
    assert v.status == "infinite"
    assert v.hhat.is_zero()
    assert v.zero_height_dim_bound >= 1


def test_classify_pair_finite_bfs():
    F = [IntMatrix([[0, -1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])]
    v = classify_orbit(F, pt(1, -1))
    assert v.status == "finite"
    assert v.orbit_size <= 8


def _two_loop_orbit(mats, prof, budget):
    """The orbit walk as it was, one loop for a single map and a breadth-first
    loop for a system; kept as the reference for the merged walk."""
    if len(mats) == 1:
        seen = {prof.state_key(): 0}
        state = prof
        for step in range(1, budget + 1):
            state = state.transport(mats[0])
            key = state.state_key()
            if key in seen:
                first = seen[key]
                return first, step - first, step
            seen[key] = step
        return None
    seen = {prof.state_key()}
    frontier = [prof]
    while frontier:
        if len(seen) > budget:
            return None
        nxt = []
        for state in frontier:
            for M in mats:
                image = state.transport(M)
                key = image.state_key()
                if key not in seen:
                    seen.add(key)
                    nxt.append(image)
        frontier = nxt
    return 0, len(seen), len(seen)


# elements of two finite groups, the signed permutations (order 8) and the
# dihedral group of order 12, so every orbit of their systems is finite
FINITE_GROUPS = [[IntMatrix(r) for r in group] for group in (
    ([[0, 1], [1, 0]], [[-1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]]),
    ([[1, -1], [1, 0]], [[0, 1], [1, 0]], [[0, -1], [1, -1]], [[-1, 0], [0, -1]]),
)]


def test_orbit_walk_matches_the_two_loop_walk(rng):
    preperiodic = 0
    for k in (1, 2, 3):
        for trial in range(60):
            if trial % 3:
                group = rng.choice(FINITE_GROUPS)
                mats = [rng.choice(group) for _ in range(k)]
                P = random_point(rng, 2)
            else:  # any generators move the signs of a torsion point in a finite space
                mats = [random_matrix(rng, 2, -2, 2) for _ in range(k)]
                P = random_point(rng, 2, [Fraction(1), Fraction(-1)])
            prof = log_profile(P)
            full = _two_loop_orbit(mats, prof, 64)
            pre, per, size = full
            preperiodic += k == 1 and pre > 0
            assert _enumerate_orbit(mats, prof, pre + per) == full
            assert _enumerate_orbit(mats, prof, pre + per - 1) is None
            for budget in range(size + 2):
                assert _enumerate_orbit(mats, prof, budget) == _two_loop_orbit(mats, prof, budget)
    assert preperiodic >= 3


def test_orbit_budget_must_be_an_integer():
    for budget in (2.5, 8.0, True):
        with pytest.raises(InputError, match="budget must be an integer"):
            classify_orbit(FIB, pt(1, -1), budget=budget)


def test_truncation_depth_must_be_an_integer():
    for n in (2.5, 3.0, True):
        with pytest.raises(InputError, match="n must be an integer"):
            canonical_height_truncated(FIB, pt(2, 3), n)


def test_truncated_exact_level_sums_zero_for_torsion():
    est = canonical_height_truncated(FIB, pt(1, -1), 10)
    assert est.is_exact_zero()
    assert all(abs(v) == 0 for v in est.values)


def test_height_json_shapes():
    h = canonical_height_closed(FIB, pt(2, 3))
    d = h.to_json()
    assert set(d) == {"decimal", "symbolic"}
    est = canonical_height_truncated(FIB, pt(2, 3), 6)
    d = est.to_json()
    assert d["variant"] == "summed" and len(d["values"]) == 6


def test_dimension_mismatch():
    from monoheight import InputError

    with pytest.raises(InputError):
        canonical_height_closed(FIB, pt(2, 3, 5))


def test_closed_matches_truncated_limit():
    for A, P in [(FIB, pt(2, 3)), (DIAG23, pt(6, "1/5")), (SHEAR, pt(2, 3))]:
        h = canonical_height_closed(A, P)
        est = canonical_height_truncated(A, P, 60)
        assert abs(float(h) - est.values[-1]) < (
            1e-9 if jordan_l(A) == 0 else math.log(2) / 50
        )


def jordan_l(A):
    from monoheight import jordan_profile

    return jordan_profile(A).l
