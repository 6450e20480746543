"""Canonical heights: closed forms, truncated word sums, orbit classification."""

import math
from fractions import Fraction
from functools import reduce
from itertools import islice, product

from mpmath import mp
import pytest

import monoheight.jordan
from monoheight import (
    BudgetError,
    InputError,
    IntMatrix,
    LogLinear,
    PointGm,
    Quad,
    UnsupportedError,
    canonical_height_closed,
    classify_orbit,
    eval_monomial,
    limit_matrix_B,
    spectral_radius,
    truncated_estimates,
)
from monoheight.heights import _closed_numeric, _enumerate_orbit, _level_sums
from monoheight.points import log_profile, weil_height

from conftest import COORD_CHOICES, random_matrix, random_point

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


def test_closed_torsion_runs_no_iterated_limit(monkeypatch):
    # the dominant root of x^3 - x - 1 is cubic, so its limit is iterated;
    # a torsion point needs only the support check
    calls = []
    monkeypatch.setattr(monoheight.jordan, "_iterated_limit", lambda *args: calls.append(args))
    h = canonical_height_closed(IntMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]]), pt(1, -1, -1))
    assert h.exact and h.is_zero()
    assert calls == []


def test_closed_torsion_keeps_the_support_check():
    # the dominant eigenvalues 1 +- i of [[1, -1], [1, 1]] are not real
    with pytest.raises(UnsupportedError, match="not real"):
        canonical_height_closed(IntMatrix([[1, -1], [1, 1]]), pt(1, -1))


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


CUBIC = IntMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # companion of x^3 - x - 1


def _two_block_closed_numeric(b, prof, prec):
    """The numeric closed form as it was, one block for the finite places and
    one for the archimedean place; kept as the reference for the place loop."""
    n = prof.n
    with mp.workprec(prec + 32):
        logs = {p: mp.log(p) for p in prof.vals}
        err = mp.mpf(0)
        total = mp.mpf(0)
        for p, vec in prof.vals.items():
            u = [-v * logs[p] for v in vec]
            row_err = b.width * mp.fsum(abs(x) for x in u)
            vals = [mp.fsum(b.entries[i][j] * u[j] for j in range(n)) for i in range(n)]
            total += max(vals + [mp.mpf(0)])
            err += row_err
        u = [mp.fsum(vec[j] * logs[p] for p, vec in prof.vals.items()) for j in range(n)]
        row_err = b.width * mp.fsum(abs(x) for x in u)
        vals = [mp.fsum(b.entries[i][j] * u[j] for j in range(n)) for i in range(n)]
        total += max(vals + [mp.mpf(0)])
        err += row_err
        err += abs(total) * mp.mpf(2) ** (16 - prec) + mp.mpf(2) ** (16 - prec)
        return total - err, total + err


def test_closed_numeric_matches_the_two_block_form(rng):
    # six primes with exponents up to 3 give enough places that a changed
    # summation order shows in the last bits
    def coord():
        q = Fraction(rng.choice((-1, 1)))
        for p in (2, 3, 5, 7, 11, 13):
            q *= Fraction(p) ** rng.randint(-3, 3)
        return q

    for prec in (64, 128, 200):
        b = limit_matrix_B(CUBIC, prec=prec)
        assert not b.exact
        for _ in range(25):
            prof = log_profile(PointGm(tuple(coord() for _ in range(3))))
            h = _closed_numeric(b, prof, prec)
            assert (h.lo, h.hi) == _two_block_closed_numeric(b, prof, prec)


def test_truncated_diag_constant():
    est = truncated_estimates(DIAG23, pt(2, 3), 12)["summed"]
    log3 = mp.log(3)
    assert est.n == 12 and est.k == 1 and est.tail_window == 3
    for v in est.values:
        assert abs(v - log3) < 1e-12
    assert abs(est.estimate - log3) < 1e-12


def test_truncated_shear_tail_window():
    # values are log3 + log2/nu; the window max over nu in [31, 40] sits at 31
    est = truncated_estimates(SHEAR, pt(2, 3), 40)["summed"]
    assert est.l == 1 and est.tail_window == 10
    log2, log3 = mp.log(2), mp.log(3)
    for i, v in enumerate(est.values, start=1):
        assert abs(v - (log3 + log2 / i)) < 1e-12
    assert abs(est.estimate - (log3 + log2 / 31)) < 1e-12


def test_truncated_fib_matches_fibonacci_numbers():
    est = truncated_estimates(FIB, pt(2, 3), 30)["summed"]
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
    s = truncated_estimates(DIAG23, pt(2, 3), 8)["summed"]
    a = truncated_estimates(DIAG23, pt(2, 3), 8)["averaged"]
    # one matrix: k^n = 1, the variants coincide
    assert [str(x) for x in s.values] == [str(x) for x in a.values]


def test_truncated_word_budget():
    F = [DIAG23, FIB]
    with pytest.raises(BudgetError):
        truncated_estimates(F, pt(2, 3), 20, word_budget=100)["summed"]


def test_truncated_word_budget_counts_every_level():
    # the budget bounds the reported word_count, k + k^2 + ... + k^n, also for one map
    with pytest.raises(BudgetError, match=r"^word budget 100 exceeded at 101 words$"):
        truncated_estimates(FIB, pt(2, 3), 2000, word_budget=100)["summed"]
    assert truncated_estimates(FIB, pt(2, 3), 100, word_budget=100)["summed"].word_count == 100
    F = [DIAG23, FIB]
    assert truncated_estimates(F, pt(2, 3), 6, delta=Fraction(3), word_budget=126)["summed"].word_count == 126
    with pytest.raises(BudgetError, match=r"^word budget 125 exceeded at 126 words$"):
        truncated_estimates(F, pt(2, 3), 6, word_budget=125)["summed"]


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


def test_classify_system_over_budget_is_unknown():
    F = [IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])]
    assert classify_orbit(F, pt(2, 3), budget=3).to_json() == {"status": "unknown", "budget": 3}


def test_escape_certificate_without_a_visible_step():
    # no step the witness search tries (below 4096) outgrows the start valuation 5000 at p=2
    v = classify_orbit(SHEAR, PointGm((Fraction(2**5000), Fraction(3))))
    assert v.status == "infinite"
    assert v.certificate == "valuation vector at p=3 is not fixed by A^1"


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
            truncated_estimates(FIB, pt(2, 3), n)["summed"]


def test_truncated_exact_level_sums_zero_for_torsion():
    est = truncated_estimates(FIB, pt(1, -1), 10)["summed"]
    assert est.is_exact_zero()
    assert all(abs(v) == 0 for v in est.values)


def test_level_sums_match_a_sum_over_every_word(rng):
    # the Weil heights of the k^nu words of level nu, each word's matrix built by
    # IntMatrix.mul; over all words the order of the factors does not matter
    torsion = 0
    for trial in range(40):
        dim, k = rng.choice((2, 3)), rng.randint(1, 3)
        mats = [random_matrix(rng, dim) for _ in range(k)]
        P = random_point(rng, dim, [Fraction(1), Fraction(-1)] if trial % 4 == 0 else COORD_CHOICES[2:])
        prof = log_profile(P)
        torsion += prof.is_torsion()
        sums = list(islice(_level_sums(mats, P), 4))
        for nu, got in enumerate(sums, 1):
            expected = LogLinear()
            for word in product(range(k), repeat=nu):
                expected = expected + weil_height(prof.transport(reduce(IntMatrix.mul, [mats[i] for i in word]))).symbolic
            assert got == expected, (mats, P, nu)
        assert got.is_zero == prof.is_torsion()
        est = truncated_estimates(mats, P, 4, delta=2, l_override=0)["summed"]
        assert est.exact_level_sums == sums
    assert torsion == 10


def test_height_json_shapes():
    h = canonical_height_closed(FIB, pt(2, 3))
    d = h.to_json()
    assert set(d) == {"decimal", "symbolic"}
    est = truncated_estimates(FIB, pt(2, 3), 6)["summed"]
    d = est.to_json()
    assert d["variant"] == "summed" and len(d["values"]) == 6


def test_dimension_mismatch():
    from monoheight import InputError

    with pytest.raises(InputError):
        canonical_height_closed(FIB, pt(2, 3, 5))


def test_closed_matches_truncated_limit():
    for A, P in [(FIB, pt(2, 3)), (DIAG23, pt(6, "1/5")), (SHEAR, pt(2, 3))]:
        h = canonical_height_closed(A, P)
        est = truncated_estimates(A, P, 60)["summed"]
        assert abs(float(h.value(80)) - est.values[-1]) < (
            1e-9 if jordan_l(A) == 0 else math.log(2) / 50
        )


def jordan_l(A):
    from monoheight import jordan_profile

    return jordan_profile(A).l
