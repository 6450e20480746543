"""Acceptance suite: one test per shipped guarantee, with stated tolerances.

Each test is self-contained and enforces its own runtime cap, so `pytest -v`
on this file reads as a pass/fail line per guarantee.  Derived oracles were
frozen from independent recomputations (direct orbit formulas, high-precision
mpmath transcriptions); nothing here trusts the code path it is checking.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from monoheight import (
    CertifiedReal,
    IntMatrix,
    PointGm,
    Quad,
    baker_c11,
    canonical_height_closed,
    canonical_height_truncated,
    check_reduction,
    classify_orbit,
    dynamical_degree,
    effective_constants,
    eval_monomial,
    jordan_profile,
    log_profile,
    spectral_radius,
    system_report,
)
from monoheight.precision import fraction_to_mpf
from conftest import COORD_CHOICES, random_matrix, random_point

FIB = IntMatrix([[1, 1], [1, 0]])
SHEAR = IntMatrix([[1, 1], [0, 1]])
DIAG23 = IntMatrix([[2, 0], [0, 3]])
J2 = IntMatrix([[2, 1], [0, 2]])


def pt(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def hval(h, prec=96):
    return fraction_to_mpf(h.value(prec), prec)


def test_criterion_01_composition_identity():
    # phi_(AB) = phi_A after phi_B: exact, 200 random triples, N in 2..4
    t0 = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(2, 4)
        A = random_matrix(rng, n)
        B = random_matrix(rng, n)
        P = random_point(rng, n)
        lhs = eval_monomial(A.mul(B), P, bit_budget=2**26)
        rhs = eval_monomial(A, eval_monomial(B, P, bit_budget=2**26), bit_budget=2**26)
        assert lhs.coords == rhs.coords
    assert time.monotonic() - t0 < 10


def test_criterion_02_valuation_transport_oracle():
    # transport along A^n equals the profile of direct iteration, exact, n <= 6
    t0 = time.monotonic()
    rng = random.Random(102)
    for trial in range(200):
        n_dim = rng.randint(2, 4)
        A = random_matrix(rng, n_dim)
        P = random_point(rng, n_dim)
        n = trial % 6 + 1
        Q = P
        for _ in range(n):
            Q = eval_monomial(A, Q, bit_budget=2**28)
        direct = log_profile(Q)
        moved = log_profile(P).transport(A.pow(n))
        assert direct.vals == moved.vals and direct.signs == moved.signs
    assert time.monotonic() - t0 < 30


def test_criterion_03_closed_form_canonical_heights():
    t0 = time.monotonic()
    h = canonical_height_closed(DIAG23, pt(2, 3))
    assert h.exact and h.symbolic.coeffs == {3: Quad(1)}
    h = canonical_height_closed(SHEAR, pt(2, 3))
    assert h.exact and h.symbolic.coeffs == {3: Quad(1)}
    h_fib = canonical_height_closed(FIB, pt(2, 3))
    # (phi log 2 + log 3)/sqrt 5, i.e. (5+sqrt5)/10 and sqrt5/5
    assert h_fib.symbolic.coeffs[2] == Quad(Fraction(1, 2), Fraction(1, 10), 5)
    assert h_fib.symbolic.coeffs[3] == Quad(0, Fraction(1, 5), 5)
    with mp.workprec(96):
        want = ((1 + mp.sqrt(5)) / 2 * mp.log(2) + mp.log(3)) / mp.sqrt(5)
        assert abs(hval(h_fib) - want) < 1e-20

    # truncated estimators at n = 40 against exact orbit-formula predictions
    est = canonical_height_truncated(DIAG23, pt(2, 3), 40)
    assert abs(est.estimate - mp.log(3)) < 1e-9
    est = canonical_height_truncated(FIB, pt(2, 3), 40)
    assert abs(est.estimate - hval(h_fib)) < 1e-9
    est = canonical_height_truncated(SHEAR, pt(2, 3), 40)
    # values are log3 + log2/nu; the tail-window max sits at nu = 31
    assert abs(est.estimate - (mp.log(3) + mp.log(2) / 31)) < 1e-9
    assert time.monotonic() - t0 < 5


def test_criterion_04_step_relation():
    t0 = time.monotonic()
    cases = [
        (DIAG23, pt(2, 3), 1),
        (SHEAR, pt(2, 3), 1),
        (FIB, pt(2, 3), 1),
        (IntMatrix([[-2, 0], [0, 1]]), pt(3, 5), 2),
    ]
    for A, P, m in cases:
        rho = spectral_radius(A).to_mpf(96)
        Q = P
        for _ in range(m):
            Q = eval_monomial(A, Q)
        lhs = hval(canonical_height_closed(A.pow(m), Q))
        # one more m-step: h(phi_(A^m)(Q)) vs rho^m h(Q), both under A^m
        direct = hval(canonical_height_closed(A.pow(m), P))
        assert abs(lhs - rho**m * direct) < 1e-9
        # and the step inside one map: h_A(phi_A^m P) = rho^m h_A(P)
        assert abs(
            hval(canonical_height_closed(A, Q))
            - rho**m * hval(canonical_height_closed(A, P))
        ) < 1e-9
    assert time.monotonic() - t0 < 5


def test_criterion_05_preperiodic_vanishing():
    t0 = time.monotonic()
    rng = random.Random(105)
    for _ in range(20):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        F = [random_matrix(rng, n) for _ in range(k)]
        for mask in range(2**n):
            coords = tuple(Fraction(1 if mask & (1 << j) else -1) for j in range(n))
            P = PointGm(coords)
            est = canonical_height_truncated(F, P, 4, delta=2, l_override=0)
            assert est.is_exact_zero()
            v = classify_orbit(F, P)
            assert v.status == "finite"
    assert time.monotonic() - t0 < 10


def test_criterion_06_diagonal_system_dynamical_degree():
    t0 = time.monotonic()
    F = [DIAG23, IntMatrix([[5, 0], [0, 2]])]
    d = dynamical_degree(F, n_max=8)
    assert d.certificate.status == "certified_diagonal"
    assert d.exact is not None
    assert d.exact.compare(CertifiedReal.from_fraction(Fraction(5))) == 0
    rep = check_reduction(F, pt(2, 3), n_max=8)
    assert rep.all_pass
    assert time.monotonic() - t0 < 5


def test_criterion_07_polynomial_family_certificate():
    t0 = time.monotonic()
    A2 = IntMatrix([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(FIB.mul(FIB).row_lists(), FIB.row_lists())])
    d = dynamical_degree([FIB, A2], n_max=6)
    cert = d.certificate
    assert cert.status == "certified_polynomial_family"
    assert cert.base_index == 0
    # recovered coefficients are x^2 + x reduced mod the characteristic
    # polynomial x^2 - x - 1: the difference (x^2+x) - (2x+1) is exactly it
    assert cert.polynomials == ((Fraction(1), Fraction(2)),)
    g_full, g_rec = [0, 1, 1], [1, 2, 0]
    diff = [a - b for a, b in zip(g_full, g_rec)]
    from monoheight.matrices import charpoly

    assert diff == list(charpoly(FIB).coeffs)
    assert time.monotonic() - t0 < 5


def test_criterion_08_height_zero_iff_finite_irreducible():
    t0 = time.monotonic()
    rep = system_report(FIB, pt(2, 3), n_max=8)
    assert rep.finiteness_equivalence == "applies"
    assert not rep.closed_height.is_zero()
    assert rep.verdict.status == "infinite"
    rep = system_report(FIB, pt(1, -1), n_max=8)
    assert rep.closed_height.is_zero()
    assert rep.verdict.status == "finite"
    assert time.monotonic() - t0 < 5


def test_criterion_09_height_zero_without_finiteness():
    t0 = time.monotonic()
    rep = system_report(DIAG23, pt(2, 1), n_max=8)
    assert rep.closed_height.exact and rep.closed_height.is_zero()
    assert rep.verdict.status == "infinite"
    assert rep.zero_height_dim_bound == 1
    assert any("dimension >= 1" in note for note in rep.notes)
    assert time.monotonic() - t0 < 5


def test_criterion_10_linear_form_constant_values():
    t0 = time.monotonic()
    assert baker_c11(1) == 2**61
    assert baker_c11(2) == 2**73
    assert baker_c11(1) == 2 ** (8 * 1 + 53) * 1 ** (2 * 1)
    assert baker_c11(2) == 2 ** (8 * 2 + 53) * 2 ** (2 * 2)
    assert time.monotonic() - t0 < 1


def test_criterion_11_height_exceeds_effective_bound():
    t0 = time.monotonic()
    points = [pt(2, 3), pt(3, 2), pt(5, 7), pt("1/2", "1/3"), pt(7, 10)]
    for P in points:
        c = effective_constants(J2, P, prec=192)
        assert c.height_exceeds_bound
        assert c.margin_neg_log > 1e10
    assert time.monotonic() - t0 < 5


def test_criterion_12_bound_monotone_in_point_height():
    t0 = time.monotonic()
    vals = [
        effective_constants(J2, pt(2**m, 3), prec=192).neg_log_c.neg_log
        for m in range(1, 11)
    ]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert time.monotonic() - t0 < 5


def test_criterion_13_product_formula():
    t0 = time.monotonic()
    rng = random.Random(113)
    for _ in range(1000):
        num = rng.randint(-400, 400) or 7
        den = rng.randint(1, 400)
        q = Fraction(num, den)
        prof = log_profile(PointGm((q,)))
        assert prof.product_formula_sum(0).is_zero
    assert time.monotonic() - t0 < 5


def test_criterion_14_jordan_invariants():
    t0 = time.monotonic()
    p = jordan_profile(FIB)
    assert p.rbar == 2 and p.r == 1 and p.rbar > p.r
    p = jordan_profile(DIAG23)
    assert p.rbar == 1 and p.r == 1
    assert jordan_profile(SHEAR).l == 1
    assert time.monotonic() - t0 < 2


def test_random_point_choices_match_stated_corpus():
    # the shared corpus draws coordinates from {+-1, +-2, +-3, +-1/2, +-2/3}
    want = {
        Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
        Fraction(-3), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
        Fraction(-2, 3),
    }
    assert set(COORD_CHOICES) == want
