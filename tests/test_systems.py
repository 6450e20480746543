"""Word growth, dynamical degree enclosures, and reduction certificates."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

from mpmath import mp
import pytest

import monoheight.heights
import monoheight.matrices
import monoheight.systems
from monoheight import (
    BudgetError,
    CertifiedReal,
    GrowthTable,
    InputError,
    IntMatrix,
    PointGm,
    Quad,
    SystemF,
    UnsupportedError,
    check_reduction,
    correction_exponent,
    dynamical_degree,
    growth_table,
    log_profile,
    spectral_radius,
    system_report,
    truncated_estimates,
)
from monoheight.matrices import charpoly, trace_det_radius
from monoheight.polys import IntPoly
from monoheight.precision import default_precision
from monoheight.systems import (
    GrowthRow,
    _argmax_radius,
    _compare_surds,
    _empirical_certificate,
    _level_max_radius,
    _norm_bound,
    _twice_radius,
    _word_levels,
)

from conftest import random_matrix

FIB = IntMatrix([[1, 1], [1, 0]])
SHEAR_U = IntMatrix([[1, 1], [0, 1]])
SHEAR_L = IntMatrix([[1, 0], [1, 1]])
DIAG23 = IntMatrix([[2, 0], [0, 3]])
DIAG52 = IntMatrix([[5, 0], [0, 2]])
FREE3 = [SHEAR_U, SHEAR_L, IntMatrix([[2, 1], [1, 1]])]
# non-commuting 3x3 pair whose level 3 has tied maximisers out of enumeration order
PAIR3 = [IntMatrix([[-1, -1, -1], [1, 2, -1], [2, 2, -1]]), IntMatrix([[-1, -1, 0], [-1, 0, 1], [2, 0, 0]])]

# 2x2 cases of each shape the trace/determinant ranking distinguishes
RANKING_CASES = [
    [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [0, 2]], [[-3, 1], [0, -3]],  # t^2 = 4d
    [[2, 0], [0, 3]], [[2, 0], [0, -3]], [[1, 2], [2, 1]], [[-1, 0], [0, 1]],  # square t^2 - 4d
    [[0, 1], [1, 0]], [[0, 2], [3, 0]], [[0, -1], [1, 0]],  # t = 0
    [[1, 1], [1, 0]], [[2, 1], [1, 1]], [[3, 1], [1, -2]],  # irrational real roots, d < 0 or > 0
    [[1, -1], [1, 1]], [[1, -2], [3, 1]], [[-2, -5], [1, 0]],  # complex pairs
    [[1000, -999], [998, 1000]], [[-1000, 7], [13, 999]], [[1000, 1000], [-1000, 999]],
]


def pt(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def test_system_constructor():
    s = SystemF((DIAG23, DIAG52))
    assert s.k == 2 and s.n == 2
    with pytest.raises(InputError):
        SystemF(())
    with pytest.raises(InputError):
        SystemF((DIAG23, IntMatrix([[2]])))


def test_max_word_radius_single():
    # the growth row of level n holds the max radius over its words and a maximiser
    row = growth_table(DIAG23, n_max=4).rows[3]
    assert row.rho.compare(CertifiedReal.from_fraction(Fraction(81))) == 0
    assert row.word == (0, 0, 0, 0)


def test_max_word_radius_diagonal_pair():
    row = growth_table([DIAG23, DIAG52], n_max=2).rows[1]
    assert row.rho.compare(CertifiedReal.from_fraction(Fraction(25))) == 0
    assert row.word == (1, 1)


def test_max_word_radius_shear_pair():
    row = growth_table([SHEAR_U, SHEAR_L], n_max=2).rows[1]
    # the mixed words hit [[2,1],[1,1]] with radius (3+sqrt5)/2
    assert row.rho.descriptor == Quad(Fraction(3, 2), Fraction(1, 2), 5)
    assert sorted(row.word) == [0, 1]


def test_max_word_radius_budget():
    # a budget below the 2 words of level 1 leaves no row to report
    with pytest.raises(BudgetError):
        growth_table([DIAG23, DIAG52], n_max=20, word_budget=1)


def test_growth_table_bit_budget_refuses_a_huge_generator():
    # level 1 already holds entries above DEFAULT_BIT_BUDGET (2^16 bits): no row
    with pytest.raises(BudgetError, match="bits in word enumeration"):
        growth_table(IntMatrix([[2**70000, 1], [1, 0]]), n_max=1)


def test_growth_table_bit_budget_stops_after_the_last_fitting_level():
    # 2^40000 I fits at level 1; its square has 80001-bit entries, so the
    # table stops there with one exact row
    t = growth_table(IntMatrix([[2**40000, 0], [0, 2**40000]]), n_max=3)
    assert [row.n for row in t.rows] == [1]
    assert t.rows[0].rho.compare(CertifiedReal.from_fraction(Fraction(2**40000))) == 0


def test_word_levels_raise_each_budget_at_its_level():
    shears = SystemF((SHEAR_U, SHEAR_L))
    levels = _word_levels(shears, 100)
    for n in range(1, 6):
        level = next(levels)
        assert [w for w, _ in level] == list(product(range(2), repeat=n))
        # each product is its word's generators multiplied in word order
        assert all(M == reduce(IntMatrix.mul, [shears.matrices[i] for i in w]) for w, M in level)
    # 2 + 4 + ... + 32 = 62 words fit in a budget of 100; level 6 would make 126
    with pytest.raises(BudgetError, match=r"^word budget 100 exceeded at 126 words$"):
        next(levels)
    # 2^40000 I fits at level 1; its square has 80001-bit entries
    levels = _word_levels(SystemF((IntMatrix([[2**40000, 0], [0, 2**40000]]),)), 10**6)
    assert [w for w, _ in next(levels)] == [(0,)]
    with pytest.raises(BudgetError, match=r"^matrix entries exceeded 65536 bits in word enumeration$"):
        next(levels)


def test_growth_table_bounds_sandwich():
    t = growth_table([SHEAR_U, SHEAR_L], n_max=8)
    assert [row.n for row in t.rows] == list(range(1, 9))
    lo, hi = t.lower_bound(), t.upper_bound()
    assert lo <= hi
    with mp.workprec(64):
        phi = (1 + mp.sqrt(5)) / 2
        assert lo <= phi <= hi


@pytest.mark.parametrize("call", [
    lambda F, n_max: growth_table(F, n_max=n_max),
    lambda F, n_max: dynamical_degree(F, n_max=n_max),
    lambda F, n_max: correction_exponent(F, n_max=n_max),
    lambda F, n_max: check_reduction(F, pt(2, 3), n_max=n_max),
    lambda F, n_max: system_report(F, pt(2, 3), n_max=n_max),
], ids=["growth_table", "dynamical_degree", "correction_exponent", "check_reduction", "system_report"])
@pytest.mark.parametrize("n_max", [0, -1])
def test_n_max_below_one_rejected(call, n_max):
    with pytest.raises(InputError, match="n_max must be >= 1"):
        call([SHEAR_U, SHEAR_L], n_max)


@pytest.mark.parametrize("n_max", [2.5, 3.0, True])
def test_n_max_must_be_an_integer(n_max):
    for call in (growth_table, system_report):
        with pytest.raises(InputError, match="n_max must be an integer"):
            call([SHEAR_U, SHEAR_L], *([pt(2, 3)] if call is system_report else []), n_max=n_max)


def _loop_best_row(rows, prec):
    """The best-row search as a loop, kept as the reference: the first row maximizing rho^(1/n)."""
    best = None
    with mp.workprec(prec):
        for row in rows:
            v = mp.root(row.rho.to_mpf(prec), row.n)
            if best is None or v > best[1]:
                best = (row, v)
    return best


def _loop_upper_bound(rows):
    """GrowthTable.upper_bound as a loop, kept as the reference: min of maxdeg^(1/m)."""
    best = None
    with mp.workprec(default_precision()):
        for row in rows:
            v = mp.root(mp.mpf(row.maxdeg), row.n)
            if best is None or v < best:
                best = v
    return best


def _loop_argmax_radius(mats):
    """_argmax_radius as a loop, kept as the reference: the first matrix of largest radius."""
    best = best_i = None
    for i, M in enumerate(mats):
        rho = spectral_radius(M)
        if best is None or best.compare(rho) < 0:
            best, best_i = rho, i
    return best_i


def _rows_of(values):
    """Growth rows (n, rho, maxdeg) with distinct words, so the chosen row is
    identifiable; each product is the 1x1 matrix [[rho]]."""
    return [GrowthRow(n=n, rho=CertifiedReal.from_fraction(Fraction(rho)), word=(i,),
                      product=IntMatrix([[rho]]), maxdeg=deg, deg_word=(i,))
            for i, (n, rho, deg) in enumerate(values)]


def test_builtin_rankers_match_their_loops():
    A, B = IntMatrix([[2, 1], [1, 1]]), IntMatrix([[1, 1], [0, 1]])
    AB, BA = A.mul(B), B.mul(A)
    diag32 = IntMatrix([[3, 0], [0, 2]])
    assert spectral_radius(AB).compare(spectral_radius(BA)) == 0
    mat_cases = [[DIAG23, diag32], [diag32, DIAG23], [AB, BA], [BA, AB], [B, AB, BA],
                 [A, B], [B, A], [B, B, A, AB], [FIB]]
    assert [_argmax_radius(m) for m in mat_cases] == [_loop_argmax_radius(m) for m in mat_cases]
    assert [_argmax_radius(m) for m in mat_cases[:5]] == [0, 0, 0, 0, 1]
    # ties: 3 = 9^(1/2) = 27^(1/3) in rho^(1/n), and 3 = 9^(1/2) in maxdeg^(1/m)
    row_cases = [[(1, 3, 3), (2, 9, 9)], [(2, 9, 9), (1, 3, 3)], [(1, 2, 5), (3, 27, 27), (2, 9, 9)],
                 [(1, 2, 4), (2, 5, 3)], [(2, 5, 3), (1, 2, 4)], [(1, 7, 7)], []]
    for values in row_cases:
        rows = _rows_of(values)
        old = _loop_best_row(rows, default_precision())
        assert GrowthTable(rows).lower_bound() == (1 if old is None else max(1, old[1]))
        if old is not None:
            # the star certificate's psi is the product of the first row of largest root
            cert = _empirical_certificate(rows)
            assert (cert.status, cert.psi_word, cert.t) == ("empirical", old[0].word, old[0].n)
            assert cert.psi is old[0].product
        assert GrowthTable(rows).upper_bound() == _loop_upper_bound(rows)
    assert _empirical_certificate(_rows_of(row_cases[2])).psi_word == (1,)
    assert GrowthTable([]).upper_bound() is None


def test_dynamical_degree_diagonal_pair():
    d = dynamical_degree([DIAG23, DIAG52], n_max=6)
    assert d.certificate.status == "certified_diagonal"
    assert d.exact is not None
    assert d.exact.compare(CertifiedReal.from_fraction(Fraction(5))) == 0
    assert d.lo <= 5 <= d.hi


def test_dynamical_degree_single_fib():
    d = dynamical_degree(FIB, n_max=6)
    assert d.certificate.status == "certified_polynomial_family"
    assert d.exact.descriptor == Quad(Fraction(1, 2), Fraction(1, 2), 5)
    with mp.workprec(160):
        phi = (1 + mp.sqrt(5)) / 2
        # the enclosure must contain the true value
        assert d.lo < phi < d.hi


@pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 0]]],
                         ids=["fib", "cubic"])
def test_single_map_is_a_polynomial_family(rows):
    # one generator is the polynomial family with no polynomials
    assert dynamical_degree(IntMatrix(rows), n_max=6).certificate.to_json() == {
        "status": "certified_polynomial_family", "psi_word": [1], "t": 1,
        "base_index": 1, "polynomials": [],
    }


def test_dynamical_degree_commuting_shears():
    # [[1,2],[0,1]] = 2 A - I is a polynomial in A: certified family, delta = 1
    d = dynamical_degree([SHEAR_U, IntMatrix([[1, 2], [0, 1]])], n_max=6)
    assert d.certificate.status == "certified_polynomial_family"
    assert d.exact.compare(CertifiedReal.from_fraction(Fraction(1))) == 0


def test_polynomial_family_recovery():
    # A2 = A^2 + A; the recovered coefficients are its reduction mod charpoly
    A2 = FIB.mul(FIB)
    A2 = IntMatrix([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(A2.rows, FIB.rows)])
    d = dynamical_degree([FIB, A2], n_max=6)
    cert = d.certificate
    assert cert.status == "certified_polynomial_family"
    assert cert.base_index == 0
    assert cert.polynomials == ((Fraction(1), Fraction(2)),)
    # x^2 + x - (2x + 1) = x^2 - x - 1, the characteristic polynomial
    g_full = [0, 1, 1]
    g_rec = [1, 2, 0]
    diff = IntPoly([a - b for a, b in zip(g_full, g_rec)])
    assert diff == charpoly(FIB)


def test_noncommuting_shears_empirical():
    d = dynamical_degree([SHEAR_U, SHEAR_L], n_max=8)
    cert = d.certificate
    assert cert.status == "empirical"
    assert not cert.certified
    assert cert.t == 2 and sorted(cert.psi_word) == [0, 1]
    assert d.exact is None


def test_correction_exponent_certified():
    c = correction_exponent(FIB, n_max=6)
    assert c.certified and c.l == 0 and c.method == "reduced map jordan profile"
    c = correction_exponent(SHEAR_U, n_max=6)
    assert c.certified and c.l == 1


def test_correction_exponent_heuristic():
    c = correction_exponent([SHEAR_U, SHEAR_L], n_max=8)
    assert not c.certified
    assert c.l in (0, 1)
    assert c.method.startswith("heuristic")


def test_check_reduction_fib():
    rep = check_reduction(FIB, pt(2, 3), n_max=6)
    assert rep.all_pass
    assert len(rep.items) == 3
    names = [n for n, _, _ in rep.items]
    assert "degree equals reduced-map degree" in names


def test_check_reduction_needs_certificate():
    with pytest.raises(InputError):
        check_reduction([SHEAR_U, SHEAR_L], pt(2, 3), n_max=6)


def test_system_report_fib():
    rep = system_report(FIB, pt(2, 3), n_max=8)
    assert rep.finiteness_equivalence == "applies"
    assert rep.verdict.status == "infinite"
    assert rep.closed_height.str15() == "0.992880363370112"
    assert rep.zero_height_dim_bound is None
    assert not any("inconsistency" in n for n in rep.notes)


def test_system_report_zero_height_bound():
    rep = system_report(DIAG23, pt(2, 1), n_max=8)
    assert rep.finiteness_equivalence == "inapplicable"
    assert rep.verdict.status == "infinite"
    assert rep.zero_height_dim_bound == 1
    assert any("dimension >= 1" in n for n in rep.notes)


def test_system_report_needs_an_exact_zero():
    # dominant eigenvalues +-10i: no closed form, and the level sums are
    # log 2 at every level, so the estimate log(2)/10^10 is small but not zero
    A = IntMatrix([[0, -100, 0], [1, 0, 0], [0, 0, 1]])
    rep = system_report(A, pt(1, 1, 2))
    assert rep.closed_height is None
    assert rep.trunc_summed.estimate < 1e-10
    assert not rep.trunc_summed.is_exact_zero()
    assert rep.zero_height_dim_bound is None
    assert "zero_height_subgroup_dim_bound" not in rep.to_json()
    assert not any("zero canonical height" in n for n in rep.notes)


def test_system_report_torsion():
    rep = system_report(FIB, pt(1, -1), n_max=8)
    assert rep.finiteness_equivalence == "applies"
    assert rep.verdict.status == "finite"
    assert any("orbit finite" in n for n in rep.notes)


def test_system_report_dimension_check():
    with pytest.raises(InputError):
        system_report(FIB, pt(2, 3, 5))


def _float_predicates(degree, k):
    """(delta > 1, delta > k) as decided before the exact tests: a float test
    on the lower bound, then the exact comparison; kept as the reference."""
    def gt(v):
        return degree.exact is not None and degree.exact.compare(CertifiedReal.from_fraction(Fraction(v))) > 0
    return float(degree.lo) > 1 + 1e-15 or gt(1), float(degree.lo) > k or gt(k)


@pytest.mark.parametrize("rows, point, gt1, gtk, bound", [
    ([[[2, 0], [0, 1]], [[1, 0], [0, 2]]], (2, 3), True, False, None),  # delta = k = 2
    ([[[1, 1], [0, 1]], [[1, 2], [0, 1]]], (1, -1), False, False, None),  # delta = 1, zero height
    ([[[2, 0], [0, 3]], [[5, 0], [0, 2]]], (1, 1), True, True, 1),  # delta = 5, zero height
], ids=["delta-equals-k", "delta-equals-1", "delta-above-1"])
def test_reduction_predicates_match_their_float_forms(rows, point, gt1, gtk, bound):
    rep = system_report([IntMatrix(r) for r in rows], pt(*point), n_max=6)
    assert _float_predicates(rep.degree, len(rows)) == (gt1, gtk)
    assert ("delta <= k; the finiteness equivalence does not apply" in rep.notes) == (not gtk)
    assert rep.zero_height_dim_bound == bound
    assert any("dimension >= 1" in n for n in rep.notes) == (bound is not None)


@pytest.mark.parametrize("mats, n_max", [
    ([SHEAR_U, SHEAR_L], 6),
    (FREE3, 4),
    ([DIAG23, DIAG52], 6),
])
def test_system_report_estimates_match_standalone_calls(mats, n_max):
    rep = system_report(mats, pt(2, 3), n_max=n_max)
    delta = rep.degree.exact if rep.degree.exact is not None else rep.degree.hi
    assert (rep.trunc_summed.variant, rep.trunc_averaged.variant) == ("summed", "averaged")
    for est in (rep.trunc_summed, rep.trunc_averaged):
        alone = truncated_estimates(mats, pt(2, 3), est.n,
                                    l_override=rep.correction.l, delta=delta)[est.variant]
        assert alone.to_json() == est.to_json()


def test_system_report_depth_stops_at_4096_words_a_level():
    # a huge n_max walks to level 12 (2^12 = 4096 words), whose walk of
    # 2 + 4 + ... + 2^12 = 8190 words must fit the budget
    shears = [SHEAR_U, SHEAR_L]
    capped = system_report(shears, pt(2, 3), n_max=12, word_budget=8190)
    assert capped.trunc_summed.n == 12 and capped.trunc_summed.word_count == 8190
    assert system_report(shears, pt(2, 3), n_max=10**7, word_budget=8190).to_json() == capped.to_json()
    with pytest.raises(BudgetError, match=r"^word budget 5000 exceeded at 8190 words$"):
        system_report(shears, pt(2, 3), n_max=10**7, word_budget=5000)


@pytest.mark.parametrize("word_budget", [10**6, 100])
def test_dynamical_degree_certificate_reads_the_first_8_levels(word_budget):
    shears = [SHEAR_U, SHEAR_L]
    d = dynamical_degree(shears, n_max=12, word_budget=word_budget)
    # 2 + 4 + ... + 32 = 62 words fit in a budget of 100, level 6 does not
    assert len(d.table.rows) == (12 if word_budget == 10**6 else 5)
    rows8 = growth_table(shears, n_max=8, word_budget=word_budget).rows
    def fields(row):
        return row.n, row.rho.to_json(), row.word, row.maxdeg, row.deg_word

    assert [fields(r) for r in d.table.rows[:8]] == [fields(r) for r in rows8]
    expected = _empirical_certificate(rows8)
    assert d.certificate.to_json() == expected.to_json()


def test_dynamical_degree_rejects_crossed_bounds(monkeypatch):
    # a Fekete upper bound below the certified lower bound means a bound is wrong
    monkeypatch.setattr(GrowthTable, "upper_bound", lambda self: mp.mpf(1))
    with pytest.raises(ArithmeticError, match="bounds cross"):
        dynamical_degree([SHEAR_U, SHEAR_L], n_max=6)


def test_system_report_walks_each_system_once(monkeypatch):
    tables = []
    states = []
    real_table = monoheight.systems.growth_table
    real_place_heights = monoheight.heights._place_heights

    def counting_table(*args, **kwargs):
        tables.append(args)
        return real_table(*args, **kwargs)

    def counting_place_heights(vals):
        states.append(tuple(vals.values()))
        return real_place_heights(vals)

    monkeypatch.setattr(monoheight.systems, "growth_table", counting_table)
    monkeypatch.setattr(monoheight.heights, "_place_heights", counting_place_heights)
    shears = [SHEAR_U, SHEAR_L]
    rep = system_report(shears, pt(2, 3), n_max=6)
    assert len(tables) == 1
    level = [log_profile(pt(2, 3))]
    distinct = 0
    for _ in range(rep.trunc_summed.n):
        level = list({img.state_key(): img
                      for state in level for img in (state.transport(M) for M in shears)}.values())
        distinct += len(level)
    assert len(states) == distinct


def test_system_report_surfaces_internal_failures(monkeypatch):
    def failing(exc):
        def closed(*args, **kwargs):
            raise exc
        return closed

    monkeypatch.setattr(monoheight.systems, "canonical_height_closed",
                        failing(ArithmeticError("exact self-check failed")))
    with pytest.raises(ArithmeticError):
        system_report(DIAG23, pt(2, 3), n_max=4)
    monkeypatch.setattr(monoheight.systems, "canonical_height_closed",
                        failing(UnsupportedError("no closed form")))
    rep = system_report(DIAG23, pt(2, 3), n_max=4)
    assert "closed-form height unavailable: no closed form" in rep.notes


def _trace_det(M):
    (a, b), (c, e) = M.rows
    return a + e, a * e - b * c


def _ranking_matrices(rng):
    mats = [IntMatrix(rows) for rows in RANKING_CASES]
    while len(mats) < 140:
        bound = 3 if len(mats) < 100 else 1000
        try:
            mats.append(IntMatrix([[rng.randint(-bound, bound) for _ in range(2)] for _ in range(2)]))
        except InputError:  # determinant zero
            continue
    # transposes share trace and determinant: exact ties
    return mats + [IntMatrix([list(col) for col in zip(*M.rows)]) for M in mats[::7]]


def test_trace_det_ranking_matches_spectral_radius(rng):
    mats = _ranking_matrices(rng)
    radii = [spectral_radius(M) for M in mats]
    for M, rho in zip(mats, radii):
        winner = trace_det_radius(*_trace_det(M))
        assert (winner.to_json(), winner.exact_str()) == (rho.to_json(), rho.exact_str())
    keys = [_twice_radius(*_trace_det(M)) for M in mats]
    signs = {-1: 0, 0: 0, 1: 0}
    for i, j in combinations(range(len(mats)), 2):
        sign = _compare_surds(keys[i], keys[j])
        assert sign == radii[i].compare(radii[j]) == -_compare_surds(keys[j], keys[i]), (mats[i], mats[j])
        signs[sign] += 1
    assert min(signs.values()) > 100


def _sorted_level_max_radius(level):
    """The sort-based 2x2 ranking the one-pass walk replaced, kept as an oracle:
    the first word of largest radius in order of decreasing norm bound."""
    best_key = best = None
    for word, M in sorted(level, key=lambda wm: -_norm_bound(wm[1])):
        t, d = _trace_det(M)
        key = _twice_radius(t, d)
        if best_key is None or _compare_surds(key, best_key) > 0:
            best_key, best = key, (t, d, word)
    t, d, word = best
    return trace_det_radius(t, d), word


def test_one_pass_ranking_matches_the_sorted_ranking(rng):
    tied = {"norm_bounds_differ": 0, "norm_bounds_equal": 0}
    for _ in range(80):
        a, b = (random_matrix(rng, 2) for _ in range(2))
        neg_a = IntMatrix([[-v for v in row] for row in a.rows])
        conj_a = SHEAR_U.mul(a).mul(IntMatrix([[1, -1], [0, 1]]))
        # AB and BA, and A and its conjugate, tie in radius; A and -A tie in
        # radius and norm bound
        levels = _word_levels(SystemF((a, b, neg_a, conj_a)), 10**6)
        for _ in range(rng.randint(1, 3)):
            level = next(levels)
        level = rng.sample(level, len(level))  # any enumeration order
        rho, word, M = _level_max_radius(level)
        expected_rho, expected_word = _sorted_level_max_radius(level)
        assert word == expected_word, (a, b, level)
        assert M is dict(level)[word]
        assert (rho.to_json(), rho.exact_str()) == (expected_rho.to_json(), expected_rho.exact_str())
        keys = {w: _twice_radius(*_trace_det(M)) for w, M in level}
        bounds = [_norm_bound(M) for w, M in level if _compare_surds(keys[w], keys[word]) == 0]
        tied["norm_bounds_differ"] += len(set(bounds)) > 1
        tied["norm_bounds_equal"] += bounds.count(max(bounds)) > 1
    assert min(tied.values()) >= 20, tied


def test_system_report_certifies_no_level_word(monkeypatch):
    analysed = []
    real = monoheight.matrices.charpoly

    def counting(A):
        analysed.append(A)
        return real(A)

    monkeypatch.setattr(monoheight.matrices, "charpoly", counting)
    shears = [SHEAR_U, SHEAR_L]
    rep = system_report(shears, pt(2, 3), n_max=6)
    psi = rep.degree.certificate.psi
    ids = [id(A) for A in analysed]
    # psi, and generators that classify_orbit factors; never a word of a level
    assert id(psi) in ids
    assert set(ids) <= {id(psi)} | {id(M) for M in shears}
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mats, n_max", [
    ([SHEAR_U, SHEAR_L], 6),
    (FREE3, 4),
    ([IntMatrix([[3, -7], [2, 5]]), IntMatrix([[-4, 1], [9, 2]])], 5),
    (PAIR3, 4),
], ids=["shears", "free3", "mixed_2x2", "pair_3x3"])
def test_growth_rows_are_first_maximisers(mats, n_max):
    rows = growth_table(mats, n_max=n_max).rows
    assert [row.n for row in rows] == list(range(1, n_max + 1))
    for row in rows:
        # the level in enumeration order, stably sorted by decreasing norm bound
        level = {w: reduce(IntMatrix.mul, [mats[i] for i in w]) for w in product(range(len(mats)), repeat=row.n)}
        words = sorted(level, key=lambda w: -_norm_bound(level[w]))
        radii = [spectral_radius(level[w]) for w in words]
        best = 0
        for i, rho in enumerate(radii):
            if rho.compare(radii[best]) > 0:
                best = i
        assert row.word == words[best]
        assert row.product == level[row.word]
        assert row.rho.compare(radii[best]) == 0


@pytest.mark.parametrize("mats", [[SHEAR_U, SHEAR_L], FREE3, PAIR3, [DIAG23, DIAG52]],
                         ids=["shears", "free3", "pair_3x3", "diagonal"])
def test_growth_row_values_ignore_the_ambient_precision(mats):
    prec = default_precision()
    seen = []
    for ambient in (20, 53, 300):
        with mp.workprec(ambient):
            rows = growth_table(mats, n_max=4).rows
        seen.append([(row.value, row.root) for row in rows])
        with mp.workprec(prec):
            assert seen[-1] == [(row.rho.to_mpf(prec), mp.root(row.rho.to_mpf(prec), row.n)) for row in rows]
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("mats, n_max", [
    ([SHEAR_U, SHEAR_L], 6),
    (FREE3, 4),
    ([DIAG23, DIAG52], 6),
    (PAIR3, 4),
], ids=["shears", "free3", "diagonal", "pair_3x3"])
def test_system_report_reads_each_growth_radius_once(monkeypatch, mats, n_max):
    reads, kept = Counter(), []
    real = CertifiedReal.to_mpf

    def counting(self, prec=None):
        reads[id(self)] += 1
        kept.append(self)  # no later value reuses the id of a counted one
        return real(self, prec)

    monkeypatch.setattr(CertifiedReal, "to_mpf", counting)
    rows = system_report(mats, pt(*(2, 3, 5)[:mats[0].n]), n_max=n_max).degree.table.rows
    assert len(rows) == n_max
    assert [reads[id(row.rho)] for row in rows] == [1] * n_max
