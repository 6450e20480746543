"""Torus points, valuation profiles, and the Weil height."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from mpmath import mpf
import pytest

import monoheight.points
from monoheight import (
    BudgetError,
    HeightValue,
    InputError,
    IntMatrix,
    LogLinear,
    MonoheightError,
    PointGm,
    canonical_height_closed,
    classify_orbit,
    effective_constants,
    eval_monomial,
    log_profile,
    weil_height_of_point,
)
from conftest import profile_point

FIB = IntMatrix([[1, 1], [1, 0]])


def pt(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def test_parse_and_str():
    P = PointGm.parse("-4/9,10")
    assert P.coords == (Fraction(-4, 9), Fraction(10))
    assert str(P) == "-4/9,10"
    assert PointGm.parse("2, 3").coords == (Fraction(2), Fraction(3))


def test_zero_coordinate_rejected():
    with pytest.raises(InputError):
        PointGm((Fraction(0), Fraction(2)))
    with pytest.raises(InputError):
        PointGm.parse("")


def test_coordinates_must_be_ints_or_fractions():
    # a bool, float or string is refused, not converted by Fraction()
    for coords in [(0.1, True), (True,), (Fraction(1), 0.5), ("1/2",)]:
        with pytest.raises(InputError, match="coordinates"):
            PointGm(coords)
    assert PointGm((2, Fraction(-1, 3))).coords == (Fraction(2), Fraction(-1, 3))


def test_log_profile_examples():
    prof = log_profile(pt("-4/9", 10))
    assert prof.vals == {2: (2, 1), 3: (-2, 0), 5: (0, 1)}
    assert prof.signs == (-1, 1)
    assert prof.n == 2


def test_log_profile_prime_order():
    # first appearance across coordinates, then ascending within a coordinate
    assert list(log_profile(pt(10, "3/4", 7)).vals) == [2, 5, 3, 7]


@pytest.mark.parametrize("rows, coords, calls", [
    ([[1, 1], [1, 0]], (2, 3), 2),  # integral: Baker's cleared representative is the point itself
    ([[1, 1], [1, 0]], ("-4/9", 10), 4),  # plus the two coordinates of the cleared representative
    ([[2, 1], [0, 2]], ("3/2", "-5/7"), 4),
    ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], ("-4/9", 10, 7), 3),  # no Jordan basis: Baker clears nothing
])
def test_a_point_is_factored_once(monkeypatch, rows, coords, calls):
    factored = []
    real = monoheight.points.factor_rational
    monkeypatch.setattr(monoheight.points, "factor_rational", lambda x: factored.append(x) or real(x))
    A, P = IntMatrix(rows), pt(*coords)
    # the four library calls of one point_batch job
    for step in (lambda: weil_height_of_point(P), lambda: canonical_height_closed(A, P, prec=128),
                 lambda: classify_orbit(A, P), lambda: effective_constants(A, P, prec=192)):
        try:
            step()
        except MonoheightError:
            pass
    assert len(factored) == calls
    assert log_profile(P) is log_profile(P)
    assert len(factored) == calls
    # the kept profile is still the point's own: the callers only read it
    kept, fresh = log_profile(P), log_profile(pt(*coords))
    assert (kept.vals, kept.signs) == (fresh.vals, fresh.signs)


def test_the_kept_profile_leaves_the_point_unchanged():
    P, Q = pt("-4/9", 10), pt("-4/9", 10)
    log_profile(P)
    assert P == Q and hash(P) == hash(Q)
    assert repr(P) == repr(Q) == "PointGm(coords=(Fraction(-4, 9), Fraction(10, 1)))"
    assert P.to_json() == Q.to_json()
    with pytest.raises(TypeError):
        PointGm((Fraction(2),), log_profile(Q))  # not a constructor argument


def test_a_kept_height_leaves_the_point_unchanged():
    P, Q = pt("-4/9", 10), pt("-4/9", 10)
    kept = canonical_height_closed(IntMatrix([[1, 1], [1, 0]]), P, prec=128)
    assert P == Q and hash(P) == hash(Q) and {P: 1}[Q] == 1
    assert repr(P) == repr(Q) and P.to_json() == Q.to_json()
    with pytest.raises(AttributeError):
        kept.lo = 0  # one kept height reaches every caller, so none may change it


def test_profile_round_trip():
    for coords in [(2, 3), ("-4/9", 10), ("1/2", "1/3"), (1, -1), (6, "-35/4")]:
        P = pt(*coords)
        assert profile_point(log_profile(P)).coords == P.coords


def test_torsion_detection():
    assert log_profile(pt(1, -1)).is_torsion()
    assert not log_profile(pt(2, 3)).is_torsion()


def test_eval_monomial():
    Q = eval_monomial(FIB, pt(2, 3))
    assert Q.coords == (Fraction(6), Fraction(2))
    Q = eval_monomial(IntMatrix([[2, 0], [0, 3]]), pt(2, "1/5"))
    assert Q.coords == (Fraction(4), Fraction(1, 125))


def test_eval_monomial_negative_exponents():
    A = IntMatrix([[0, -1], [1, 0]])
    Q = eval_monomial(A, pt(2, 3))
    assert Q.coords == (Fraction(1, 3), Fraction(2))


def test_eval_budget():
    A = IntMatrix([[2, 0], [0, 2]])
    P = pt(2, 3)
    with pytest.raises(BudgetError):
        for _ in range(40):
            P = eval_monomial(A, P, bit_budget=2**12)


def test_transport_matches_direct(rng):
    from conftest import random_matrix, random_point

    for _ in range(25):
        n = rng.choice([2, 3])
        A = random_matrix(rng, n)
        P = random_point(rng, n)
        Q = P
        prof = log_profile(P)
        for _ in range(3):
            Q = eval_monomial(A, Q, bit_budget=2**24)
            prof = prof.transport(A)
        assert profile_point(prof).coords == Q.coords


def test_weil_height_examples():
    h = weil_height_of_point(pt(2, 3))
    assert h.symbolic_str() == "log 3"
    h = weil_height_of_point(pt("-4/9", 10))
    assert h.symbolic_str() == "log 2 + 2*log 3 + log 5"
    assert h.str15() == "4.49980967033027"
    assert weil_height_of_point(pt(1, -1)).is_zero()


def test_a_numeric_height_whose_enclosure_holds_zero_is_not_zero():
    # an enclosure proves no zero: only the exact zero form is zero
    assert not HeightValue(lo=mpf(-1), hi=mpf(1)).is_zero()
    assert not HeightValue(lo=mpf(0), hi=mpf(0)).is_zero()
    assert HeightValue(LogLinear()).is_zero()
    # blockdiag(companion of x^3 - x - 1, shear): the cubic dominant root
    # leaves the height of this point, exactly 0, only enclosed
    A = IntMatrix([[0, 0, 1, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]])
    P = pt(1, 1, 1, 2, 3)
    h = canonical_height_closed(A, P)
    assert not h.exact and h.lo < 0 < h.hi
    assert not h.is_zero()
    assert classify_orbit(A, P).zero_height_dim_bound is None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(
            min_value=Fraction(-30), max_value=Fraction(30), max_denominator=30
        ).filter(lambda q: q != 0),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=5),
)
def test_weil_power_scaling(coords, d):
    # h(P^d) = d h(P): the max-plus form is positively homogeneous
    P = PointGm(tuple(coords))
    hP = weil_height_of_point(P).value(128)
    hPd = weil_height_of_point(PointGm(tuple(c**d for c in P.coords))).value(128)
    assert abs(hPd - d * hP) < 1e-30


def test_product_formula_sum_vanishes():
    prof = log_profile(pt("-4/9", 10))
    for j in range(2):
        assert prof.product_formula_sum(j).is_zero


def test_point_json():
    P = pt("-4/9", 10)
    assert P.to_json() == ["-4/9", "10"]


# small-entry generators include many of finite order, so walks revisit states
SMALL_ROWS = {n: st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)
              for n in (1, 2, 3)}
WALK_COORDS = [Fraction(c) for c in (1, -1, 2, -3, "1/2", "-2/3", 12, "7/4", "-5/6")]


def _nonsingular(rows):
    try:
        return IntMatrix(rows)
    except InputError:
        return None


@st.composite
def walks(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    mats = [draw(SMALL_ROWS[n].map(_nonsingular).filter(bool)) for _ in range(2)]
    return mats, PointGm(tuple(draw(st.sampled_from(WALK_COORDS)) for _ in range(n)))


@settings(max_examples=60, deadline=None)
@given(walks())
def test_transport_images_pass_the_checks_and_keys_split_states_as_before(walk):
    mats, P = walk
    level = [log_profile(P)]
    states = list(level)
    for _ in range(4):
        level = [state.transport(M) for state in level for M in mats]
        states += level
    primes = list(states[0].vals)
    for state in states:
        # the start's primes in the start's order, each with a nonzero int vector
        assert list(state.vals) == primes
        assert all(len(vec) == P.n and any(vec) and all(type(v) is int for v in vec)
                   for vec in state.vals.values())
        assert len(state.signs) == P.n and all(s in (1, -1) and type(s) is int for s in state.signs)
    # the unsorted key splits the walk's states exactly as the sorted one did
    old = [(tuple(sorted(s.vals.items())), s.signs) for s in states]
    new = [s.state_key() for s in states]
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))
