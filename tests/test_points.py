"""Torus points, valuation profiles, and the Weil height."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

import monoheight.points
from monoheight import (
    BudgetError,
    InputError,
    IntMatrix,
    LogProfile,
    PointGm,
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


def test_log_profile_examples():
    prof = log_profile(pt("-4/9", 10))
    assert prof.vals == {2: (2, 1), 3: (-2, 0), 5: (0, 1)}
    assert prof.signs == (-1, 1)
    assert prof.n == 2


def test_log_profile_prime_order():
    # first appearance across coordinates, then ascending within a coordinate
    assert list(log_profile(pt(10, "3/4", 7)).vals) == [2, 5, 3, 7]


def test_profile_constructor_checks():
    with pytest.raises(InputError, match="not prime"):
        LogProfile(2, {4: (1, 0)}, (1, 1))
    with pytest.raises(InputError, match="length"):
        LogProfile(2, {2: (1, 0, 0)}, (1, 1))
    with pytest.raises(InputError, match="signs"):
        LogProfile(2, {2: (1, 0)}, (1, 2))
    assert LogProfile(2, {2: (0, 0), 3: (1, -1)}, (1, -1)).vals == {3: (1, -1)}


def test_log_profile_and_transport_skip_the_checks(monkeypatch):
    flags = []
    primality = []
    init = LogProfile.__init__

    def recording_init(self, n, vals, signs, _trusted=False):
        flags.append(_trusted)
        init(self, n, vals, signs, _trusted)

    def recording_isprime(p):
        primality.append(p)
        return True

    monkeypatch.setattr(LogProfile, "__init__", recording_init)
    monkeypatch.setattr(monoheight.points.sympy, "isprime", recording_isprime)
    prof = log_profile(pt("-4/9", 10, "7/3"))
    for _ in range(3):
        prof = prof.transport(IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 0]]))
    assert flags == [True] * 4 and primality == []
    LogProfile(prof.n, prof.vals, prof.signs)
    assert flags[-1] is False and primality == list(prof.vals)


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
    hPd = weil_height_of_point(P.power(d)).value(128)
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
    for state in states:
        checked = LogProfile(state.n, state.vals, state.signs)
        assert list(checked.vals.items()) == list(state.vals.items())
        assert checked.signs == state.signs
    # the unsorted key splits the walk's states exactly as the sorted one did
    old = [(tuple(sorted(s.vals.items())), s.signs) for s in states]
    new = [s.state_key() for s in states]
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))
