"""Exact arithmetic in real quadratic fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monoheight import InputError, Quad, UnsupportedError
from monoheight.quadratic import _squarefree_split

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = Quad(0, 1, 5)


def test_squarefree_part():
    # n = s^2 * d, returned as (s, d)
    assert _squarefree_split(12) == (2, 3)
    assert _squarefree_split(9) == (3, 1)
    assert _squarefree_split(50) == (5, 2)
    assert _squarefree_split(7) == (1, 7)


def test_sqrt_of():
    assert Quad.sqrt_of(Fraction(4)) == Quad(2)
    assert Quad.sqrt_of(Fraction(9, 4)) == Quad(Fraction(3, 2))
    assert Quad.sqrt_of(Fraction(5)) == SQRT5
    assert Quad.sqrt_of(Fraction(8)) == Quad(0, 2, 2)
    with pytest.raises(InputError):
        Quad.sqrt_of(Fraction(-1))


def test_golden_ratio_identities():
    assert PHI * PHI == PHI + 1
    assert PHI.inverse() == PHI - 1
    assert PHI.norm() == Fraction(-1)
    assert PHI.trace() == Fraction(1)
    assert PHI.conjugate() == 1 - PHI


def test_power_and_division():
    assert SQRT5**2 == Quad(5)
    assert PHI**10 == Quad(Fraction(123, 2), Fraction(55, 2), 5)  # (L_10 + F_10 sqrt5)/2
    assert (PHI**3 / PHI) == PHI**2
    assert PHI**-2 == (PHI**2).inverse()


def test_mixed_radicand_rejected():
    with pytest.raises(UnsupportedError):
        SQRT5 + Quad(0, 1, 2)
    with pytest.raises(InputError):
        Quad(0, 1, 1)  # b != 0 needs d > 1


def test_sign_and_order():
    assert SQRT5.sign() == 1
    assert (-SQRT5).sign() == -1
    assert (SQRT5 - 2) > 0  # sqrt5 > 2
    assert (SQRT5 - Quad(Fraction(9, 4))) < 0  # sqrt5 < 2.25
    assert PHI > 1
    assert Quad(0).sign() == 0


def test_enclosure_brackets_value():
    lo, hi = SQRT5.enclosure(128)
    assert lo < hi
    assert lo * lo < 5 < hi * hi
    assert hi - lo < Fraction(1, 2**100)


def test_str():
    assert str(SQRT5) == "sqrt(5)"
    assert str(PHI) == "(1+sqrt(5))/2"
    assert str(Quad(Fraction(2, 3))) == "2/3"


quads = st.builds(
    Quad,
    st.fractions(min_value=-5, max_value=5, max_denominator=20),
    st.fractions(min_value=-5, max_value=5, max_denominator=20),
    st.sampled_from([2, 3, 5]),
)


@given(quads, quads.filter(lambda q: q != Quad(0)))
def test_field_axioms(x, y):
    if x.d != y.d and x.b and y.b:
        return  # different fields do not mix
    y = y if (y.d == x.d or y.b == 0 or x.b == 0) else Quad(y.a)
    assert (x * y) - (y * x) == Quad(0)
    assert x * y.inverse() * y == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).norm() == x.norm() * y.norm()
