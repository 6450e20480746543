"""Exact arithmetic in real quadratic fields."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from monoheight import InputError, Quad, UnsupportedError
from monoheight.precision import sqrt_enclosure
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


def test_rational_quads_hash_as_their_value():
    # equal values are one set element and one dict key, whatever their type
    assert len({Quad(2), 2}) == 1
    assert len({Quad(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Fraction(-3): "x"}[Quad(-3)] == "x"
    assert len({SQRT5, Quad(0, 1, 5), Quad(0, 1, 2)}) == 2


class _TwoFractionQuad:
    """Reference: a + b*sqrt(d) stored as two Fractions, with the formulas of
    the two-Fraction Quad that the integer representation replaced."""

    def __init__(self, a, b=0, d=0):
        self.a, self.b = Fraction(a), Fraction(b)
        self.d = d if self.b else 0

    def __add__(self, other):
        return _TwoFractionQuad(self.a + other.a, self.b + other.b, self.d or other.d)

    def __neg__(self):
        return _TwoFractionQuad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = self.d or other.d
        return _TwoFractionQuad(self.a * other.a + self.b * other.b * d,
                                self.a * other.b + self.b * other.a, d)

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        return _TwoFractionQuad(self.a / n, -self.b / n, self.d)

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        out = _TwoFractionQuad(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lead = a if a * a > b * b * self.d else b
        return 1 if lead > 0 else -1

    def __str__(self):
        if self.b == 0:
            q = self.a
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        c = lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (c // self.a.denominator)
        q = self.b.numerator * (c // self.b.denominator)
        root = f"sqrt({self.d})" if abs(q) == 1 else f"{abs(q)}*sqrt({self.d})"
        if p == 0:
            body = root if q > 0 else f"-{root}"
        else:
            body = f"({p}+{root})" if q > 0 else f"({p}-{root})"
        return body if c == 1 else f"{body}/{c}"

    def enclosure(self, prec):
        if self.b == 0:
            return self.a, self.a
        lo, hi = sqrt_enclosure(Fraction(self.d), prec)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def to_mpf(self, prec):
        with mp.workprec(prec):
            value = mpf(self.a.numerator) / mpf(self.a.denominator)
            if self.b:
                value += mpf(self.b.numerator) / mpf(self.b.denominator) * mp.sqrt(self.d)
            return value


def _agrees(q, ref):
    return (type(q.a), type(q.b)) == (Fraction, Fraction) and (q.a, q.b, q.d) == (ref.a, ref.b, ref.d)


# wide numerators and denominators, so that the gcd normalisation is exercised
parts = st.one_of(st.just(Fraction(0)), st.integers(-40, 40).map(Fraction),
                  st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


@given(parts, parts, parts, parts, radicands, st.integers(-4, 4))
def test_quad_matches_the_two_fraction_reference(a, b, c, e, d, k):
    x, y = Quad(a, b, d), Quad(c, e, d)
    rx, ry = _TwoFractionQuad(a, b, d), _TwoFractionQuad(c, e, d)
    assert _agrees(x, rx) and _agrees(y, ry)
    assert _agrees(x + y, rx + ry) and _agrees(x - y, rx - ry)
    assert _agrees(x * y, rx * ry) and _agrees(-x, -rx)
    assert _agrees(x + 3, rx + _TwoFractionQuad(3)) and _agrees(2 - x, _TwoFractionQuad(2) - rx)
    assert _agrees(x * -7, rx * _TwoFractionQuad(-7)) and _agrees(c * x, _TwoFractionQuad(c) * rx)
    if y:
        assert _agrees(y.inverse(), ry.inverse()) and _agrees(x / y, rx * ry.inverse())
        assert _agrees(y**k, ry**k)
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    assert _agrees(x.conjugate(), _TwoFractionQuad(a, -b, d))
    diff = (rx - ry).sign()
    assert (x.sign(), (x - y).sign()) == (rx.sign(), diff)
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
    assert (x == y) == (diff == 0) == (not x != y)
    if x == y:
        assert hash(x) == hash(y)
    if x.is_rational:
        assert x == a and x.rational_value() == a and hash(x) == hash(a)
        if a.denominator == 1:
            assert x == int(a) and hash(x) == hash(int(a))
    else:
        assert x != a and x != int(a)
    assert str(x) == str(rx) and str(x * y) == str(rx * ry)
    assert x.enclosure(64) == rx.enclosure(64)
    assert x.to_mpf(64) == rx.to_mpf(64) and x.to_mpf(200) == rx.to_mpf(200)


def _trace_norm_minimal_poly(x):
    """X^2 - trace X + norm cleared over its denominators and made primitive."""
    tr, nm = 2 * x.a, x.a * x.a - x.b * x.b * x.d
    den = lcm(tr.denominator, nm.denominator)
    c0, c1 = int(nm * den), int(-tr * den)
    g = gcd(c0, c1, den)
    return c0 // g, c1 // g, den // g


def test_constructor_takes_square_factors_out_of_the_radicand():
    four = Quad(0, 1, 4)
    assert four == Quad(2) and four == 2 and hash(four) == hash(2)
    assert four.is_rational and str(four) == "2"
    assert Quad(0, 1, 8) == Quad(0, 2, 2) and str(Quad(0, 1, 8)) == "2*sqrt(2)"
    assert Quad(Fraction(1, 2), Fraction(1, 3), 18) == Quad(Fraction(1, 2), 1, 2)
    assert Quad(0, 1, 8) + Quad(0, 1, 2) == Quad(0, 3, 2)  # one field once reduced


@given(parts, parts, parts, parts, radicands, st.integers(1, 12))
def test_unreduced_radicands_give_the_reduced_values(a, b, c, e, d, s):
    x, y = Quad(a, b, s * s * d), Quad(c, e, s * s * d)
    rx, ry = Quad(a, b * s, d), Quad(c, e * s, d)
    assert (x, y) == (rx, ry) and (hash(x), hash(y)) == (hash(rx), hash(ry))
    assert (str(x), repr(x), x.minimal_poly()) == (str(rx), repr(rx), rx.minimal_poly())
    assert x + y == rx + ry and x * y == rx * ry and (x - y).sign() == (rx - ry).sign()


@given(parts, parts, radicands)
def test_minimal_poly_matches_the_trace_norm_formula(a, b, d):
    x = Quad(a, b, d)
    if x.is_rational:
        assert x.minimal_poly().coeffs == (-a.numerator, a.denominator)
    else:
        assert x.minimal_poly().coeffs == _trace_norm_minimal_poly(x)
    assert x.minimal_poly()(x) == 0


@given(parts, parts.filter(bool), parts, parts.filter(bool))
def test_mixed_fields_raise_unsupported(a, b, c, e):
    x, y = Quad(a, b, 2), Quad(c, e, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: x < y):
        with pytest.raises(UnsupportedError):
            op()
    assert x != y
