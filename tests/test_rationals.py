"""Factorizations, parsing, and the log-space scalar."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monoheight import InputError, NegLogScalar, factor_rational, mp
from monoheight.rationals import parse_rational


def test_factor_rational_examples():
    assert factor_rational(Fraction(12, 5)) == {2: 2, 3: 1, 5: -1}
    assert factor_rational(Fraction(1)) == {}
    assert factor_rational(Fraction(-8, 27)) == {2: 3, 3: -3}
    assert factor_rational(Fraction(360)) == {2: 3, 3: 2, 5: 1}


def test_factor_rational_zero_rejected():
    with pytest.raises(InputError):
        factor_rational(Fraction(0))


def test_factor_round_trip():
    for x in (Fraction(9, 14), Fraction(-100, 3), Fraction(17), Fraction(1)):
        f = factor_rational(x)
        back = Fraction(1 if x > 0 else -1)
        for p, e in f.items():
            back *= Fraction(p) ** e
        assert back == x


def test_parse_and_format():
    assert parse_rational("-4/9") == Fraction(-4, 9)
    assert parse_rational("10") == Fraction(10)
    assert str(parse_rational("-4/9")) == "-4/9"
    with pytest.raises(InputError):
        parse_rational("x")


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=10**6))
def test_product_formula_random(num, den):
    # sum over all places of log||x||_v = 0, as exact integer log-coefficients
    x = Fraction(num, den)
    total = {}
    for p, e in factor_rational(x).items():
        total[p] = total.get(p, 0) - e  # finite: -v_p(x) log p
    # archimedean: log|x| = sum e_p log p
    for p, e in factor_rational(x).items():
        total[p] = total.get(p, 0) + e
    assert all(c == 0 for c in total.values())


def test_neg_log_scalar_order_and_product():
    a = NegLogScalar(mp.mpf(10))
    b = NegLogScalar(mp.mpf(1000))
    assert b < a  # smaller value = larger neg_log
    assert (a * b).neg_log == mp.mpf(1010)
    with pytest.raises(InputError):
        NegLogScalar(-1)


def test_neg_log_scalar_log10():
    s = NegLogScalar(mp.mpf(10) ** 63)
    assert abs(s.log10_neg_log() - 63) < 1e-12
