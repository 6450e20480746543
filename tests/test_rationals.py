"""Factorizations and parsing."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monoheight import InputError, factor_rational
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


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("+3", Fraction(3)), ("-0", Fraction(0)), (" -4/9\t", Fraction(-4, 9)),
    ("6/4", Fraction(3, 2)), ("007/010", Fraction(7, 10)),
])
def test_parse_rational_reads_its_grammar(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1e10000000", "1E3", "0.5", ".5", "1_000", "\u0663", "\uff11", "1/0", "1/-2", "-1/+2",
    "1 / 2", "1/", "/2", "", "+", "inf", "nan", "0x10", "1/2/3",
], ids=["exponent", "capital-exponent", "decimal", "bare-decimal", "underscore", "arabic-indic-digit",
        "fullwidth-digit", "zero-denominator", "signed-denominator", "two-signs", "spaced-slash",
        "no-denominator", "no-numerator", "empty", "sign-only", "inf", "nan", "hex", "two-slashes"])
def test_parse_rational_refuses_everything_else(text):
    with pytest.raises(InputError, match="not a rational"):
        parse_rational(text)


def test_parse_rational_refuses_an_integer_past_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(InputError, match="not a rational"):
            parse_rational("7" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)


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
