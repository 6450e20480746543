"""Exact conversions between mpf values and Fractions."""

from fractions import Fraction

from mpmath import mp, mpf
import pytest

from monoheight.precision import PAD_BITS, GUARD_BITS, log_enclosure, mpf_to_fraction


def _power_of_two_reference(x):
    """The mpf's value as mantissa times Fraction(2) ** exponent."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@pytest.mark.parametrize("value", [
    mpf(0), mpf(1), mpf(-1), mpf(3) * 2**40, mpf(-5) * 2**200,  # exponent zero and positive
    mpf(3) / 4, mpf(-3) / 2**300, mp.pi, -mp.e,  # negative exponents
])
def test_mpf_to_fraction_is_exact_at_every_exponent(value):
    exp = value._mpf_[2]
    f = mpf_to_fraction(value)
    assert type(f) is Fraction
    assert f == _power_of_two_reference(value)
    if value:
        assert f.denominator == (1 << -exp if exp < 0 else 1)
        assert mp.mpf(f.numerator) / f.denominator == value
    else:
        assert f == 0


@pytest.mark.parametrize("q", [Fraction(2), Fraction(3), Fraction(2**61 - 1), Fraction(2, 3), Fraction(1, 7)])
@pytest.mark.parametrize("prec", [PAD_BITS - 2, PAD_BITS, 16, 96, 2048])
def test_log_enclosure_keeps_its_dyadic_values(q, prec):
    with mp.workprec(prec + GUARD_BITS):
        f = _power_of_two_reference(mp.log(mpf(q.numerator)) - mp.log(mpf(q.denominator)))
    pad = max(abs(f), Fraction(1)) / Fraction(2) ** (prec - PAD_BITS)
    assert log_enclosure(q, prec) == (f - pad, f + pad)
    assert log_enclosure(Fraction(1), prec) == (0, 0)
