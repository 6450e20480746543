"""Exact conversions between mpf values and Fractions, and the one check of
a caller's working precision."""

from fractions import Fraction

from mpmath import mp, mpf
import pytest

from monoheight import (
    InputError,
    IntMatrix,
    PointGm,
    canonical_height_closed,
    effective_constants,
    limit_matrix_B,
    truncated_estimates,
)
from monoheight.precision import (
    DEFAULT_PRECISION,
    PAD_BITS,
    GUARD_BITS,
    checked_precision,
    log_enclosure,
    mpf_to_fraction,
)


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


BAD_PRECISIONS = [-1, 0, 8, 15, 65537, True, False, 1.5, 128.0, "128"]
CUBIC = IntMatrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # companion of x^3 - x - 1
POINT = PointGm((Fraction(2), Fraction(3), Fraction(5)))
FIB = IntMatrix([[1, 1], [1, 0]])


def test_checked_precision_keeps_ints_in_range_and_defaults_none():
    assert checked_precision(None) == DEFAULT_PRECISION
    assert checked_precision(None, 192) == 192
    assert [checked_precision(p) for p in (16, 128, 1 << 16)] == [16, 128, 1 << 16]


@pytest.mark.parametrize("prec", BAD_PRECISIONS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda prec: checked_precision(prec),
    lambda prec: limit_matrix_B(CUBIC, prec=prec),
    lambda prec: canonical_height_closed(CUBIC, POINT, prec=prec),
    lambda prec: truncated_estimates(CUBIC, POINT, 2, prec=prec),
    lambda prec: effective_constants(FIB, PointGm((Fraction(2), Fraction(3))), prec=prec),
], ids=["checked_precision", "limit_matrix_B", "canonical_height_closed", "truncated_estimates",
        "effective_constants"])
def test_a_bad_precision_is_an_input_error(call, prec):
    # a bool, a float, a string, 0 or a width outside [16, 65536] never
    # becomes a working precision (nor a key of a kept power iteration)
    with pytest.raises(InputError, match="precision must be between 16 and 65536 bits"):
        call(prec)
