"""Working-precision plumbing: default bits, mpf/Fraction conversions, log enclosures."""

import math
from fractions import Fraction

from mpmath import mp, mpf

DEFAULT_PRECISION = 128

# Guard bits added inside computations so results are good to the caller's precision.
GUARD_BITS = 16

# Relative padding exponent for enclosures of transcendental evaluations: mpmath's
# arithmetic is correctly rounded to ~1 ulp per operation, so padding by 2^(8-prec)
# relative covers a long chain of operations with a wide margin.
PAD_BITS = 8


def default_precision() -> int:
    return DEFAULT_PRECISION


def mpf_to_fraction(x) -> Fraction:
    """Exact value of an mpf as a Fraction.

    Reads the mantissa directly; re-wrapping with mp.mpf would round to the
    ambient precision and silently discard bits.
    """
    if isinstance(x, int):
        return Fraction(x)
    if not hasattr(x, "_mpf_"):
        x = mp.mpf(x)
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(-man if sign else man)
    return v * Fraction(2) ** exp


def fraction_to_mpf(q: Fraction, prec: int):
    with mp.workprec(prec):
        return mpf(q.numerator) / mpf(q.denominator)


def log_enclosure(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of log(q) for rational q > 0."""
    if q <= 0:
        raise ValueError("log_enclosure needs a positive argument")
    if q == 1:
        return Fraction(0), Fraction(0)
    with mp.workprec(prec + GUARD_BITS):
        val = mp.log(mpf(q.numerator)) - mp.log(mpf(q.denominator))
    f = mpf_to_fraction(val)
    pad = max(abs(f), Fraction(1)) / (Fraction(2) ** (prec - PAD_BITS))
    return f - pad, f + pad


def sqrt_enclosure(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Directed enclosure of sqrt(q) for rational q >= 0, via integer isqrt.

    Fully exact: lo^2 <= q <= hi^2 with hi - lo <= 2^-prec * max(1, sqrt(q)).
    """
    if q < 0:
        raise ValueError("sqrt_enclosure needs a nonnegative argument")
    if q == 0:
        return Fraction(0), Fraction(0)
    # sqrt(p/r) = sqrt(p*r)/r; scale by 4^prec so the isqrt carries prec bits.
    n = q.numerator * q.denominator
    scale = 1 << prec
    s = math.isqrt(n * scale * scale)
    lo = Fraction(s, scale * q.denominator)
    hi = Fraction(s + 1, scale * q.denominator)
    return lo, hi


def real_str(x, digits: int = 15) -> str:
    """Decimal string with the given number of significant digits."""
    with mp.workprec(max(mp.prec, 4 * digits)):
        if isinstance(x, Fraction):
            x = fraction_to_mpf(x, max(mp.prec, 4 * digits))
        return mp.nstr(mp.mpf(x), digits, strip_zeros=False)
