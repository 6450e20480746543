"""Exact rational arithmetic: factorizations and parsing.

A factorization is kept as exact integer exponents per prime.
"""

from fractions import Fraction

import sympy

from .errors import InputError

Rat = Fraction


def factor_rational(x: Rat) -> dict[int, int]:
    """Signed prime factorization of a nonzero rational, sign discarded.

    Returns {p: e_p} with x = sign(x) * prod p^e_p exactly and every e_p nonzero.

    Examples
    ========
    >>> factor_rational(Fraction(12, 5))
    {2: 2, 3: 1, 5: -1}
    >>> factor_rational(Fraction(1))
    {}
    """
    if x == 0:
        raise InputError("cannot factor zero")
    out: dict[int, int] = {}
    for p, e in sympy.factorint(x.numerator).items():
        if p > 0:
            out[p] = out.get(p, 0) + e
    for p, e in sympy.factorint(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return dict(sorted((p, e) for p, e in out.items() if e != 0))


def parse_rational(text: str) -> Rat:
    """Parse "p" or "p/q" (ASCII, no whitespace) into an exact rational."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc
    return value
