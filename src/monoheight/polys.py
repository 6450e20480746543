"""Integer polynomials: exact evaluation, squarefree parts, Sturm counts, formatting.

Coefficients are stored ascending (constant term first), matching the printed
form.  Squarefree parts and Sturm remainders come from sympy's dense routines
(dup_sqf_part over ZZ, dup_rem over QQ).  Every exact sign decision on a
polynomial is one integer routine, sign_at; the Sturm counts built on it are
the exact interval tool used by certified-real comparisons.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy.polys.densearith import dup_neg, dup_rem
from sympy.polys.densetools import dup_diff
from sympy.polys.domains import QQ, ZZ
from sympy.polys.sqfreetools import dup_sqf_part

from .errors import InputError

_X = sympy.Symbol("x")


@dataclass(frozen=True)
class IntPoly:
    """Nonzero polynomial with integer coefficients, ascending order."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        if any(type(v) is not int for v in c):  # bool is an int subclass, not a coefficient
            raise InputError("coefficients must be integers")
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c or c[-1] == 0:
            raise InputError("zero polynomial")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        """Horner evaluation; exact for int, Fraction, or Quad arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        sign = 1 if self.lc > 0 else -1
        return IntPoly(tuple(sign * c // g for c in self.coeffs))

    def to_sympy(self):
        return sympy.Poly(list(reversed(self.coeffs)), _X)

    @classmethod
    def from_sympy(cls, p):
        if not isinstance(p, sympy.Poly):
            p = sympy.Poly(p, _X)
        coeffs = [sympy.Integer(c) for c in p.all_coeffs()]
        if any(not c.is_integer for c in coeffs):
            raise InputError("polynomial is not integral")
        return cls(tuple(int(c) for c in reversed(coeffs)))

    def __str__(self):
        return poly_str(self.coeffs)


def poly_str(coeffs) -> str:
    """Human form like "x^2-x-1" or "2*x-1/2" of ascending int or Fraction
    coefficients, highest degree first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("-" if c < 0 else "+") + term)
    return "".join(parts) if parts else "0"


def squarefree_part(p: IntPoly) -> IntPoly:
    """p divided by gcd(p, p'), primitive with positive leading coefficient."""
    if p.degree == 0:
        return IntPoly((1,))
    q = dup_sqf_part([ZZ(c) for c in reversed(p.coeffs)], ZZ)
    return IntPoly(tuple(int(c) for c in reversed(q))).primitive()


def sturm_chain(p: IntPoly):
    """Sturm sequence of p as ascending integer lists (requires squarefree
    input); each remainder is sympy's dense dup_rem over QQ, cleared of its
    denominators by a positive factor, which keeps every sign."""
    chain = [[QQ(c) for c in reversed(p.coeffs)]]
    if p.degree:
        chain.append(dup_diff(chain[0], 1, QQ))
    while len(chain[-1]) > 1:
        r = dup_rem(chain[-2], chain[-1], QQ)
        if not r:
            break
        chain.append(dup_neg(r, QQ))
    out = []
    for g in chain:
        den = lcm(*(int(c.denominator) for c in g))
        out.append([int(c.numerator) * (den // int(c.denominator)) for c in reversed(g)])
    return out


def sign_at(coeffs, x: int, den: int) -> int:
    """Sign of the polynomial with ascending integer coeffs at x / den, den > 0:
    that of the homogenised integer sum of c_i x^i den^(deg - i), so no step
    normalises a Fraction."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * x + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p: IntPoly, a: Fraction, b: Fraction, chain=None) -> int:
    """Number of distinct real roots of squarefree p in the half-open interval (a, b]."""
    if a > b:
        raise InputError("empty interval")
    chain = chain or sturm_chain(p)
    return (_sign_changes(sign_at(g, a.numerator, a.denominator) for g in chain)
            - _sign_changes(sign_at(g, b.numerator, b.denominator) for g in chain))


def real_root_count(p: IntPoly) -> int:
    """Number of distinct real roots of squarefree p: the sign changes of its
    Sturm chain at -infinity less those at +infinity, where each term has the
    sign of its leading term."""
    chain = sturm_chain(p)
    at_top = [1 if g[-1] > 0 else -1 for g in chain]
    return _sign_changes(s if len(g) % 2 else -s for g, s in zip(chain, at_top)) - _sign_changes(at_top)


def cyclotomic_index(p: IntPoly) -> int | None:
    """m with p = m-th cyclotomic polynomial, or None.

    Only irreducible monic p are meaningful inputs: for them m is the least
    k with x^k = 1 (mod p), found from the integer remainders x^k mod p.  The
    search range covers all m with totient(m) = deg p.
    """
    d = p.degree
    # p | x^k - 1 needs p monic with constant term +-1
    if p.lc != 1 or d == 0 or abs(p.coeffs[0]) != 1:
        return None
    low = p.coeffs[:-1]
    one = [1] + [0] * (d - 1)
    rem = one
    # totient(m) = d forces m <= 2 * d^2 + 2 comfortably at desk degrees
    for m in range(1, 2 * d * d + 7):
        top = rem[-1]  # x * rem, with its x^d term reduced by x^d = -low
        rem = [a - top * c for a, c in zip([0] + rem[:-1], low)]
        if rem == one:
            return m
    return None
