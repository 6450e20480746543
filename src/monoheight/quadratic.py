"""Exact arithmetic in real quadratic fields Q(sqrt(d)), d > 1 squarefree.

A value a + b*sqrt(d) is stored on integers as (p + q*sqrt(d))/r with r > 0
and gcd(p, q, r) = 1, so each operation is a few integer products and one
gcd, and the representation is unique.  The rational parts a = p/r and
b = q/r are read as Fractions.  Rationals embed as q = 0 (d is then
irrelevant and normalized to 0).  Signs and comparisons are decided exactly
by squaring, never through floating point.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InputError, UnsupportedError
from .polys import IntPoly


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d). Requires n > 0."""
    import sympy

    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def _make(p, q, r, d):
    """(p + q sqrt(d)) / r in lowest terms, for integers p, q and r > 0."""
    g = gcd(p, q, r)
    x = object.__new__(Quad)
    if g == 1:
        x._p, x._q, x._r = p, q, r
    else:
        x._p, x._q, x._r = p // g, q // g, r // g
    x.d = d if q else 0
    return x


class Quad:
    """a + b*sqrt(d), exact. d = 0 encodes a plain rational.

    The constructor accepts any integer d > 1 and moves its square factors
    into b, so Quad(0, 1, 8) is Quad(0, 2, 2) and Quad(0, 1, 4) is the
    rational 2: equal values have one representation, one hash and one
    printed form.
    """

    __slots__ = ("_p", "_q", "_r", "d")

    def __init__(self, a, b=0, d=0):
        if type(a) is int and type(b) is int and b == 0:
            self._p, self._q, self._r, self.d = a, 0, 1, 0
            return
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d <= 1:
            raise InputError("Quad needs d > 1 when b != 0")
        else:  # b sqrt(s^2 d') = b s sqrt(d') with d' squarefree, rational when d' = 1
            s, d = _squarefree_split(int(d))
            b *= s
            if d == 1:
                a, b, d = a + b, Fraction(0), 0
        # over the lcm of the reduced denominators, gcd(p, q, r) is already 1
        r = lcm(a.denominator, b.denominator)
        self._p = a.numerator * (r // a.denominator)
        self._q = b.numerator * (r // b.denominator)
        self._r = r
        self.d = int(d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    @classmethod
    def sqrt_of(cls, q: Fraction):
        """Exact sqrt of a positive rational, as a Quad (rational when q is a square)."""
        q = Fraction(q)
        if q <= 0:
            raise InputError("sqrt_of needs a positive rational")
        s, d = _squarefree_split(q.numerator * q.denominator)
        # sqrt(p/r) = sqrt(p*r)/r = s*sqrt(d)/r
        return _make(s, 0, q.denominator, 0) if d == 1 else _make(0, s, q.denominator, d)

    def _check(self, other):
        other = other if isinstance(other, Quad) else Quad(other)
        if self.d and other.d and self.d != other.d:
            raise UnsupportedError("mixing distinct quadratic fields")
        return other, self.d or other.d

    def __add__(self, other):
        if type(other) is int:
            return _make(self._p + other * self._r, self._q, self._r, self.d)
        other, d = self._check(other)
        r, s = self._r, other._r
        if r == s:
            return _make(self._p + other._p, self._q + other._q, r, d)
        return _make(self._p * s + other._p * r, self._q * s + other._q * r, r * s, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._p, -self._q, self._r, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, (Quad, int)) else -Quad(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return _make(self._p * other, self._q * other, self._r, self.d)
        other, d = self._check(other)
        p, q, s, t = self._p, self._q, other._p, other._q
        return _make(p * s + q * t * d, p * t + q * s, self._r * other._r, d)

    __rmul__ = __mul__

    def inverse(self):
        # r / (p + q sqrt(d)) = r (p - q sqrt(d)) / (p^2 - q^2 d)
        p, q, r = self._p, self._q, self._r
        n = p * p - q * q * self.d
        if n == 0:
            raise ZeroDivisionError("zero divisor in quadratic field")
        if n < 0:
            p, q, n = -p, -q, -n
        return _make(r * p, -r * q, n, self.d)

    def __truediv__(self, other):
        other, _ = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Quad(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return _make(self._p, -self._q, self._r, self.d)

    def minimal_poly(self) -> IntPoly:
        """Primitive integer minimal polynomial over Q: r x - p for a rational,
        else r^2 x^2 - 2 p r x + (p^2 - q^2 d) over its content."""
        p, q, r = self._p, self._q, self._r
        if q == 0:
            return IntPoly((-p, r))
        return IntPoly((p * p - q * q * self.d, -2 * p * r, r * r)).primitive()

    @property
    def is_rational(self):
        return self._q == 0

    def rational_value(self) -> Fraction:
        if self._q:
            raise UnsupportedError("not a rational value")
        return Fraction(self._p, self._r)

    def sign(self) -> int:
        """Exact sign of p + q sqrt(d) (r > 0), decided by comparing p^2 with q^2 d."""
        p, q = self._p, self._q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        # opposite signs: |p| vs |q| sqrt(d) decides
        lead = p if p * p > q * q * self.d else q
        return 1 if lead > 0 else -1

    def __eq__(self, other):
        if type(other) is int:
            return self._q == 0 and self._r == 1 and self._p == other
        if isinstance(other, Fraction):
            other = Quad(other)
        if not isinstance(other, Quad):
            return NotImplemented
        return (self._p == other._p and self._q == other._q and self._r == other._r
                and (self._q == 0 or self.d == other.d))

    def __hash__(self):
        # a rational value hashes as its Fraction, so that it agrees with ==
        if self._q == 0:
            return hash(Fraction(self._p, self._r))
        return hash((self._p, self._q, self._r, self.d))

    def __bool__(self):
        return bool(self._p or self._q)

    def __lt__(self, other):
        other = other if isinstance(other, Quad) else Quad(other)
        return (self - other).sign() < 0

    def __le__(self, other):
        other = other if isinstance(other, Quad) else Quad(other)
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def bounds(self, prec: int) -> tuple[int, int, int]:
        """Integers (lo, hi, den), den > 0, with lo / den <= value <= hi / den.

        A rational value gives (p, p, r).  Otherwise den = r * 2^prec and, with
        s = isqrt(d * 4^prec), s / 2^prec <= sqrt(d) <= (s + 1) / 2^prec bounds
        p + q sqrt(d) by p * 2^prec + q * s and p * 2^prec + q * (s + 1),
        swapped when q < 0.
        """
        p, q, r = self._p, self._q, self._r
        if q == 0:
            return p, p, r
        s = isqrt(self.d << 2 * prec)
        base = p << prec
        lo, hi = base + q * s, base + q * (s + 1)
        return (lo, hi, r << prec) if q > 0 else (hi, lo, r << prec)

    def enclosure(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rigorous rational interval containing the value: bounds() as Fractions."""
        lo, hi, den = self.bounds(prec)
        return Fraction(lo, den), Fraction(hi, den)

    def to_mpf(self, prec: int):
        from mpmath import mp, mpf

        # rounded from the reduced parts a and b, as each mpf(int) rounds to prec
        a = self.a
        with mp.workprec(prec):
            if self._q == 0:
                return mpf(a.numerator) / mpf(a.denominator)
            b = self.b
            return mpf(a.numerator) / mpf(a.denominator) + mpf(b.numerator) / mpf(b.denominator) * mp.sqrt(self.d)

    def __str__(self):
        p, q, r = self._p, self._q, self._r
        if q == 0:
            return str(p) if r == 1 else f"{p}/{r}"
        root = f"sqrt({self.d})" if abs(q) == 1 else f"{abs(q)}*sqrt({self.d})"
        if p == 0:
            body = root if q > 0 else f"-{root}"
        else:
            body = f"({p}+{root})" if q > 0 else f"({p}-{root})"
        return body if r == 1 else f"{body}/{r}"

    def __repr__(self):
        return f"Quad({self.a!r}, {self.b!r}, {self.d})"
