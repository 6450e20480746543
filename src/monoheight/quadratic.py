"""Exact arithmetic in real quadratic fields Q(sqrt(d)), d > 1 squarefree.

Values are a + b*sqrt(d) with rational a, b.  Rationals embed as b = 0 (d is
then irrelevant and normalized to 0).  Signs and comparisons are decided
exactly by squaring, never through floating point.
"""

from fractions import Fraction

from .errors import InputError, UnsupportedError
from .precision import sqrt_enclosure


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree; returns (s, d). Requires n > 0."""
    import sympy

    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


class Quad:
    """a + b*sqrt(d), exact. d = 0 encodes a plain rational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d <= 1:
            raise InputError("Quad needs squarefree d > 1 when b != 0")
        self.a, self.b, self.d = a, b, int(d)

    @classmethod
    def sqrt_of(cls, q: Fraction):
        """Exact sqrt of a positive rational, as a Quad (rational when q is a square)."""
        q = Fraction(q)
        if q <= 0:
            raise InputError("sqrt_of needs a positive rational")
        s, d = _squarefree_split(q.numerator * q.denominator)
        # sqrt(p/r) = sqrt(p*r)/r = s*sqrt(d)/r
        if d == 1:
            return cls(Fraction(s, q.denominator))
        return cls(0, Fraction(s, q.denominator), d)

    def _check(self, other):
        other = other if isinstance(other, Quad) else Quad(other)
        if self.d and other.d and self.d != other.d:
            raise UnsupportedError("mixing distinct quadratic fields")
        return other, self.d or other.d

    def __add__(self, other):
        other, d = self._check(other)
        return Quad(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Quad) else Quad(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, d = self._check(other)
        return Quad(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero divisor in quadratic field")
        return Quad(self.a / n, -self.b / n, self.d)

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
        return Quad(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (product with the conjugate)."""
        return self.a * self.a - self.b * self.b * self.d

    def trace(self) -> Fraction:
        return 2 * self.a

    @property
    def is_rational(self):
        return self.b == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise UnsupportedError("not a rational value")
        return self.a

    def sign(self) -> int:
        """Exact sign, decided by comparing a^2 with b^2 d."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: |a| vs |b| sqrt(d) decides
        lead = self.a if self.a * self.a > self.b * self.b * self.d else self.b
        return 1 if lead > 0 else -1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quad(other)
        if not isinstance(other, Quad):
            return NotImplemented
        return self.a == other.a and self.b == other.b and (self.b == 0 or self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

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

    def enclosure(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rigorous rational interval containing the value."""
        if self.b == 0:
            return self.a, self.a
        lo, hi = sqrt_enclosure(Fraction(self.d), prec)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def to_mpf(self, prec: int):
        from mpmath import mp, mpf

        with mp.workprec(prec):
            if self.b == 0:
                return mpf(self.a.numerator) / mpf(self.a.denominator)
            return (
                mpf(self.a.numerator) / mpf(self.a.denominator)
                + mpf(self.b.numerator) / mpf(self.b.denominator) * mp.sqrt(self.d)
            )

    def __str__(self):
        if self.b == 0:
            q = self.a
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        from math import lcm

        c = lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (c // self.a.denominator)
        q = self.b.numerator * (c // self.b.denominator)
        root = f"sqrt({self.d})" if abs(q) == 1 else f"{abs(q)}*sqrt({self.d})"
        if p == 0:
            body = root if q > 0 else f"-{root}"
            return body if c == 1 else f"{body}/{c}"
        body = f"({p}+{root})" if q > 0 else f"({p}-{root})"
        return body if c == 1 else f"{body}/{c}"

    def __repr__(self):
        return f"Quad({self.a!r}, {self.b!r}, {self.d})"
