"""Exact integer-matrix algebra: one fraction-free (Bareiss) elimination for
rank, determinant, kernel and solve over Z, Q or Q(sqrt d), characteristic
polynomials, certified spectral radii, factorization over Q, monomial-map
degrees, and the checked container for a finite system of matrices.

Eigenvalue moduli are ranked exactly.  For an irreducible factor g the squared
root moduli are among the real roots of the composed resultant
q(y) = Res_x(g(x), x^deg(g) * g(y/x)), whose largest real root is rho(g)^2.
Each root of g is enclosed in its own certified disc (approximate roots from
an Aberth-Ehrlich iteration on Gaussian integers, with Weierstrass corrections
checked in exact integer arithmetic), and the disc places the root's |z|^2 in
one isolating interval of q; Sturm counts decide which roots are real.
Every CertifiedReal is the only root of its defining polynomial in its
interval, so CertifiedReal.compare ranks the results in one fixed order of
four steps, with one tie test: a common root of the two defining polynomials
in the overlap of the intervals, found by a gcd and a Sturm count.  Nothing is
ever ranked from floating point alone.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, isqrt, lcm

import sympy
from sympy.polys.densebasic import dmp_strip
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant, dup_gcd, dup_lcm
from sympy.polys.rootisolation import dup_isolate_real_roots

from . import kernels
from .errors import BudgetError, InputError, UnsupportedError
from .polys import (
    IntPoly,
    real_root_count,
    sign_at,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .precision import default_precision, fraction_to_mpf, sqrt_enclosure
from .quadratic import Quad

FACTOR_DEGREE_BOUND = 16

# relative enclosure width contract for spectral radii
_RADIUS_REL_WIDTH = Fraction(1, 2**80)

# width to which a root of a modulus resultant is refined before it is read
_ROOT_WIDTH = Fraction(1, 2**40)

# precision, in bits, of the first and the last try at certified root discs:
# the approximations sit on the grid 2^-(prec + low), where 2^-low is below
# every root modulus; each failed try doubles it
_DISC_PREC = 64
_DISC_PREC_CAP = 2**12


def _make(rows):
    """The IntMatrix of rows already known square, integral and invertible,
    such as a product or power of IntMatrix rows; nothing is checked."""
    m = object.__new__(IntMatrix)
    m.n = len(rows)
    m._rows = tuple(map(tuple, rows))
    return m


class IntMatrix:
    """Square integer matrix with nonzero determinant (exponent matrix of a monomial map).

    The matrix is immutable, its rows one tuple of int tuples read through
    rows.  The constructor checks rows entering the program; identities,
    products and powers are built by _make unchecked.  Its analysis is kept by
    rows, not on the object: every matrix with the same rows shares one record
    of the analysis table (see _analysis).
    """

    __slots__ = ("n", "_rows")

    def __init__(self, rows):
        try:
            rows = tuple(tuple(r) for r in rows)
        except TypeError:
            raise InputError("a matrix must be a list of rows") from None
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("matrix must be square and nonempty")
        for r in rows:
            for v in r:
                if type(v) is not int:  # bool is an int subclass, not an entry
                    raise InputError("entries must be integers")
        self.n = n
        self._rows = rows
        if det(rows) == 0:
            raise InputError("determinant is zero")

    @staticmethod
    def identity(n):
        return _make([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self):
        return self._rows

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise InputError("dimension mismatch")
        return _make(kernels.mat_mul(self._rows, other._rows))

    def pow(self, e: int) -> "IntMatrix":
        if e < 0:
            raise InputError("negative matrix powers are not integral")
        return _make(kernels.mat_pow(self._rows, e))

    def max_bit_length(self) -> int:
        return kernels.max_bits(self._rows)

    def to_json(self):
        return {"n": self.n, "rows": [list(r) for r in self._rows]}

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._rows]!r})"


@dataclass(frozen=True)
class SystemF:
    """A finite system of monomial maps: nonempty, one shared dimension."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise InputError("a system needs at least one matrix")
        if not all(isinstance(m, IntMatrix) for m in mats):
            raise InputError("system entries must be integer matrices")
        if len({m.n for m in mats}) != 1:
            raise InputError("all matrices must share one dimension")
        object.__setattr__(self, "matrices", mats)

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def to_json(self):
        return {"k": self.k, "matrices": [m.to_json() for m in self.matrices]}


def _as_system(F) -> SystemF:
    """F as a SystemF: a SystemF, one IntMatrix, or an iterable of them."""
    if isinstance(F, SystemF):
        return F
    if isinstance(F, IntMatrix):
        return SystemF((F,))
    return SystemF(tuple(F))


def charpoly(A: IntMatrix) -> IntPoly:
    """det(xI - A) by the Faddeev-LeVerrier recurrence, exact over Z.

    The trace divisions are exact at every step (Newton's identities); both the
    divisibility and the terminal Cayley-Hamilton identity are asserted.
    """
    n = A.n
    rows = A.rows
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]  # leading coefficient of x^n
    for k in range(1, n + 1):
        am = kernels.mat_mul(rows, m)
        tr = sum(am[i][i] for i in range(n))
        c, r = divmod(-tr, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier trace division not exact")
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    if any(m[i][j] != 0 for i in range(n) for j in range(n)):
        raise ArithmeticError("Cayley-Hamilton check failed")
    return IntPoly(tuple(reversed(coeffs)))


def monomial_degree(A: IntMatrix) -> int:
    """Algebraic degree of the induced self-map of projective N-space:
    max(0, max_i sum_j a_ij) + sum_j max(0, -min_i a_ij).

    Homogenized, coordinate 0 has exponent vector 0 and coordinate i has -s_i
    on x_0 (s_i the row sum) and a_ij on x_j.  Every vector sums to 0 and the
    zero vector is among them, so shifting each variable by the negative of its
    least exponent gives every vector the degree above, with monomial gcd 1.
    """
    rows = A.rows
    return max(0, *map(sum, rows)) + sum(max(0, -min(col)) for col in zip(*rows))


def factor_over_q(p: IntPoly):
    """Irreducible factorization over Q as [(factor, multiplicity)], canonical order.

    Factors are primitive with positive leading coefficient; the product over
    factor^multiplicity equals p up to a rational unit.
    """
    if p.degree > FACTOR_DEGREE_BOUND:
        raise UnsupportedError(f"degree {p.degree} exceeds factorization bound {FACTOR_DEGREE_BOUND}")
    if p.degree == 0:
        return []
    _, factors = sympy.factor_list(p.to_sympy())
    out = []
    for f, mult in factors:
        fp = IntPoly.from_sympy(f).primitive()
        if fp.degree >= 1:
            out.append((fp, int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def _is_root(p: IntPoly, x: Fraction) -> bool:
    """Whether p(x) = 0, decided by sign_at on integers."""
    return sign_at(p.coeffs, x.numerator, x.denominator) == 0


def _isolate_real_roots(p: IntPoly):
    """Isolating intervals whose endpoints are not roots, or degenerate ones at roots."""
    out = set()
    chain = None  # p's Sturm chain, built once and only if an endpoint is a root
    for (a, b), _k in dup_isolate_real_roots(_dense(p), ZZ):
        lo = Fraction(int(a.numerator), int(a.denominator))
        hi = Fraction(int(b.numerator), int(b.denominator))
        # an endpoint may be a neighbouring root: shrink towards the root in
        # the open interval (lo, hi), or keep the endpoint root if there is none
        while lo < hi and (_is_root(p, lo) or _is_root(p, hi)):
            chain = chain or sturm_chain(p)
            inside = sturm_count(p, lo, hi, chain) - _is_root(p, hi)  # roots in the open (lo, hi)
            mid = (lo + hi) / 2
            if not inside:
                lo = hi = lo if _is_root(p, lo) else hi
            elif _is_root(p, mid):
                lo = hi = mid
            elif sturm_count(p, lo, mid, chain):
                hi = mid
            else:
                lo = mid
        out.add((lo, hi))
    return sorted(out)


def _bisect_to_width(p: IntPoly, lo: Fraction, hi: Fraction, eps: Fraction):
    """Shrink an isolating interval of p to width <= eps by exact sign bisection.

    The endpoints are kept as integers X over one denominator D, which each
    halving doubles, and sign_at decides the sign of p(X / D) on integers.
    """
    if lo == hi:
        return lo, hi
    if _is_root(p, lo):
        return lo, lo
    den = lcm(lo.denominator, hi.denominator)
    x_lo, x_hi = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    s_lo = sign_at(p.coeffs, x_lo, den)
    while (x_hi - x_lo) * eps.denominator > eps.numerator * den:
        mid = x_lo + x_hi
        x_lo, x_hi, den = 2 * x_lo, 2 * x_hi, 2 * den
        s_mid = sign_at(p.coeffs, mid, den)
        if s_mid == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if s_lo != s_mid:
            x_hi = mid
        else:
            x_lo, s_lo = mid, s_mid
    return Fraction(x_lo, den), Fraction(x_hi, den)


class CertifiedReal:
    """A real number as a rigorous rational interval plus exact witnesses.

    descriptor: exact value in Q or a real quadratic field, when known.
    poly: squarefree integer polynomial with this value as its only root in
    [lo, hi], when there is no descriptor.
    sq: CertifiedReal for the square of the value, which refines a square
    root of an algebraic number of higher degree.

    Every value is the only root in [lo, hi] of its defining polynomial
    (_defining_poly): its poly, or else the descriptor's minimal polynomial.
    The descriptor intervals of from_quad and refine exclude the conjugate,
    since their half-width is at most |b| 2^-prec and the conjugate lies
    2 |b| sqrt(d) away; refine only narrows every other interval.

    compare decides in four steps: disjoint intervals; the exact sign of the
    difference of two descriptors in one field (or one rational), before any
    refinement; a common root of the defining polynomials in the overlap,
    which makes them equal; else refinement until they separate, which
    Mahler's root-separation bound guarantees (_separate).

    A value never changes: refine returns a narrower value.
    """

    __slots__ = ("lo", "hi", "descriptor", "poly", "sq")

    def __init__(self, lo, hi, descriptor=None, poly=None, sq=None):
        if descriptor is None and poly is None:
            raise InputError("a certified real needs a descriptor or a defining polynomial")
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise InputError("interval reversed")
        self.descriptor = descriptor
        self.poly = poly
        self.sq = sq

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls(q, q, descriptor=Quad(q))

    @classmethod
    def from_quad(cls, value: Quad):
        lo, hi = value.enclosure(default_precision())
        return cls(lo, hi, descriptor=value)

    @classmethod
    def from_poly_root(cls, poly: IntPoly, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo == hi:
            return cls.from_fraction(lo)
        return cls(lo, hi, poly=poly)

    @classmethod
    def sqrt_of(cls, sq: "CertifiedReal"):
        """Positive square root of a certified nonnegative value s, the only
        root of p = sq._defining_poly() in [a, b] = [max(sq.lo, 0), sq.hi].

        A root of p at a or b is s itself, rational, and its square root is
        exact.  Otherwise [lo, hi] with [lo^2, hi^2] inside [a, b] isolates
        sqrt(s) among the roots of p(x^2) once p, simple at s, changes sign
        over [lo^2, hi^2]; a zero sign there is s itself.  s lies more than
        2^-k from a and from b, for k the separation bits of p (x - a) and
        p (x - b), and lo^2 - a and b - hi^2 are at most 2^-prec (2 sqrt(b) + 1),
        below 2^-k from precision k + bitlen(ceil(b)) + 1 on.
        """
        if sq.hi < 0 or (sq.lo < 0 and sq.compare(cls.from_fraction(0)) < 0):
            raise InputError("square root of a negative value")
        if sq.descriptor is not None and sq.descriptor.is_rational:
            s = sq.descriptor.rational_value()
        else:
            p, a, b = sq._defining_poly(), max(sq.lo, Fraction(0)), sq.hi
            s = next((end for end in (a, b) if _is_root(p, end)), None)
        if s is not None:
            return cls.from_fraction(0) if s == 0 else cls.from_quad(Quad.sqrt_of(s))
        if p.coeffs[0] == 0:  # s > 0 is a root of p / x, and p(x^2) stays squarefree
            p = IntPoly(p.coeffs[1:])
        poly = IntPoly(tuple(c for ci in p.coeffs for c in (ci, 0))[:-1])
        prec, last = default_precision(), None
        while True:
            # lo bounds sqrt(a) from above and hi bounds sqrt(b) from below
            lo, hi = sqrt_enclosure(a, prec)[1], sqrt_enclosure(b, prec)[0]
            if lo <= hi:
                s_lo, s_hi = (sign_at(p.coeffs, x.numerator ** 2, x.denominator ** 2) for x in (lo, hi))
                if s_lo == 0 or s_hi == 0:
                    return cls.from_fraction(lo if s_lo == 0 else hi)
                if s_lo != s_hi:
                    return cls(lo, hi, poly=poly, sq=sq)
            if last is None:  # worked out only when the first precision fails
                # the coefficients of p (den x - num) for each end num/den
                last = max(_separation_bits([e.denominator * u - e.numerator * v
                                             for v, u in zip(p.coeffs + (0,), (0,) + p.coeffs)])
                           for e in (a, b)) + ceil(b).bit_length() + 1
            if prec >= last:
                raise ArithmeticError("square root not isolated at its worked-out precision")
            prec *= 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_mpf(self, prec):
        """The value rounded to prec bits."""
        if self.descriptor is not None:
            return self.descriptor.to_mpf(prec)
        value = self.refine(Fraction(1, 2 ** (prec + 8)) * max(Fraction(1), abs(self.mid())))
        return fraction_to_mpf(value.mid(), prec)

    def refine(self, eps) -> "CertifiedReal":
        """The same value with an enclosure of width <= eps; exact at every step."""
        eps = Fraction(eps)
        if self.width <= eps:
            return self
        if eps <= 0:
            raise InputError("only an exact value has an enclosure of width <= 0")
        lo, hi = self.lo, self.hi
        if self.descriptor is not None:
            prec = 64
            while hi - lo > eps:
                lo, hi = self.descriptor.enclosure(prec)
                prec *= 2
            return CertifiedReal(lo, hi, self.descriptor, self.poly, self.sq)
        if self.sq is not None:
            # sqrt(sq.hi) - sqrt(sq.lo) is at most the square's width once
            # sq.hi >= 1 and at most its square root below, so this width keeps
            # it <= eps / 2; each square-root bound adds at most 2^-prec, so
            # 2^-prec <= eps / 4 reaches eps
            sq = self.sq.refine(eps / 2)
            if sq.hi < 1:
                sq = sq.refine(eps * eps / 16)
            prec, last = 64, (-(-4 * eps.denominator // eps.numerator) - 1).bit_length()
            while True:
                lo = max(lo, sqrt_enclosure(max(sq.lo, Fraction(0)), prec)[0])
                hi = min(hi, sqrt_enclosure(sq.hi, prec)[1])
                if hi - lo <= eps:
                    return CertifiedReal(lo, hi, poly=self.poly, sq=sq)
                if prec >= last:
                    raise ArithmeticError("square-root refinement did not reach the requested width")
                prec *= 2
        lo, hi = _bisect_to_width(self.poly, lo, hi, eps)
        return CertifiedReal(lo, hi, Quad(lo) if lo == hi else None, self.poly)

    def _defining_poly(self) -> IntPoly:
        return self.poly if self.poly is not None else self.descriptor.minimal_poly()

    def compare(self, other: "CertifiedReal") -> int:
        """Exact three-way comparison in the four steps of the class docstring;
        it decides every pair."""
        if self.hi < other.lo:
            return -1
        if other.hi < self.lo:
            return 1
        a, b = self.descriptor, other.descriptor
        if a is not None and b is not None and (a.is_rational or b.is_rational or a.d == b.d):
            return (a - b).sign()
        if _share_root(self._defining_poly(), other._defining_poly(),
                       max(self.lo, other.lo), min(self.hi, other.hi)):
            return 0
        return _separate(self, other)

    def exact_str(self):
        return str(self.descriptor) if self.descriptor is not None else None

    def to_json(self):
        from .precision import real_str

        out = {"enclosure": [real_str(fraction_to_mpf(self.lo, 96), 25),
                             real_str(fraction_to_mpf(self.hi, 96), 25)]}
        if self.descriptor is not None:
            out["exact"] = str(self.descriptor)
        return out

    def __repr__(self):
        if self.descriptor is not None:
            return f"CertifiedReal({self.descriptor})"
        return f"CertifiedReal([{self.lo}, {self.hi}])"


def _dense(p: IntPoly):
    """p as sympy's dense list over ZZ, highest degree first."""
    return [ZZ(c) for c in reversed(p.coeffs)]


def _share_root(p: IntPoly, q: IntPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether the squarefree p and q have a common root in [lo, hi]."""
    g = dup_gcd(_dense(p), _dense(q), ZZ)
    if len(g) < 2:  # a constant gcd has no roots
        return False
    g = IntPoly(tuple(int(c) for c in reversed(g)))
    return _is_root(g, lo) or sturm_count(g, lo, hi) >= 1


def _separation_bits(coeffs) -> int:
    """k such that two distinct roots of the squarefree integer polynomial f
    with these coefficients, of degree n, in either order, lie more than
    2^-k apart: Mahler's bound sqrt(3) n^(-(n+2)/2) ||f||_2^(1-n) (Michigan
    Math. J. 11, 1964) exceeds 2^-k once 4^k > n^(n+2) ||f||_2^(2(n-1))."""
    n = len(coeffs) - 1
    t = n ** (n + 2) * sum(int(c) ** 2 for c in coeffs) ** (n - 1)
    return (t.bit_length() + 1) // 2


def _separate(a: CertifiedReal, b: CertifiedReal) -> int:
    """The sign of a - b, from refinements of two unequal overlapping values.

    Both are roots of f, the lcm of their defining polynomials, so at width
    2^-(k+1) each, for k the separation bits of f, their intervals are
    disjoint; refinement steps down by 2^-8 until they are, or to that width.
    """
    floor = Fraction(1, 2 ** (_separation_bits(dup_lcm(_dense(a._defining_poly()),
                                                       _dense(b._defining_poly()), ZZ)) + 1))
    eps = min(a.width, b.width, Fraction(1)) or Fraction(1, 2)
    while True:
        eps = max(eps / 2**8, floor)
        a, b = a.refine(eps), b.refine(eps)
        if a.hi < b.lo:
            return -1
        if b.hi < a.lo:
            return 1
        if eps == floor:
            raise ArithmeticError("values did not separate at their root-separation width")


@dataclass(frozen=True)
class FactorData:
    """Modulus data for one irreducible factor of a characteristic polynomial."""

    poly: IntPoly
    multiplicity: int
    rho: CertifiedReal
    rho_sq: CertifiedReal
    roots_at_max: int
    all_roots_real: bool
    roots: list = field(default_factory=list)  # Quad values, +sqrt first; real degree <= 2 only
    real_roots_at_max: list = field(default_factory=list)  # Quad values, degree <= 2 only
    max_real_signs: list = field(default_factory=list)  # one +-1 per real root at max modulus
    second_sq_hi: Fraction | None = None

    @property
    def degree(self):
        return self.poly.degree


@dataclass(frozen=True)
class ModulusProfile:
    """Exactly ranked eigenvalue moduli of an integer matrix."""

    charpoly: IntPoly
    factors: list
    rho: CertifiedReal
    max_indices: list
    second_sq_hi: Fraction | None

    @property
    def parity(self) -> int:
        """2 when a maximum-modulus eigenvalue is negative real, else 1."""
        return 2 if any(-1 in self.factors[i].max_real_signs for i in self.max_indices) else 1

    @property
    def irreducible(self) -> bool:
        """The characteristic polynomial is irreducible over Q (one simple factor, of degree N)."""
        return len(self.factors) == 1 and self.factors[0].multiplicity == 1


def _factor_data_low_degree(g: IntPoly, mult: int) -> FactorData:
    """Factor data of a linear or quadratic factor, read off its exact roots."""
    c = [Fraction(x) for x in g.coeffs]
    if g.degree == 1:
        roots = [Quad(-c[0] / c[1])]
    else:
        disc = c[1] * c[1] - 4 * c[0] * c[2]
        if disc < 0:
            # complex pair; |root|^2 is the root product c0/c2 > 0
            sq = c[0] / c[2]
            return FactorData(
                poly=g, multiplicity=mult,
                rho=CertifiedReal.from_quad(Quad.sqrt_of(sq)),
                rho_sq=CertifiedReal.from_quad(Quad(sq)),
                roots_at_max=2, all_roots_real=False,
            )
        root_disc = Quad.sqrt_of(disc)
        roots = [(Quad(-c[1]) + s * root_disc) / Quad(2 * c[2]) for s in (1, -1)]
    mods = [abs(r) for r in roots]
    rho_val = max(mods)
    at_max = [r for r, a in zip(roots, mods) if a == rho_val]
    smaller = [a * a for a in mods if a != rho_val]
    return FactorData(
        poly=g, multiplicity=mult,
        rho=CertifiedReal.from_quad(rho_val),
        rho_sq=CertifiedReal.from_quad(rho_val * rho_val),
        roots_at_max=len(at_max),
        all_roots_real=True,
        roots=roots,
        real_roots_at_max=at_max,
        max_real_signs=[r.sign() for r in at_max],
        second_sq_hi=max(sq.enclosure(default_precision())[1] for sq in smaller) if smaller else None,
    )


def _modulus_resultant(g: IntPoly) -> IntPoly:
    """q(y) = Res_x(g(x), x^deg * g(y/x)); squared root moduli of g are real roots of q.

    Both arguments are dense lists over ZZ in x (descending) of lists in y:
    g's coefficients are constants, and x^deg * g(y/x) has c_i y^i as its
    coefficient of x^(deg - i).
    """
    gx = dmp_strip([[ZZ(c)] if c else [] for c in reversed(g.coeffs)], 1)
    hy = dmp_strip([[ZZ(c)] + [ZZ(0)] * i if c else [] for i, c in enumerate(g.coeffs)], 1)
    q = dmp_resultant(gx, hy, 1, ZZ)
    return IntPoly(tuple(int(c) for c in reversed(q))).primitive()


def _sq_modulus_interval(box):
    """Range [lo, hi] of |z|^2 over the box [re_lo, re_hi] x [im_lo, im_hi]."""
    relo, rehi, imlo, imhi = box

    def sq_range(lo, hi):
        if lo <= 0 <= hi:
            return Fraction(0), max(lo * lo, hi * hi)
        vals = (lo * lo, hi * hi)
        return min(vals), max(vals)

    alo, ahi = sq_range(relo, rehi)
    blo, bhi = sq_range(imlo, imhi)
    return alo + blo, ahi + bhi


def _gauss_round(re, im, den):
    """(re + i im) / den rounded to the nearest Gaussian integer, for den > 0."""
    return (2 * re + den) // (2 * den), (2 * im + den) // (2 * den)


def _horner(scaled, x, y):
    """(g(z) S^d, g'(z) S^(d-1)) for z = (x + iy) / S, as Gaussian integers;
    scaled[k] = c_k S^(d - k), ascending, is g homogenised over S."""
    p_re, p_im, dp_re, dp_im = scaled[-1], 0, 0, 0
    for c in reversed(scaled[:-1]):
        dp_re, dp_im = dp_re * x - dp_im * y + p_re, dp_re * y + dp_im * x + p_im
        p_re, p_im = p_re * x - p_im * y + c, p_re * y + p_im * x
    return p_re, p_im, dp_re, dp_im


# start points turn by (-21 + 20i)/29, of modulus 1 and about 136.4 degrees,
# near the golden angle, from (4 + 3i)/4: any d of them spread round the
# circle, none is real and no two are conjugate; the modulus 5/4 keeps them
# off the circles |z| = 2^m that reciprocal factors have roots on
_TURN = (-21, 20, 29)
_OFFSET = (4, 3, 4)


def _aberth_roots(g: IntPoly, prec: int):
    """Approximate roots (X_i + i Y_i) / 2^E of the squarefree g, g(0) != 0,
    as the list of integer pairs (X_i, Y_i), and E; or None when the
    corrections do not settle within prec sweeps.

    The Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996) runs on
    Gaussian integers over one common 2^E, E = prec + low, where 2^-low is
    below Cauchy's lower bound on the root moduli.  The start points lie on a
    circle between Cauchy's lower and upper bounds.  The sweeps stop once no
    correction moves a point by more than one unit in either coordinate.
    Only the check in _root_boxes certifies anything, so the approximations
    may be of any quality.
    """
    c, d = g.coeffs, g.degree
    # every root has 2^-low < |z| < 2^high
    low = (max(abs(x) for x in c[1:]) // abs(c[0]) + 1).bit_length()
    high = (max(abs(x) for x in c[:-1]) // abs(c[-1]) + 1).bit_length()
    e = prec + low
    # the start circle has radius 5/4 * 2^((high - low) // 2)
    shift = e + (high - low) // 2
    z, (u, v, w), (turn_re, turn_im, turn_den) = [], _OFFSET, _TURN
    for _ in range(d):
        z.append(((u << shift) // w, (v << shift) // w))
        u, v, w = u * turn_re - v * turn_im, u * turn_im + v * turn_re, w * turn_den
    scaled = [ci << (e * (d - k)) for k, ci in enumerate(c)]
    # sum_j 1 / (z_i - z_j) is kept in units 2^(e - bits), fine enough for the
    # largest root
    bits = 2 * e + high
    for _ in range(prec):
        settled = True
        for i, (x, y) in enumerate(z):
            p_re, p_im, dp_re, dp_im = _horner(scaled, x, y)
            s_re = s_im = 0
            for j, (xj, yj) in enumerate(z):
                if j != i:
                    dx, dy = x - xj, y - yj
                    n2 = dx * dx + dy * dy
                    if not n2:
                        return None
                    s_re += (dx << bits) // n2
                    s_im -= (dy << bits) // n2
            # z_i -= N / (1 - N sum_j 1 / (z_i - z_j)) with N = g(z_i) / g'(z_i);
            # in units 2^-e that is p 2^bits / (dp 2^bits - p s)
            a_re = (dp_re << bits) - (p_re * s_re - p_im * s_im)
            a_im = (dp_im << bits) - (p_re * s_im + p_im * s_re)
            n2 = a_re * a_re + a_im * a_im
            if not n2:
                return None
            q_re, q_im = _gauss_round((p_re * a_re + p_im * a_im) << bits,
                                      (p_im * a_re - p_re * a_im) << bits, n2)
            if q_re > 1 or q_re < -1 or q_im > 1 or q_im < -1:
                settled = False
            z[i] = (x - q_re, y - q_im)
        if settled:
            return z, e
    return None


def _root_boxes(g: IntPoly, prec: int):
    """One box [re_lo, re_hi] x [im_lo, im_hi] around each root of the
    squarefree g, or None when the approximate roots of _aberth_roots(g, prec)
    certify no disjoint discs.

    For approximate roots z_i and Weierstrass corrections
    W_i = g(z_i) / (lc * prod_{j != i} (z_i - z_j)), the roots of g are the
    eigenvalues of diag(z) - W 1^T, so the Gerschgorin discs
    D(z_i - W_i, (d - 1)|W_i|) cover them; pairwise disjoint discs hold
    exactly one root each.  All of it is exact integer arithmetic over the
    grid 2^-E of the approximations: g(z_i) by homogenised Horner, the
    product on Gaussian integers, W_i rounded to the grid with the rounding
    (below one unit) added to the radius, and |W_i| bounded above by isqrt.
    """
    found = _aberth_roots(g, prec)
    if found is None:
        return None
    z, e = found
    d = g.degree
    scaled = [ci << (e * (d - k)) for k, ci in enumerate(g.coeffs)]
    discs = []
    for i, (x, y) in enumerate(z):
        p_re, p_im, _, _ = _horner(scaled, x, y)
        den_re, den_im = g.lc, 0
        for j, (xj, yj) in enumerate(z):
            if j != i:
                dx, dy = x - xj, y - yj
                den_re, den_im = den_re * dx - den_im * dy, den_re * dy + den_im * dx
        den_sq = den_re * den_re + den_im * den_im
        if not den_sq:  # coincident approximations certify nothing
            return None
        # with S = 2^e and Z = S z: W_i S = (g(z_i) S^d) / (lc prod_j (Z_i - Z_j))
        w_re, w_im = _gauss_round(p_re * den_re + p_im * den_im, p_im * den_re - p_re * den_im, den_sq)
        w_abs = isqrt(w_re * w_re + w_im * w_im - 1) + 1 if w_re or w_im else 0  # ceil |w|
        discs.append((x - w_re, y - w_im, (d - 1) * (w_abs + 1) + 1))
    for i, (x1, y1, r1) in enumerate(discs):
        for x2, y2, r2 in discs[i + 1:]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return None
    grid = 1 << e
    return [(Fraction(x - r, grid), Fraction(x + r, grid), Fraction(y - r, grid), Fraction(y + r, grid))
            for x, y, r in discs]


def _rank_boxes(boxes, roots, n_real: int):
    """(index of the root of q equal to |z|^2 for each root box, ascending signs
    of the real roots at the top root), or None when a box is too wide.

    roots are the real roots of q, ascending, as CertifiedReals with disjoint
    enclosures.  |z|^2 = z * conj(z) is one of them, so a unique overlap
    decides.  A box meeting several enclosures is decided on them once they
    are refined to width _ROOT_WIDTH, which replaces those roots in the list.
    A box meeting the real axis holds a real root once exactly n_real boxes
    meet it.
    """
    assignment = []
    for box in boxes:
        slo, shi = _sq_modulus_interval(box)
        hits = [k for k, r in enumerate(roots) if shi >= r.lo and slo <= r.hi]
        if len(hits) > 1:
            for k in hits:
                roots[k] = roots[k].refine(_ROOT_WIDTH)
            hits = [k for k in hits if shi >= roots[k].lo and slo <= roots[k].hi]
        if len(hits) != 1:
            return None
        assignment.append(hits[0])
    real = [box[2] <= 0 <= box[3] for box in boxes]
    if sum(real) != n_real:
        return None
    signs = []
    for box, is_real, k in zip(boxes, real, assignment):
        if is_real and k == len(roots) - 1:
            if box[0] <= 0 <= box[1]:  # g(0) != 0, so a tighter box excludes 0
                return None
            signs.append(1 if box[0] > 0 else -1)
    # real roots at the maximum are -rho and rho, so sorted signs are in root order
    return assignment, sorted(signs)


def _factor_data_high_degree(g: IntPoly, mult: int) -> FactorData:
    q = squarefree_part(_modulus_resultant(g))
    roots = [CertifiedReal.from_poly_root(q, lo, hi) for lo, hi in _isolate_real_roots(q)]
    if not roots:
        raise ArithmeticError("modulus resultant has no real roots")
    # the two roots that reach an output: the top one, rho^2, and the highest
    # other one that is some |z|^2, whose upper end is second_sq_hi; the rest
    # only when a box meets several
    top_idx = len(roots) - 1
    roots[top_idx] = roots[top_idx].refine(_ROOT_WIDTH)
    n_real = real_root_count(g)
    prec = _DISC_PREC
    ranked = None
    while ranked is None:
        if prec > _DISC_PREC_CAP:
            raise BudgetError("root discs did not separate the moduli", partial=[(r.lo, r.hi) for r in roots])
        boxes = _root_boxes(g, prec)
        ranked = boxes and _rank_boxes(boxes, roots, n_real)
        prec *= 2
    assignment, signs = ranked

    second = max((a for a in assignment if a != top_idx), default=None)
    rho_sq = roots[top_idx]
    return FactorData(
        poly=g, multiplicity=mult, rho=CertifiedReal.sqrt_of(rho_sq), rho_sq=rho_sq,
        roots_at_max=assignment.count(top_idx),
        all_roots_real=n_real == g.degree,
        max_real_signs=signs,
        second_sq_hi=None if second is None else roots[second].refine(_ROOT_WIDTH).hi,
    )


# ---------------------------------------------------------------------------
# one analysis per distinct matrix

# records the analysis table keeps; past it, the least recently used goes
_ANALYSIS_BOUND = 64

_ANALYSES = OrderedDict()  # IntMatrix.rows -> _Analysis, least recently used first


@dataclass(slots=True)
class _Analysis:
    """The analysis of one matrix's rows.  Each field is filled on first use
    by the function of the same name, and read back by every later call on a
    matrix with the same rows."""

    charpoly_factors: tuple = None
    modulus_profile: ModulusProfile = None
    jordan_profile: object = None  # jordan.JordanProfile
    limit_matrix_B: object = None  # jordan.LimitMatrixB, exact limits only
    jordan_basis: object = None  # jordan.JordanBasisData


def _analysis(A: IntMatrix) -> _Analysis:
    """The record of A's rows, made empty on the first analysis call; the
    table keeps the _ANALYSIS_BOUND most recently used records."""
    record = _ANALYSES.get(A.rows)
    if record is None:
        record = _ANALYSES[A.rows] = _Analysis()
        if len(_ANALYSES) > _ANALYSIS_BOUND:
            _ANALYSES.popitem(last=False)
    else:
        _ANALYSES.move_to_end(A.rows)
    return record


def charpoly_factors(A: IntMatrix):
    """(charpoly(A), factor_over_q(charpoly(A))); computed once per distinct rows.

    The first stage of a matrix's analysis: it factors and ranks nothing, so
    callers that need only the factors never meet a modulus-ranking error.
    """
    record = _analysis(A)
    if record.charpoly_factors is None:
        cp = charpoly(A)
        record.charpoly_factors = (cp, factor_over_q(cp))
    return record.charpoly_factors


def modulus_profile(A: IntMatrix) -> ModulusProfile:
    """Rank all root moduli of the factored characteristic polynomial exactly;
    computed once per distinct rows."""
    record = _analysis(A)
    if record.modulus_profile is not None:
        return record.modulus_profile
    cp, factors = charpoly_factors(A)
    data = []
    for g, mult in factors:
        build = _factor_data_low_degree if g.degree <= 2 else _factor_data_high_degree
        data.append(build(g, mult))
    # exact ranking of per-factor maxima
    best = [0]
    for i in range(1, len(data)):
        c = data[i].rho_sq.compare(data[best[0]].rho_sq)
        if c > 0:
            best = [i]
        elif c == 0:
            best.append(i)
    rho = _within_radius_width(data[best[0]].rho)

    seconds = []
    for i, fd in enumerate(data):
        if i not in best:
            seconds.append(fd.rho_sq.hi)
        if fd.second_sq_hi is not None:
            seconds.append(fd.second_sq_hi)
    record.modulus_profile = ModulusProfile(
        charpoly=cp,
        factors=data,
        rho=rho,
        max_indices=best,
        second_sq_hi=max(seconds) if seconds else None,
    )
    return record.modulus_profile


def _within_radius_width(rho: CertifiedReal) -> CertifiedReal:
    """rho refined to the relative width every certified radius has."""
    return rho.refine(max(rho.hi, Fraction(1)) * _RADIUS_REL_WIDTH)


def spectral_radius(A: IntMatrix) -> CertifiedReal:
    """Certified spectral radius; exact descriptor when the maximizing eigenvalue
    is rational or quadratic over Q."""
    return modulus_profile(A).rho


def _twice_radius(t: int, d: int):
    """(u, v) with 2 rho = u + sqrt(v), integers u, v >= 0, for the roots of
    x^2 - t x + d: |t| + sqrt(t^2 - 4d) for real roots, sqrt(4d) for a complex pair."""
    disc = t * t - 4 * d
    return (abs(t), disc) if disc >= 0 else (0, 4 * d)


def trace_det_radius(t: int, d: int) -> CertifiedReal:
    """spectral_radius of any 2x2 integer matrix with trace t and determinant d,
    (u + sqrt(v))/2 from _twice_radius, with no charpoly and no factorization."""
    u, v = _twice_radius(t, d)
    if v == 0:  # double eigenvalue t/2, where Quad.sqrt_of(0) would raise
        return CertifiedReal.from_fraction(Fraction(u, 2))
    return _within_radius_width(CertifiedReal.from_quad(Quad(Fraction(u, 2)) + Quad.sqrt_of(Fraction(v, 4))))


# ---------------------------------------------------------------------------
# one fraction-free elimination over Z, Q and Q(sqrt d)


def _echelon(rows):
    """(echelon rows, pivot columns, determinant) by Bareiss elimination.

    Below each pivot `lead` an entry a becomes (a * lead - f * b) / prev, with
    f the entry under the pivot, b the pivot row's entry and prev the pivot
    before.  By Sylvester's identity every entry is then a minor of the input
    and the division is exact, so integer rows stay integers (floor division)
    and Fraction or Quad rows stay in their field (ints among them are lifted
    to Fraction).  The last pivot of a square matrix of full rank is its
    determinant up to the sign of the row swaps; the determinant is 0 for any
    other matrix.
    """
    integral = all(type(v) is int for r in rows for v in r)
    rows = [list(r) if integral else [Fraction(v) if type(v) is int else v for v in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        lead = top[c]
        inv = None if integral or prev == 1 else 1 / prev
        for i in range(r + 1, nrows):
            row, f = rows[i], rows[i][c]
            tail = [row[j] * lead - f * top[j] for j in range(c + 1, ncols)]
            if prev != 1:
                tail = [v // prev for v in tail] if integral else [v * inv for v in tail]
            rows[i] = [0] * (c + 1) + tail
        prev = lead
        pivots.append(c)
    return rows, pivots, sign * prev if len(pivots) == nrows == ncols else 0


def _back_substitute(rows, pivots, x):
    """x, in place, with each pivot coordinate solved from its echelon row so
    that every row r has sum_j rows[r][j] x[j] = 0; the other coordinates are
    kept.  The pivot coordinates must hold a zero of the wanted field."""
    for r in range(len(pivots) - 1, -1, -1):
        c, row = pivots[r], rows[r]
        x[c] = -sum((row[j] * x[j] for j in range(c + 1, len(x))), x[c]) / row[c]
    return x


def rank(rows) -> int:
    return len(_echelon(rows)[1])


def det(rows):
    """Exact determinant of a square matrix over Z, Q or Q(sqrt d)."""
    return _echelon(rows)[2]


def nullspace(rows):
    """Kernel basis over Q(sqrt d) as Quad column vectors: one per free column,
    1 there and 0 at the other free columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    echelon, pivots, _ = _echelon(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Quad(0)] * ncols
        v[fc] = Quad(1)
        basis.append(_back_substitute(echelon, pivots, v))
    return basis


def frac_solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None when inconsistent.

    Free variables are set to zero; when the system has a unique solution this
    is it.
    """
    ncols = len(rows[0])
    echelon, pivots, _ = _echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    # the right-hand side is a column whose coordinate is fixed at -1
    x = _back_substitute(echelon, pivots, [Fraction(0)] * ncols + [Fraction(-1)])[:ncols]
    for row, b in zip(rows, rhs):
        if sum(Fraction(v) * xi for v, xi in zip(row, x)) != Fraction(b):
            raise ArithmeticError("back-substitution does not solve the system")
    return x
