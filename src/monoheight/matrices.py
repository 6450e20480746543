"""Exact integer-matrix algebra: one fraction-free (Bareiss) elimination for
rank, determinant, kernel and solve over Z, Q or Q(sqrt d), characteristic
polynomials, certified spectral radii, factorization over Q, monomial-map
degrees, and the checked container for a finite system of matrices.

Eigenvalue moduli are ranked exactly.  For an irreducible factor g the squared
root moduli are among the real roots of the composed resultant
q(y) = Res_x(g(x), x^deg(g) * g(y/x)), whose largest real root is rho(g)^2.
Each root of g is enclosed in its own certified disc (mpmath's approximate
roots with Weierstrass corrections, checked in exact rational arithmetic), and
the disc places the root's |z|^2 in one isolating interval of q; Sturm counts
decide which roots are real.  CertifiedReal.compare ranks the results in one
fixed order of five steps, with one tie test: a common root of the defining
polynomials, whose isolating intervals overlap, found by a gcd and a Sturm
count.  Nothing is ever ranked from floating point alone.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import sympy
from mpmath import mp
from sympy.polys.densebasic import dmp_strip
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant, dup_gcd

from . import kernels
from .errors import IndistinguishableModuliError, InputError, UnsupportedError
from .polys import (
    IntPoly,
    root_bound,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .precision import default_precision, fraction_to_mpf, mpf_to_fraction, sqrt_enclosure
from .quadratic import Quad

FACTOR_DEGREE_BOUND = 16

# relative enclosure width contract for spectral radii
_RADIUS_REL_WIDTH = Fraction(1, 2**80)

# working precision, in bits, of the first and the last try at certified root
# discs; each failed try doubles it
_DISC_PREC = 64
_DISC_PREC_CAP = 2**12


class IntMatrix:
    """Square integer matrix with nonzero determinant (exponent matrix of a monomial map).

    The matrix is immutable, so it keeps its own analysis: charpoly_factors,
    modulus_profile, jordan_profile and the exact limit_matrix_B each fill one
    slot on first use.
    """

    __slots__ = ("n", "_rows", "_key", "_det", "_factors", "_modulus", "_jordan", "_limit")

    def __init__(self, rows, _trusted=False):
        try:
            rows = [list(r) for r in rows]
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
        self._key = tuple(tuple(r) for r in rows)
        self._det = None
        self._factors = self._modulus = self._jordan = self._limit = None
        if not _trusted and self.det() == 0:
            raise InputError("determinant is zero")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], _trusted=True)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InputError('matrix JSON needs {"n": N, "rows": [[...]]}')
        m = cls(obj["rows"])
        n = obj.get("n", m.n)
        if type(n) is not int or n != m.n:
            raise InputError("declared dimension does not match rows")
        return m

    @property
    def rows(self):
        return self._key

    def det(self) -> int:
        if self._det is None:
            self._det = det(self._rows)
        return self._det

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise InputError("dimension mismatch")
        return IntMatrix(kernels.mat_mul(self._rows, other._rows), _trusted=True)

    def pow(self, e: int) -> "IntMatrix":
        if e < 0:
            raise InputError("negative matrix powers are not integral")
        return IntMatrix(kernels.mat_pow(self._rows, e), _trusted=True)

    def max_bit_length(self) -> int:
        return kernels.max_bits(self._rows)

    def row_lists(self):
        """Internal row storage; callers must not mutate."""
        return self._rows

    def to_json(self):
        return {"n": self.n, "rows": [list(r) for r in self._rows]}

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"IntMatrix({self._rows!r})"


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


def word_product(matrices) -> IntMatrix:
    """Exact product in list order; matches composition order of the induced maps."""
    matrices = list(matrices)
    if not matrices:
        raise InputError("empty word")
    out = matrices[0]
    for m in matrices[1:]:
        out = out.mul(m)
    return out


def charpoly(A: IntMatrix) -> IntPoly:
    """det(xI - A) by the Faddeev-LeVerrier recurrence, exact over Z.

    The trace divisions are exact at every step (Newton's identities); both the
    divisibility and the terminal Cayley-Hamilton identity are asserted.
    """
    n = A.n
    rows = A.row_lists()
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


def _isolate_real_roots(p: IntPoly):
    """Isolating intervals whose endpoints are not roots, or degenerate ones at roots."""
    sp = p.to_sympy()
    out = set()
    chain = None  # p's Sturm chain, built once and only if an endpoint is a root
    for (a, b), _k in sp.intervals():
        lo = Fraction(int(a.p), int(a.q))
        hi = Fraction(int(b.p), int(b.q))
        # an endpoint may be a neighbouring root: shrink towards the root in
        # the open interval (lo, hi), or keep the endpoint root if there is none
        while lo < hi and (p(lo) == 0 or p(hi) == 0):
            chain = chain or sturm_chain(p)
            inside = sturm_count(p, lo, hi, chain) - (p(hi) == 0)  # roots in the open (lo, hi)
            mid = (lo + hi) / 2
            if not inside:
                lo = hi = lo if p(lo) == 0 else hi
            elif p(mid) == 0:
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
    halving doubles; the sign of p(X / D) is that of the homogenised integer
    sum of c_i X^i D^(deg - i), so no step normalises a Fraction.
    """
    if lo == hi:
        return lo, hi
    if p(lo) == 0:
        return lo, lo
    den = lcm(lo.denominator, hi.denominator)
    x_lo, x_hi = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)

    def sign_at(x):
        acc, scale = 0, 1
        for c in reversed(p.coeffs):
            acc = acc * x + c * scale
            scale *= den
        return (acc > 0) - (acc < 0)

    s_lo = sign_at(x_lo)
    while (x_hi - x_lo) * eps.denominator > eps.numerator * den:
        mid = x_lo + x_hi
        x_lo, x_hi, den = 2 * x_lo, 2 * x_hi, 2 * den
        s_mid = sign_at(mid)
        if s_mid == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if s_lo != s_mid:
            x_hi = mid
        else:
            x_lo, s_lo = mid, s_mid
    return Fraction(x_lo, den), Fraction(x_hi, den)


class CertifiedReal:
    """A real number as a rigorous rational interval plus optional exact witnesses.

    descriptor: exact value in Q or a real quadratic field, when known.
    poly: squarefree integer polynomial with this value as the unique root in
    [lo, hi], enabling exact refinement and equality decisions.
    sq: CertifiedReal for the square of the value (used when the value itself
    is a square root of an algebraic number of higher degree).

    Every value but a square root is a root of a defining polynomial isolated
    by [lo, hi]: its poly, or else the descriptor's minimal polynomial.  The
    descriptor intervals of from_quad and refine exclude the conjugate, since
    their half-width is at most |b| 2^-prec and the conjugate lies 2 |b| sqrt(d)
    away.

    compare decides in five steps: disjoint intervals; the exact sign of the
    difference of two descriptors in one field (or one rational), before any
    refinement; the squares, when one value is a square root and both are
    >= 0 with known squares; a common root of the defining polynomials in the
    overlap, which makes them equal; else refinement until they separate.
    """

    __slots__ = ("lo", "hi", "descriptor", "poly", "sq")

    def __init__(self, lo, hi, descriptor=None, poly=None, sq=None):
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
        """Positive square root of a certified nonnegative value."""
        if sq.descriptor is not None and sq.descriptor.is_rational:
            return cls.from_quad(Quad.sqrt_of(sq.descriptor.rational_value()))
        prec = default_precision()
        lo, _ = sqrt_enclosure(max(sq.lo, Fraction(0)), prec)
        _, hi = sqrt_enclosure(sq.hi, prec)
        return cls(lo, hi, sq=sq)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_mpf(self, prec=None):
        prec = prec or default_precision()
        if self.descriptor is not None:
            return self.descriptor.to_mpf(prec)
        self.refine(Fraction(1, 2 ** (prec + 8)) * max(Fraction(1), abs(self.mid())))
        return fraction_to_mpf(self.mid(), prec)

    def refine(self, eps):
        """Tighten the enclosure to width <= eps (in place); exact at every step."""
        eps = Fraction(eps)
        if self.width <= eps:
            return self
        if eps <= 0:
            raise InputError("only an exact value has an enclosure of width <= 0")
        if self.descriptor is not None:
            prec = 64
            while self.width > eps:
                self.lo, self.hi = self.descriptor.enclosure(prec)
                prec *= 2
            return self
        if self.sq is not None:
            prec = 64
            while self.width > eps:
                self.sq.refine(eps * eps / 16 if self.sq.hi < 1 else eps / 2)
                lo, _ = sqrt_enclosure(max(self.sq.lo, Fraction(0)), prec)
                _, hi = sqrt_enclosure(self.sq.hi, prec)
                self.lo = max(self.lo, lo)
                self.hi = min(self.hi, hi)
                prec *= 2
                if prec > 2**16 and self.width > eps:
                    raise IndistinguishableModuliError(
                        "square-root refinement did not reach the requested width", [(self.lo, self.hi)]
                    )
            return self
        if self.poly is not None:
            self.lo, self.hi = _bisect_to_width(self.poly, self.lo, self.hi, eps)
            if self.lo == self.hi:
                self.descriptor = Quad(self.lo)
            return self
        raise IndistinguishableModuliError(
            "cannot refine a bare interval", [(self.lo, self.hi)]
        )

    def _square(self):
        """The value's square as a CertifiedReal, or None when it is not known."""
        if self.sq is not None:
            return self.sq
        if self.descriptor is not None:
            return CertifiedReal.from_quad(self.descriptor * self.descriptor)
        return None

    def _defining_poly(self):
        if self.poly is not None:
            return self.poly
        return self.descriptor.minimal_poly() if self.descriptor is not None else None

    def compare(self, other: "CertifiedReal") -> int:
        """Exact three-way comparison in the five steps of the class docstring;
        raises only if refinement is impossible."""
        if self.hi < other.lo:
            return -1
        if other.hi < self.lo:
            return 1
        a, b = self.descriptor, other.descriptor
        if a is not None and b is not None and (a.is_rational or b.is_rational or a.d == b.d):
            return (a - b).sign()
        if (self.sq is not None or other.sq is not None) and self.lo >= 0 and other.lo >= 0:
            sq_self, sq_other = self._square(), other._square()
            if sq_self is not None and sq_other is not None:
                return sq_self.compare(sq_other)
        p, q = self._defining_poly(), other._defining_poly()
        if p is not None and q is not None and _share_root(p, q, max(self.lo, other.lo), min(self.hi, other.hi)):
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


def _share_root(p: IntPoly, q: IntPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether the squarefree p and q have a common root in [lo, hi]."""
    g = dup_gcd([ZZ(c) for c in reversed(p.coeffs)], [ZZ(c) for c in reversed(q.coeffs)], ZZ)
    if len(g) < 2:  # a constant gcd has no roots
        return False
    g = IntPoly(tuple(int(c) for c in reversed(g)))
    return g(lo) == 0 or sturm_count(g, lo, hi) >= 1


def _separate(a: CertifiedReal, b: CertifiedReal) -> int:
    eps = min(a.width, b.width, Fraction(1)) or Fraction(1, 2)
    for _ in range(80):
        eps /= 2**8
        a.refine(eps)
        b.refine(eps)
        if a.hi < b.lo:
            return -1
        if b.hi < a.lo:
            return 1
    raise IndistinguishableModuliError(
        "values did not separate within refinement budget",
        [(a.lo, a.hi), (b.lo, b.hi)],
    )


@dataclass
class FactorData:
    """Modulus data for one irreducible factor of a characteristic polynomial."""

    poly: IntPoly
    multiplicity: int
    rho: CertifiedReal
    rho_sq: CertifiedReal
    roots_at_max: int
    neg_real_at_max: bool
    all_roots_real: bool
    roots: list = field(default_factory=list)  # Quad values, +sqrt first; real degree <= 2 only
    real_roots_at_max: list = field(default_factory=list)  # Quad values, degree <= 2 only
    max_real_signs: list = field(default_factory=list)  # one +-1 per real root at max modulus
    second_sq_hi: Fraction | None = None
    is_max: bool = False

    @property
    def degree(self):
        return self.poly.degree


@dataclass
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
        return 2 if any(self.factors[i].neg_real_at_max for i in self.max_indices) else 1


def _factor_data_deg1(g: IntPoly, mult: int) -> FactorData:
    lam = Fraction(-g.coeffs[0], g.coeffs[1])
    rho = CertifiedReal.from_quad(Quad(abs(lam)))
    return FactorData(
        poly=g,
        multiplicity=mult,
        rho=rho,
        rho_sq=CertifiedReal.from_quad(Quad(lam * lam)),
        roots_at_max=1,
        neg_real_at_max=lam < 0,
        all_roots_real=True,
        roots=[Quad(lam)],
        real_roots_at_max=[Quad(lam)],
        max_real_signs=[1 if lam > 0 else -1],
    )


def _factor_data_deg2(g: IntPoly, mult: int) -> FactorData:
    c0, c1, c2 = (Fraction(c) for c in g.coeffs)
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        # complex pair; |root|^2 is the root product c0/c2 > 0
        sq = c0 / c2
        rho = CertifiedReal.from_quad(Quad.sqrt_of(sq))
        return FactorData(
            poly=g, multiplicity=mult, rho=rho,
            rho_sq=CertifiedReal.from_quad(Quad(sq)),
            roots_at_max=2, neg_real_at_max=False,
            all_roots_real=False,
        )
    root_disc = Quad.sqrt_of(disc)
    r1 = (Quad(-c1) + root_disc) / Quad(2 * c2)
    r2 = (Quad(-c1) - root_disc) / Quad(2 * c2)
    a1, a2 = abs(r1), abs(r2)
    cmp = (a1 - a2).sign()
    if cmp == 0:
        rho_val = a1
        at_max = [r1, r2]
        second = None
    else:
        rho_val, small = (a1, a2) if cmp > 0 else (a2, a1)
        at_max = [r1 if cmp > 0 else r2]
        second = (small * small).enclosure(default_precision())[1]
    return FactorData(
        poly=g, multiplicity=mult,
        rho=CertifiedReal.from_quad(rho_val),
        rho_sq=CertifiedReal.from_quad(rho_val * rho_val),
        roots_at_max=len(at_max),
        neg_real_at_max=any(r.sign() < 0 for r in at_max),
        all_roots_real=True,
        roots=[r1, r2],
        real_roots_at_max=at_max,
        max_real_signs=[r.sign() for r in at_max],
        second_sq_hi=second,
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


def _gauss_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _root_boxes(g: IntPoly, prec: int):
    """One box [re_lo, re_hi] x [im_lo, im_hi] around each root of the
    squarefree g, or None when the approximate roots at prec bits certify no
    disjoint discs.

    For approximate roots z_i and Weierstrass corrections
    W_i = g(z_i) / (lc * prod_{j != i} (z_i - z_j)), the roots of g are the
    eigenvalues of diag(z) - W 1^T, so the Gerschgorin discs
    D(z_i - W_i, (d - 1)|W_i|) cover them; pairwise disjoint discs hold
    exactly one root each.  All of it is exact Gaussian-rational arithmetic.
    """
    # polyroots stops on an absolute error and walks out to large or clustered
    # roots at a bounded rate per step, so its guard bits and steps grow with prec
    with mp.workprec(prec):
        try:
            approx = mp.polyroots(list(reversed(g.coeffs)), maxsteps=prec, extraprec=prec)
        except mp.NoConvergence:
            return None
    z = [(mpf_to_fraction(r.real), mpf_to_fraction(r.imag)) for r in approx]
    discs = []
    for i, zi in enumerate(z):
        value = (Fraction(0), Fraction(0))
        for c in reversed(g.coeffs):
            value = _gauss_mul(value, zi)
            value = (value[0] + c, value[1])
        den = (Fraction(g.lc), Fraction(0))
        for j, zj in enumerate(z):
            if j != i:
                den = _gauss_mul(den, (zi[0] - zj[0], zi[1] - zj[1]))
        den_sq = den[0] * den[0] + den[1] * den[1]
        if den_sq == 0:  # coincident approximations certify nothing
            return None
        w = _gauss_mul(value, (den[0] / den_sq, -den[1] / den_sq))
        radius = (g.degree - 1) * sqrt_enclosure(w[0] * w[0] + w[1] * w[1], 2 * prec)[1]
        discs.append((zi[0] - w[0], zi[1] - w[1], radius))
    for i, (x1, y1, r1) in enumerate(discs):
        for x2, y2, r2 in discs[i + 1:]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return None
    return [(x - r, x + r, y - r, y + r) for x, y, r in discs]


def _rank_boxes(boxes, intervals, n_real: int):
    """(index of the q-interval holding |z|^2 for each root box, ascending signs
    of the real roots in the top interval), or None when a box is too wide.

    |z|^2 = z * conj(z) is a real root of q, so it lies in exactly one of the
    disjoint intervals, and a unique overlap decides.  A box meeting the real
    axis holds a real root once exactly n_real boxes meet it.
    """
    assignment = []
    for box in boxes:
        slo, shi = _sq_modulus_interval(box)
        hits = [k for k, (lo, hi) in enumerate(intervals) if shi >= lo and slo <= hi]
        if len(hits) != 1:
            return None
        assignment.append(hits[0])
    real = [box[2] <= 0 <= box[3] for box in boxes]
    if sum(real) != n_real:
        return None
    signs = []
    for box, is_real, k in zip(boxes, real, assignment):
        if is_real and k == len(intervals) - 1:
            if box[0] <= 0 <= box[1]:  # g(0) != 0, so a tighter box excludes 0
                return None
            signs.append(1 if box[0] > 0 else -1)
    # real roots at the maximum are -rho and rho, so sorted signs are in root order
    return assignment, sorted(signs)


def _factor_data_high_degree(g: IntPoly, mult: int) -> FactorData:
    q = squarefree_part(_modulus_resultant(g))
    intervals = [list(iv) for iv in _isolate_real_roots(q)]
    if not intervals:
        raise ArithmeticError("modulus resultant has no real roots")
    # refine so intervals are tight enough for membership assignment
    intervals = [list(_bisect_to_width(q, lo, hi, Fraction(1, 2**40))) for lo, hi in intervals]
    top = intervals[-1]

    bound = root_bound(g)
    n_real = sturm_count(g, -bound, bound)
    prec = _DISC_PREC
    ranked = None
    while ranked is None:
        if prec > _DISC_PREC_CAP:
            raise IndistinguishableModuliError(
                "root discs did not separate the moduli", [tuple(iv) for iv in intervals])
        boxes = _root_boxes(g, prec)
        ranked = boxes and _rank_boxes(boxes, intervals, n_real)
        prec *= 2
    assignment, signs = ranked

    top_idx = len(intervals) - 1
    seconds = [intervals[a][1] for a in assignment if a != top_idx]
    rho_sq = CertifiedReal.from_poly_root(q, top[0], top[1])
    rho = CertifiedReal.sqrt_of(rho_sq)
    return FactorData(
        poly=g, multiplicity=mult, rho=rho, rho_sq=rho_sq,
        roots_at_max=assignment.count(top_idx),
        neg_real_at_max=-1 in signs,
        all_roots_real=n_real == g.degree,
        max_real_signs=signs,
        second_sq_hi=max(seconds) if seconds else None,
    )


def charpoly_factors(A: IntMatrix):
    """(charpoly(A), factor_over_q(charpoly(A))); computed once per matrix object.

    The first stage of a matrix's analysis: it factors and ranks nothing, so
    callers that need only the factors never meet a modulus-ranking error.
    """
    if A._factors is None:
        cp = charpoly(A)
        A._factors = (cp, factor_over_q(cp))
    return A._factors


def modulus_profile(A: IntMatrix) -> ModulusProfile:
    """Rank all root moduli of the factored characteristic polynomial exactly;
    computed once per matrix object."""
    if A._modulus is not None:
        return A._modulus
    cp, factors = charpoly_factors(A)
    data = []
    for g, mult in factors:
        if g.degree == 1:
            data.append(_factor_data_deg1(g, mult))
        elif g.degree == 2:
            data.append(_factor_data_deg2(g, mult))
        else:
            data.append(_factor_data_high_degree(g, mult))
    # exact ranking of per-factor maxima
    best = [0]
    for i in range(1, len(data)):
        c = data[i].rho_sq.compare(data[best[0]].rho_sq)
        if c > 0:
            best = [i]
        elif c == 0:
            best.append(i)
    for i in best:
        data[i].is_max = True
    rho = _within_radius_width(data[best[0]].rho)

    seconds = []
    for i, fd in enumerate(data):
        if i not in best:
            seconds.append(fd.rho_sq.hi)
        if fd.second_sq_hi is not None:
            seconds.append(fd.second_sq_hi)
    A._modulus = ModulusProfile(
        charpoly=cp,
        factors=data,
        rho=rho,
        max_indices=best,
        second_sq_hi=max(seconds) if seconds else None,
    )
    return A._modulus


def _within_radius_width(rho: CertifiedReal) -> CertifiedReal:
    """rho refined in place to the relative width every certified radius has."""
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
