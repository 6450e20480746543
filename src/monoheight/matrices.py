"""Exact integer-matrix algebra: determinants, characteristic polynomials,
certified spectral radii, factorization over Q, and monomial-map degrees.

Eigenvalue moduli are ranked exactly.  For an irreducible factor g the squared
root moduli are among the real roots of the composed resultant
q(y) = Res_x(g(x), x^deg(g) * g(y/x)), whose largest real root is rho(g)^2;
per-root membership at the maximum is decided by certified root boxes, and
cross-factor ties by polynomial gcds with Sturm counts.  Nothing is ever
ranked from floating point alone.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from . import kernels
from .errors import IndistinguishableModuliError, InputError, UnsupportedError
from .polys import (
    IntPoly,
    is_squarefree,
    root_bound,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from .precision import default_precision, fraction_to_mpf, sqrt_enclosure
from .quadratic import Quad

FACTOR_DEGREE_BOUND = 16

# relative enclosure width contract for spectral radii
_RADIUS_REL_WIDTH = Fraction(1, 2**80)


def det_int(rows) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class IntMatrix:
    """Square integer matrix with nonzero determinant (exponent matrix of a monomial map)."""

    __slots__ = ("n", "_rows", "_key", "_det")

    def __init__(self, rows, _trusted=False):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("matrix must be square and nonempty")
        for r in rows:
            for v in r:
                if not isinstance(v, int):
                    raise InputError("entries must be integers")
        self.n = n
        self._rows = rows
        self._key = tuple(tuple(r) for r in rows)
        self._det = None
        if not _trusted and self.det() == 0:
            raise InputError("determinant is zero")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], _trusted=True)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "rows" not in obj:
            raise InputError('matrix JSON needs {"n": N, "rows": [[...]]}')
        rows = obj["rows"]
        if "n" in obj and len(rows) != obj["n"]:
            raise InputError("declared dimension does not match rows")
        return cls(rows)

    @property
    def rows(self):
        return self._key

    def det(self) -> int:
        if self._det is None:
            self._det = det_int(self._rows)
        return self._det

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise InputError("dimension mismatch")
        return IntMatrix(kernels.mat_mul(self._rows, other._rows), _trusted=True)

    def pow(self, e: int) -> "IntMatrix":
        if e < 0:
            raise InputError("negative matrix powers are not integral")
        return IntMatrix(kernels.mat_pow(self._rows, e), _trusted=True)

    def vec(self, v):
        return kernels.mat_vec(self._rows, list(v))

    def max_bit_length(self) -> int:
        return kernels.max_bits(self._rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self._rows[j][i] for j in range(self.n)] for i in range(self.n)], _trusted=True)

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
    """Algebraic degree of the induced self-map of projective N-space.

    Exponent vectors of the N+1 homogenized coordinate monomials are shifted to
    clear negative entries, checked for a common total degree, and reduced by
    their monomial gcd.
    """
    n = A.n
    rows = A.rows
    exps = [[0] * (n + 1)]
    for i in range(n):
        exps.append([-sum(rows[i])] + list(rows[i]))
    shifts = [max(0, -min(e[v] for e in exps)) for v in range(n + 1)]
    shifted = [[e[v] + shifts[v] for v in range(n + 1)] for e in exps]
    degrees = {sum(e) for e in shifted}
    if len(degrees) != 1:
        raise ArithmeticError("homogenization produced unequal degrees")
    gcd_exp = [min(e[v] for e in shifted) for v in range(n + 1)]
    return degrees.pop() - sum(gcd_exp)


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


def real_roots(p: IntPoly, precision=Fraction(1, 2**53)):
    """Disjoint isolating intervals for the real roots of a squarefree polynomial.

    Each returned (lo, hi) has width <= precision; count equals the Sturm count
    over the whole line.
    """
    if not is_squarefree(p):
        raise InputError("real_roots requires a squarefree polynomial")
    eps = Fraction(precision)
    intervals = _isolate_real_roots(p)
    chain = sturm_chain(p)
    out = []
    for lo, hi in intervals:
        out.append(_bisect_to_width(p, lo, hi, eps))
    total = sturm_count(p, -root_bound(p), root_bound(p), chain=chain)
    if total != len(out):
        raise ArithmeticError("isolated root count disagrees with Sturm count")
    return out


def _isolate_real_roots(p: IntPoly):
    """Raw isolating intervals with rational endpoints that are not roots."""
    sp = p.to_sympy()
    raw = sp.intervals()
    out = []
    for (a, b), _k in raw:
        lo = Fraction(int(a.p), int(a.q))
        hi = Fraction(int(b.p), int(b.q))
        if lo == hi:
            out.append((lo, hi))
            continue
        # push endpoints off roots so bisection signs are well defined
        while p(lo) == 0 or p(hi) == 0:
            width = hi - lo
            if p(lo) == 0:
                lo -= width / 4
            if p(hi) == 0:
                hi += width / 4
            if sturm_count(p, lo, hi) != 1:
                raise ArithmeticError("endpoint adjustment broke isolation")
        out.append((lo, hi))
    out.sort()
    return out


def _bisect_to_width(p: IntPoly, lo: Fraction, hi: Fraction, eps: Fraction):
    """Shrink an isolating interval of p to width <= eps by exact sign bisection."""
    if lo == hi:
        return lo, hi
    flo = p(lo)
    if flo == 0:
        return lo, lo
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0:
            return mid, mid
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


class CertifiedReal:
    """A real number as a rigorous rational interval plus optional exact witnesses.

    descriptor: exact value in Q or a real quadratic field, when known.
    poly: squarefree integer polynomial with this value as the unique root in
    [lo, hi], enabling exact refinement and equality decisions.
    sq: CertifiedReal for the square of the value (used when the value itself
    is a square root of an algebraic number of higher degree).
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
    def from_quad(cls, value: Quad, prec=None):
        lo, hi = value.enclosure(prec or default_precision())
        return cls(lo, hi, descriptor=value)

    @classmethod
    def from_poly_root(cls, poly: IntPoly, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo == hi:
            return cls.from_fraction(lo)
        return cls(lo, hi, poly=poly)

    @classmethod
    def sqrt_of(cls, sq: "CertifiedReal", prec=None):
        """Positive square root of a certified nonnegative value."""
        prec = prec or default_precision()
        if sq.descriptor is not None and sq.descriptor.is_rational:
            root = Quad.sqrt_of(sq.descriptor.rational_value())
            return cls.from_quad(root, prec)
        lo, _ = sqrt_enclosure(max(sq.lo, Fraction(0)), prec)
        _, hi = sqrt_enclosure(sq.hi, prec)
        return cls(lo, hi, sq=sq)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.descriptor is not None

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
                if prec > 2**16:
                    break
            return self
        if self.poly is not None:
            self.lo, self.hi = _bisect_to_width(self.poly, self.lo, self.hi, eps)
            if self.lo == self.hi:
                self.descriptor = Quad(self.lo)
            return self
        raise IndistinguishableModuliError(
            "cannot refine a bare interval", [(self.lo, self.hi)]
        )

    def compare(self, other: "CertifiedReal") -> int:
        """Exact three-way comparison; raises only if refinement is impossible."""
        if self.hi < other.lo:
            return -1
        if other.hi < self.lo:
            return 1
        if self.descriptor is not None and other.descriptor is not None:
            return _compare_quads(self.descriptor, other.descriptor)
        if self.descriptor is not None and other.poly is not None:
            if _quad_is_poly_root(self.descriptor, other):
                return 0
            return _separate(self, other)
        if other.descriptor is not None and self.poly is not None:
            if _quad_is_poly_root(other.descriptor, self):
                return 0
            return _separate(self, other)
        if self.poly is not None and other.poly is not None:
            if _share_root(self, other):
                return 0
            return _separate(self, other)
        if self.sq is not None and other.sq is not None and self.lo >= 0 and other.lo >= 0:
            return self.sq.compare(other.sq)
        if self.sq is not None and other.descriptor is not None and self.lo >= 0 and other.lo >= 0:
            sq_other = other.descriptor * other.descriptor
            return self.sq.compare(CertifiedReal.from_quad(sq_other))
        if other.sq is not None and self.descriptor is not None and self.lo >= 0 and other.lo >= 0:
            sq_self = self.descriptor * self.descriptor
            return CertifiedReal.from_quad(sq_self).compare(other.sq)
        return _separate(self, other)

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative powers not supported")
        if self.descriptor is not None:
            return CertifiedReal.from_quad(self.descriptor**k)
        if self.lo < 0:
            raise UnsupportedError("interval powers only for nonnegative values")
        return CertifiedReal(
            self.lo**k, self.hi**k, sq=(self.sq**k if self.sq is not None else None)
        )

    def exact_str(self):
        return str(self.descriptor) if self.descriptor is not None else None

    def to_json(self, digits=25):
        from .precision import real_str

        out = {"enclosure": [real_str(fraction_to_mpf(self.lo, 96), digits),
                             real_str(fraction_to_mpf(self.hi, 96), digits)]}
        if self.descriptor is not None:
            out["exact"] = str(self.descriptor)
        return out

    def __repr__(self):
        if self.descriptor is not None:
            return f"CertifiedReal({self.descriptor})"
        return f"CertifiedReal([{self.lo}, {self.hi}])"


def _compare_quads(a: Quad, b: Quad) -> int:
    if a.is_rational or b.is_rational or a.d == b.d:
        return (a - b).sign()
    if a == b:
        return 0
    # distinct real quadratic fields: values are equal only if both rational,
    # already excluded; separate numerically (terminates, values differ)
    prec = 128
    while True:
        alo, ahi = a.enclosure(prec)
        blo, bhi = b.enclosure(prec)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        prec *= 2


def _quad_is_poly_root(value: Quad, target: CertifiedReal) -> bool:
    ev = target.poly(value)
    if ev != Quad(0):
        return False
    # the value must be the unique root isolated by [target.lo, target.hi]
    above = (value - Quad(target.lo)).sign() >= 0
    below = (value - Quad(target.hi)).sign() <= 0
    return above and below


def _share_root(a: CertifiedReal, b: CertifiedReal) -> bool:
    from .polys import _is_constant

    g = sympy.gcd(a.poly.to_sympy(), b.poly.to_sympy())
    if _is_constant(g):
        return False
    g = IntPoly.from_sympy(g).primitive()
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return False
    gsf = squarefree_part(g)
    return sturm_count(gsf, lo, hi) >= 1 or gsf(lo) == 0


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
    pos_real_at_max: bool
    neg_real_at_max: bool
    all_roots_real: bool
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
        pos_real_at_max=lam > 0,
        neg_real_at_max=lam < 0,
        all_roots_real=True,
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
            roots_at_max=2, pos_real_at_max=False, neg_real_at_max=False,
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
        pos_real_at_max=any(r.sign() > 0 for r in at_max),
        neg_real_at_max=any(r.sign() < 0 for r in at_max),
        all_roots_real=True,
        real_roots_at_max=at_max,
        max_real_signs=[r.sign() for r in at_max],
        second_sq_hi=second,
    )


def _modulus_resultant(g: IntPoly) -> IntPoly:
    """q(y) = Res_x(g(x), x^deg * g(y/x)); squared root moduli of g are real roots of q."""
    x, y = sympy.symbols("x y")
    d = g.degree
    gx = sum(c * x**i for i, c in enumerate(g.coeffs))
    hy = sum(c * y**i * x ** (d - i) for i, c in enumerate(g.coeffs))
    q = sympy.resultant(gx, hy, x)
    return IntPoly.from_sympy(sympy.Poly(q, y)).primitive()


def _complex_box(root, eps: Fraction):
    """Rigorous box [re_lo, re_hi] x [im_lo, im_hi] around a CRootOf value."""
    approx = root.eval_rational(dx=sympy.Rational(eps), dy=sympy.Rational(eps))
    re = Fraction(int(sympy.re(approx).p), int(sympy.re(approx).q))
    im = Fraction(int(sympy.im(approx).p), int(sympy.im(approx).q))
    return re - eps, re + eps, im - eps, im + eps


def _sq_modulus_interval(root, eps: Fraction):
    relo, rehi, imlo, imhi = _complex_box(root, eps)

    def sq_range(lo, hi):
        if lo <= 0 <= hi:
            return Fraction(0), max(lo * lo, hi * hi)
        vals = (lo * lo, hi * hi)
        return min(vals), max(vals)

    alo, ahi = sq_range(relo, rehi)
    blo, bhi = sq_range(imlo, imhi)
    return alo + blo, ahi + bhi


def _factor_data_high_degree(g: IntPoly, mult: int) -> FactorData:
    q = squarefree_part(_modulus_resultant(g))
    intervals = [list(iv) for iv in _isolate_real_roots(q)]
    if not intervals:
        raise ArithmeticError("modulus resultant has no real roots")
    # refine so intervals are tight enough for membership assignment
    intervals = [list(_bisect_to_width(q, lo, hi, Fraction(1, 2**40))) for lo, hi in intervals]
    top = intervals[-1]

    roots = g.to_sympy().all_roots()
    assignment = []
    for root in roots:
        idx = _assign_root(root, q, intervals)
        assignment.append(idx)

    top_idx = len(intervals) - 1
    at_max = [i for i, a in enumerate(assignment) if a == top_idx]
    signs = []
    for i in at_max:
        if roots[i].is_real:
            signs.append(_real_root_sign(roots[i]))
    seconds = [intervals[a][1] for a in assignment if a != top_idx]
    rho_sq = CertifiedReal.from_poly_root(q, top[0], top[1])
    rho = CertifiedReal.sqrt_of(rho_sq)
    return FactorData(
        poly=g, multiplicity=mult, rho=rho, rho_sq=rho_sq,
        roots_at_max=len(at_max),
        pos_real_at_max=any(s > 0 for s in signs),
        neg_real_at_max=any(s < 0 for s in signs),
        all_roots_real=all(r.is_real for r in roots),
        max_real_signs=signs,
        second_sq_hi=max(seconds) if seconds else None,
    )


def _assign_root(root, q: IntPoly, intervals) -> int:
    """Index of the q-root interval containing |root|^2; exact, terminating.

    |root|^2 = root * conj(root) is itself a real root of q, so shrinking the
    certified box eventually selects a unique interval.
    """
    eps = Fraction(1, 2**16)
    for _ in range(40):
        slo, shi = _sq_modulus_interval(root, eps)
        hits = [k for k, (lo, hi) in enumerate(intervals) if shi >= lo and slo <= hi]
        # |root|^2 lies in the box and is a real root of q, hence inside one of
        # the (pairwise disjoint, complete) intervals; a unique overlap decides.
        if len(hits) == 1:
            return hits[0]
        eps = eps * eps if eps > Fraction(1, 2**512) else eps / 2**64
    raise IndistinguishableModuliError("root modulus membership did not resolve", [tuple(iv) for iv in intervals])


def _real_root_sign(root) -> int:
    eps = Fraction(1, 4)
    for _ in range(200):
        lo, hi, _, _ = _complex_box(root, eps)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        eps /= 16
    raise ArithmeticError("real root sign did not resolve")


def modulus_profile(A: IntMatrix) -> ModulusProfile:
    """Factor the characteristic polynomial and rank all root moduli exactly."""
    cp = charpoly(A)
    data = []
    for g, mult in factor_over_q(cp):
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
    rho = data[best[0]].rho
    rho.refine(max(rho.hi, Fraction(1)) * _RADIUS_REL_WIDTH)

    seconds = []
    for i, fd in enumerate(data):
        if i not in best:
            seconds.append(fd.rho_sq.hi)
        if fd.second_sq_hi is not None:
            seconds.append(fd.second_sq_hi)
    return ModulusProfile(
        charpoly=cp,
        factors=data,
        rho=rho,
        max_indices=best,
        second_sq_hi=max(seconds) if seconds else None,
    )


def spectral_radius(A: IntMatrix) -> CertifiedReal:
    """Certified spectral radius; exact descriptor when the maximizing eigenvalue
    is rational or quadratic over Q."""
    return modulus_profile(A).rho


# ---------------------------------------------------------------------------
# generic exact Gaussian elimination over Fraction or Quad


def _rref(rows, zero):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def frac_rref(rows):
    return _rref([[Fraction(v) for v in r] for r in rows], Fraction(0))


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[1])


def frac_nullspace(rows):
    """Basis of the rational kernel (column-vector convention)."""
    if not rows:
        return []
    ncols = len(rows[0])
    rr, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rr[r][fc]
        basis.append(v)
    return basis


def int_nullspace(rows):
    """Kernel basis scaled to primitive integer vectors with positive leading entry."""
    from math import gcd, lcm

    out = []
    for v in frac_nullspace(rows):
        denom = lcm(*(x.denominator for x in v)) if v else 1
        ints = [int(x * denom) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        ints = [x // g for x in ints] if g else ints
        lead = next((x for x in ints if x != 0), 1)
        if lead < 0:
            ints = [-x for x in ints]
        out.append(ints)
    return out


def frac_solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None when inconsistent.

    Free variables are set to zero; when the system has a unique solution this
    is it.
    """
    aug = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    rr, pivots = _rref(aug, Fraction(0))
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rr[r][ncols]
    # verify (guards against free-variable interplay)
    for row, b in zip(rows, rhs):
        if sum(Fraction(v) * xi for v, xi in zip(row, x)) != Fraction(b):
            return None
    return x


def quad_rref(rows):
    return _rref(rows, Quad(0))


def quad_rank(rows) -> int:
    return len(quad_rref(rows)[1])


def quad_nullspace(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    rr, pivots = quad_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Quad(0)] * ncols
        v[fc] = Quad(1)
        for r, pc in enumerate(pivots):
            v[pc] = Quad(0) - rr[r][fc]
        basis.append(v)
    return basis


def quad_det(rows):
    """Exact determinant over a quadratic field by Gaussian elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Quad(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if rows[i][k] != Quad(0):
                pivot = i
                break
        if pivot is None:
            return Quad(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = det * Quad(-1)
        det = det * rows[k][k]
        inv = rows[k][k].inverse()
        for i in range(k + 1, n):
            if rows[i][k] != Quad(0):
                f = rows[i][k] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det
