"""Rational points on the split torus and their valuation-space shadows.

A point is a tuple of nonzero rationals.  Everything height-related goes
through LogProfile: per-prime valuation vectors plus coordinate signs, keyed
by the prime as a plain int.  The archimedean data needs no separate storage
since log|x| = sum_p v_p(x) log p for nonzero rational x; keeping only integer
vectors means monomial maps act by exact integer matrix-vector products even
when the coordinates themselves would be astronomically large.

The LogProfile constructor checks prime keys, vector lengths and signs and
drops zero vectors.  log_profile and transport skip those checks: the
factorization yields primes with nonzero exponents, and a nonsingular integer
matrix maps nonzero integer vectors to nonzero integer vectors.  So every
state of one walk keeps the primes of its start, in the same order, which is
what lets state_key leave the primes out.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from . import kernels
from .errors import BudgetError, InputError
from .logforms import LogLinear, max_with_zero
from .matrices import IntMatrix
from .precision import default_precision, real_str
from .rationals import factor_rational, parse_rational


DEFAULT_COORD_BIT_BUDGET = 2**20


@dataclass(frozen=True)
class PointGm:
    coords: tuple
    # the LogProfile of coords, made by the first log_profile(P) call
    _profile: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.coords:
            raise InputError("a point needs at least one coordinate")
        norm = []
        for c in self.coords:
            q = Fraction(c)
            if q == 0:
                raise InputError("coordinates must be nonzero")
            norm.append(q)
        object.__setattr__(self, "coords", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def parse(cls, text: str) -> "PointGm":
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(not p for p in parts):
            raise InputError(f"malformed point {text!r}; expected comma-separated rationals")
        return cls(tuple(parse_rational(p) for p in parts))

    def __str__(self):
        return ",".join(str(c) for c in self.coords)

    def to_json(self):
        return [str(c) for c in self.coords]


class LogProfile:
    """Valuations v_p(x_j) per prime plus signs; log||x_j||_p = -v_p(x_j) log p.

    vals maps each prime p, a plain int, to the tuple (v_p(x_1), ..., v_p(x_n));
    zero vectors are dropped.  signs holds sign(x_j) as +-1.
    """

    __slots__ = ("n", "vals", "signs")

    def __init__(self, n: int, vals: dict, signs: tuple, _trusted=False):
        if not _trusted:
            clean = {}
            for p, vec in vals.items():
                if not isinstance(p, int) or not sympy.isprime(p):
                    raise InputError(f"{p} is not prime")
                vec = tuple(int(v) for v in vec)
                if len(vec) != n:
                    raise InputError("valuation vector length mismatch")
                if any(vec):
                    clean[p] = vec
            vals = clean
            signs = tuple(signs)
            if len(signs) != n or any(s not in (1, -1) for s in signs):
                raise InputError("signs must be a +-1 tuple matching the dimension")
        self.n = n
        self.vals = vals
        self.signs = signs

    def product_formula_sum(self, j: int) -> LogLinear:
        """sum_v log||x_j||_v in symbolic form; identically zero."""
        total = LogLinear({p: vec[j] for p, vec in self.vals.items() if vec[j]})
        for p, vec in self.vals.items():
            total = total + LogLinear({p: -vec[j]})
        return total

    def transport(self, M: IntMatrix) -> "LogProfile":
        if M.n != self.n:
            raise InputError("matrix dimension does not match profile dimension")
        rows = M.rows
        vals = {p: tuple(kernels.mat_vec(rows, vec)) for p, vec in self.vals.items()}
        bits = [0 if s == 1 else 1 for s in self.signs]
        signs = tuple(1 if b % 2 == 0 else -1 for b in kernels.mat_vec(rows, bits))
        return LogProfile(self.n, vals, signs, _trusted=True)

    def state_key(self):
        """Hashable exact state for orbit enumeration, among the states of one walk."""
        return (tuple(self.vals.values()), self.signs)

    def is_torsion(self) -> bool:
        return not self.vals

    def to_json(self):
        return {
            "dimension": self.n,
            "finite": {str(p): list(vec) for p, vec in sorted(self.vals.items())},
            "signs": list(self.signs),
        }


def log_profile(P: PointGm) -> LogProfile:
    """The valuation profile of P, factored on the first call and kept on P;
    every later call returns the same object, which callers only read."""
    if P._profile is not None:
        return P._profile
    vals = {}
    signs = []
    for j, c in enumerate(P.coords):
        signs.append(1 if c > 0 else -1)
        for p, e in factor_rational(c).items():
            vec = vals.setdefault(p, [0] * P.n)
            vec[j] = e
    prof = LogProfile(P.n, {p: tuple(v) for p, v in vals.items()}, tuple(signs), _trusted=True)
    object.__setattr__(P, "_profile", prof)
    return prof


def eval_monomial(A: IntMatrix, P: PointGm, bit_budget: int = DEFAULT_COORD_BIT_BUDGET) -> PointGm:
    """Coordinate i becomes prod_j x_j^(a_ij); exact, with a bit-size guard.

    Orbits grow doubly exponentially in coordinate size, so anything beyond a
    few steps should use LogProfile.transport instead; the guard makes that
    failure mode loud.
    """
    if A.n != P.n:
        raise InputError("matrix dimension does not match point dimension")
    sizes = [c.numerator.bit_length() + c.denominator.bit_length() for c in P.coords]
    rows = A.rows
    for i in range(A.n):
        est = sum(abs(rows[i][j]) * sizes[j] for j in range(A.n))
        if est > bit_budget:
            raise BudgetError(
                f"coordinate {i} would need about {est} bits (budget {bit_budget}); "
                "use valuation-space transport for long orbits"
            )
    coords = []
    for i in range(A.n):
        acc = Fraction(1)
        for j in range(A.n):
            e = rows[i][j]
            if e:
                acc *= P.coords[j] ** e
        coords.append(acc)
    return PointGm(tuple(coords))


@dataclass
class HeightValue:
    """A nonnegative real height, symbolic when exact.

    symbolic is a LogLinear on prime logarithms when the value is known in
    closed form; otherwise lo/hi is a certified enclosure.  Its coefficients
    are ints or Fractions when rational (every Weil height has int
    coefficients) and Quads only when they carry a surd.
    """

    symbolic: object = None
    lo: object = None
    hi: object = None

    @property
    def exact(self) -> bool:
        return self.symbolic is not None

    def is_zero(self) -> bool:
        if self.exact:
            return self.symbolic.is_zero
        return self.lo <= 0 <= self.hi

    def enclosure(self, prec=None):
        prec = prec or default_precision()
        if self.exact:
            return self.symbolic.enclosure(prec)
        return (self.lo, self.hi)

    def value(self, prec=None):
        lo, hi = self.enclosure(prec)
        return (lo + hi) / 2

    def str15(self) -> str:
        return real_str(self.value(), 15)

    def symbolic_str(self):
        return str(self.symbolic) if self.exact else None

    def to_json(self):
        out = {"decimal": self.str15()}
        if self.exact:
            out["symbolic"] = str(self.symbolic)
        else:
            out["enclosure"] = [real_str(self.lo, 20), real_str(self.hi, 20)]
        return out


def _place_heights(vals: dict) -> dict:
    """Coefficients {p: c} of sum over places v of max(0, max_j log||x_j||_v).

    vals maps each prime p to the vector u_p with log||x_j||_p = -u_p[j] log p
    and log|x_j| = sum_p u_p[j] log p: the valuation vectors of a point, or
    any exact image of them such as B v_p.  Finite place p contributes
    max(0, -min_j u_p[j]) * log p; the archimedean place the exact max of
    zero and the coordinate forms.
    """
    coeffs = {}
    for p, vec in vals.items():
        c = max(0, -min(vec))
        if c:
            coeffs[p] = c
    arch = max_with_zero([{p: v for p, v in zip(vals, column) if v} for column in zip(*vals.values())])
    for p, c in arch.items():
        coeffs[p] = coeffs.get(p, 0) + c
    return coeffs


def weil_height(prof: LogProfile) -> HeightValue:
    """h(P) = sum over places of max(0, max_j log||x_j||_v), exactly."""
    return HeightValue(LogLinear(_place_heights(prof.vals)))


def weil_height_of_point(P: PointGm) -> HeightValue:
    return weil_height(log_profile(P))
