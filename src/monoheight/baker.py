"""Effective lower-bound constants for canonical heights of non-preperiodic points.

The route is classical: a Baker-type lower bound for linear forms in
logarithms of algebraic numbers is threaded through the Jordan data of the
map, producing an explicit constant C > 0 with hhat(P) >= C whenever the
orbit of P is infinite.  C is far below float range, so every constant here
is carried as -log C (see NegLogScalar) and reported on the log10(-log C)
scale, where values are comparable.

All height inputs are exact: naive heights are integer combinations of logs
of primes, Jordan entry heights come with certified enclosures, and the
integer ceilings that enter exponents are decided by interval refinement,
never by float rounding.
"""

from dataclasses import dataclass
from math import ceil, factorial, lcm
from operator import index as _as_int

from .errors import InputError, UnsupportedError
from .precision import default_precision, fraction_to_mpf, mp, real_str
from .rationals import NegLogScalar
from .matrices import CertifiedReal, IntMatrix
from .jordan import jordan_basis, jordan_profile
from .points import PointGm, log_profile, weil_height_of_point
from .heights import canonical_height_closed
from .scalars import h_mult_log_enclosure


def baker_c11(n: int) -> int:
    """The combinatorial constant 2^(8n+53) * n^(2n) of the linear-forms bound,
    exactly, for n >= 1 logarithm forms.

    Examples
    ========
    >>> baker_c11(1) == 2**61
    True
    >>> baker_c11(2) == 2**73
    True
    """
    try:
        n = _as_int(n)
    except TypeError:
        raise InputError("the constant is defined for an integer number of logs n >= 1")
    if n < 1:
        raise InputError("the constant is defined for an integer number of logs n >= 1")
    return 2 ** (8 * n + 53) * n ** (2 * n)


def _cleared_representative(P: PointGm):
    """Scale P by the lcm of coordinate denominators; both points are reported."""
    m = lcm(*(c.denominator for c in P.coords))
    if m == 1:
        return P, 1
    return PointGm(tuple(c * m for c in P.coords)), m


def _ceil_shifted_height(const: int, mult, h, cap=1 << 14) -> int:
    """Smallest integer >= const + mult * h, decided from exact enclosures.

    h is a HeightValue; const + mult*h can only be an integer when h = 0
    (a nonzero integer combination of logs of primes is irrational), so the
    refinement terminates.
    """
    if h.exact and h.symbolic.is_zero:
        return const
    prec = 128
    while prec <= cap:
        lo, hi = h.enclosure(prec)
        cl = int(ceil(const + mult * lo))
        ch = int(ceil(const + mult * hi))
        if cl == ch:
            return cl
        prec *= 2
    raise UnsupportedError("could not separate a height-derived exponent from an integer")


@dataclass(frozen=True)
class BakerInputs:
    """Everything the constant depends on, with exact provenance."""

    n: int  # torus dimension
    field_degree: int  # [K:Q], 1 or 2 (K = field of the Jordan basis)
    h_point: object  # HeightValue of the cleared representative
    h_field: object  # mpf of [K:Q] * h
    r: int
    l: int
    rho: object  # CertifiedReal
    entry_height_log: object  # mpf, max over Jordan entries of log H_mult
    det_inv_height_log: object  # mpf, log H_mult(1/det J)
    support_primes: tuple  # T_0: primes dividing a cleared coordinate
    point: PointGm
    cleared_point: PointGm
    clearing_factor: int

    def to_json(self):
        return {
            "dimension": self.n,
            "field_degree": self.field_degree,
            "h": self.h_point.str15(),
            "h_field": real_str(self.h_field, 15),
            "r": self.r,
            "l": self.l,
            "support_primes": list(self.support_primes),
            "point": self.point.to_json(),
            "cleared_point": self.cleared_point.to_json(),
            "clearing_factor": self.clearing_factor,
        }


@dataclass(frozen=True)
class BakerConstants:
    """The effective constant C with hhat(P) >= C, in log space.

    neg_log_c is -log C; the three intermediate magnitudes are kept as logs
    (they already overflow floats as plain numbers for modest heights).
    """

    neg_log_c: NegLogScalar
    n_star: int
    a_prime_log: object  # mpf
    e_prime: int  # exact
    e_prime_log: object
    d_prime_log: object
    path: str  # "repeated-root" (l >= 1) or "irreducible" (l = 0)
    inputs: BakerInputs
    hypotheses: dict
    hhat: object  # HeightValue of the original point
    height_exceeds_bound: bool
    margin_neg_log: object  # mpf; -log C - (-log hhat), > 0 when hhat > C
    notes: tuple

    def to_json(self):
        return {
            "log10_neg_log_C": real_str(self.neg_log_c.log10_neg_log(), 20),
            "A_prime_log": real_str(self.a_prime_log, 20),
            "E_prime_log": real_str(self.e_prime_log, 20),
            "D_prime_log": real_str(self.d_prime_log, 20),
            "hypotheses": dict(self.hypotheses),
            "n_star": self.n_star,
            "path": self.path,
            "inputs": self.inputs.to_json(),
            "canonical_height": self.hhat.str15(),
            "height_exceeds_bound": self.height_exceeds_bound,
            "margin_neg_log": real_str(self.margin_neg_log, 20),
            "notes": list(self.notes),
        }


def _baker_inputs(A: IntMatrix, P: PointGm, prec) -> tuple:
    if A.n != P.n:
        raise InputError("matrix and point dimensions differ")
    prof = jordan_profile(A)
    if prof.rho.compare(CertifiedReal.from_fraction(1)) <= 0:
        raise UnsupportedError("rho <= 1: the height lower bound needs a dominant modulus above 1")
    jb = jordan_basis(A)

    facs = prof.modulus.factors
    irreducible = len(facs) == 1 and facs[0].multiplicity == 1 and facs[0].poly.degree == A.n
    if prof.l >= 1:
        path = "repeated-root"
    elif irreducible:
        path = "irreducible"
    else:
        raise UnsupportedError(
            "no effective constant from this method: it needs either a repeated "
            "dominant root (l >= 1) or an irreducible characteristic polynomial"
        )

    field_degree = 2 if jb.field_d else 1
    cleared, factor = _cleared_representative(P)
    h = weil_height_of_point(cleared)
    hlo, hhi = h.enclosure(prec + 32)
    h_field = field_degree * fraction_to_mpf((hlo + hhi) / 2, prec)

    elo, ehi = jb.max_entry_mult_log
    entry_log = fraction_to_mpf((elo + ehi) / 2, prec)
    dlo, dhi = h_mult_log_enclosure(jb.det_J.inverse(), prec)
    det_log = fraction_to_mpf((dlo + dhi) / 2, prec)

    support = tuple(sorted(log_profile(cleared).vals))
    inputs = BakerInputs(
        A.n, field_degree, h, h_field, prof.r, prof.l, prof.rho,
        entry_log, det_log, support, P, cleared, factor,
    )
    return inputs, prof, path, h


def effective_constants(A: IntMatrix, P: PointGm, prec=None) -> BakerConstants:
    """The explicit constant C > 0 with hhat(P) >= C for infinite orbits.

    With n* = ceil(4 + N h_K(P)) and K the (at most quadratic) field of the
    Jordan basis:

        log A' = (2 + N h_K) * 12 * (4 + N h_K)
        E'     = c11(n*) * [K:Q]^(n* + 2)
        D'     = {4 N r [K:Q] (3 + N h_K) (N-1)! * Hmax * Hdet}^(2 N^2 r [K:Q]^2)
        -log C = log(2 rho^l l!) + E' * (log A')^(n*) * (log D' + log log A')

    where Hmax is the largest multiplicative height of a Jordan-basis entry
    and Hdet that of 1/det J.  Heights refer to the representative of P
    cleared to integral coordinates; both representatives are reported.
    """
    prec = prec or max(default_precision(), 192)
    with mp.workprec(prec):
        inputs, prof, path, h = _baker_inputs(A, P, prec)
        N, kdeg = inputs.n, inputs.field_degree
        r, l = inputs.r, inputs.l

        n_star = _ceil_shifted_height(4, N * kdeg, h)
        hk = inputs.h_field

        a_prime_log = (2 + hk * N) * 12 * (4 + hk * N)
        e_prime = baker_c11(n_star) * kdeg ** (n_star + 2)
        e_prime_log = mp.log(e_prime)
        base_log = (
            mp.log(4 * N * r * kdeg * factorial(N - 1))
            + mp.log(3 + hk * N)
            + inputs.entry_height_log
            + inputs.det_inv_height_log
        )
        d_prime_log = 2 * N**2 * r * kdeg**2 * base_log

        rho_log = mp.log(prof.rho.to_mpf(prec))
        neg_log = (
            mp.log(2) + l * rho_log + mp.log(factorial(l))
            + mp.mpf(e_prime) * a_prime_log**n_star * (d_prime_log + mp.log(a_prime_log))
        )

        hhat = canonical_height_closed(A, P, prec=prec)
        hlo, hhi = hhat.enclosure(prec)
        exceeds = hlo > 0
        if exceeds:
            margin = neg_log + mp.log(fraction_to_mpf(hlo, prec))
            exceeds = bool(margin > 0)
        else:
            margin = mp.mpf("-inf")

        hypotheses = {
            "rho > 1": True,
            "jordan_basis": "exact",
            "path": path,
            "support_size <= n_star": len(inputs.support_primes) <= n_star,
            "canonical_height_positive": bool(hlo > 0),
        }
        notes = (
            "heights are computed for the representative with integral coordinates; "
            "clearing denominators can change the naive height and both points are listed",
        )
        out = BakerConstants(
            NegLogScalar(neg_log), n_star, a_prime_log, e_prime, e_prime_log,
            d_prime_log, path, inputs, hypotheses, hhat, exceeds, margin, notes,
        )
    return out
