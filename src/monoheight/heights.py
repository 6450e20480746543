"""Canonical heights for monomial maps: closed form via the scaled power
limit, truncated orbit estimators and orbit finiteness classification.

The closed form is h_hat(P) = sum over places of max(0, components of
B log||P||_v) with B the limit of A^n/(n^l rho^n); when B has exact quadratic
entries the whole height is an exact linear form in prime logarithms.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm

from mpmath import mp, mpf

from . import kernels
from .errors import BudgetError, InputError, UnsupportedError
from .jordan import LIMIT_TOL, _dominant_factors, jordan_profile, limit_matrix_B
from .logforms import LogLinear
from .matrices import CertifiedReal, IntMatrix, _as_system, charpoly_factors
from .points import HeightValue, LogProfile, PointGm, _place_heights, log_profile
from .polys import cyclotomic_index
from .precision import default_precision, real_str

DEFAULT_WORD_BUDGET = 10**6


def canonical_height_closed(A: IntMatrix, P: PointGm, prec=None) -> HeightValue:
    """h_hat for a single monomial map; exact symbolic value when possible.

    Exactness follows the limit matrix: rational or quadratic dominant
    eigenvalues give a LogLinear with coefficients in the same field.  Anything
    else gives an enclosure built from the iterated limit matrix of
    limit_matrix_B, run to LIMIT_TOL scaled down by the point's log mass; its
    stopping rule is a heuristic, so that enclosure is not certified.
    """
    prec = prec or default_precision()
    if A.n != P.n:
        raise InputError("matrix dimension does not match point dimension")
    prof = log_profile(P)
    if prof.is_torsion():
        _dominant_factors(jordan_profile(A))  # the same support as the limit, then exact 0
        return HeightValue(LogLinear({}))
    # scale the B tolerance by the profile mass so the final width is <= LIMIT_TOL
    mass = 0.0
    for p, vec in prof.vals.items():
        mass += 2.0 * sum(abs(v) for v in vec) * math.log(p)
    b = limit_matrix_B(A, prec=prec, _tol=LIMIT_TOL / (4.0 * (mass + 1.0)))
    if b.exact:
        # the Weil-height formula on c_p = B v_p in place of each valuation vector v_p
        c = {p: kernels.mat_vec(b.entries, vec) for p, vec in prof.vals.items()}
        return HeightValue(LogLinear(_place_heights(c)))
    return _closed_numeric(b, prof, prec)


def _closed_numeric(b, prof: LogProfile, prec: int) -> HeightValue:
    n = prof.n
    with mp.workprec(prec + 32):
        logs = {p: mp.log(p) for p in prof.vals}
        # u_v for the finite places, then the archimedean place
        places = [[-v * logs[p] for v in vec] for p, vec in prof.vals.items()]
        places.append([mp.fsum(vec[j] * logs[p] for p, vec in prof.vals.items()) for j in range(n)])
        err = mpf(0)
        total = mpf(0)
        for u in places:
            vals = [mp.fsum(b.entries[i][j] * u[j] for j in range(n)) for i in range(n)]
            total += max(vals + [mpf(0)])
            err += b.width * mp.fsum(abs(x) for x in u)
        err += abs(total) * mpf(2) ** (16 - prec) + mpf(2) ** (16 - prec)
        return HeightValue(lo=total - err, hi=total + err)


@dataclass
class TruncatedEstimate:
    """Normalized height sums over all words up to length n, plus a tail max.

    The underlying sequence is a limsup with no convergence guarantee, so the
    full sequence is part of the result; `estimate` is the max over the last
    ceil(n/4) entries.
    """

    values: list
    estimate: object
    tail_window: int
    n: int
    k: int
    variant: str
    l: int
    delta_str: str
    word_count: int
    exact_level_sums: list = field(default_factory=list)  # one LogLinear per level

    def is_exact_zero(self) -> bool:
        return all(s.is_zero for s in self.exact_level_sums)

    def to_json(self):
        return {
            "variant": self.variant,
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "delta": self.delta_str,
            "estimate": real_str(self.estimate, 15),
            "tail_window": self.tail_window,
            "word_count": self.word_count,
            "values": [real_str(v, 15) for v in self.values],
        }


def _delta_and_l(mats, delta, l_override):
    if delta is None:
        if len(mats) != 1:
            raise InputError("multi-map systems need delta (use the system analyzer)")
        delta = jordan_profile(mats[0]).rho
    if isinstance(delta, CertifiedReal):
        delta_mpf = delta.to_mpf(default_precision())
        delta_str = delta.exact_str() or real_str(delta_mpf, 20)
    else:
        delta_mpf = mpf(delta) if not isinstance(delta, Fraction) else mpf(delta.numerator) / delta.denominator
        delta_str = real_str(delta_mpf, 20)
    l = l_override if l_override is not None else (jordan_profile(mats[0]).l if len(mats) == 1 else 0)
    return delta_mpf, delta_str, l


def _level_sums(mats, P: PointGm):
    """Iterate levels: the exact sum of Weil heights over the level's words, as
    one LogLinear summing word multiplicity x place heights per distinct orbit state."""
    prof = log_profile(P)
    level = {prof.state_key(): (prof, 1)}
    while True:
        nxt = {}
        for state, count in level.values():
            for M in mats:
                image = state.transport(M)
                key = image.state_key()
                if key in nxt:
                    nxt[key] = (image, nxt[key][1] + count)
                else:
                    nxt[key] = (image, count)
        level = nxt
        coeffs = {}
        for state, count in level.values():
            for p, c in _place_heights(state.vals).items():
                coeffs[p] = coeffs.get(p, 0) + c * count
        yield LogLinear(coeffs)


def _walk_words(k: int, n: int, word_budget: int) -> int:
    """Words in a walk over levels 1..n, sum of k^nu; raises BudgetError as
    soon as the count passes word_budget."""
    words, level = 0, 1
    for _ in range(n):
        level *= k
        words += level
        if words > word_budget:
            raise BudgetError(f"word budget {word_budget} exceeded at {words} words")
    return words


def truncated_estimates(
    F, P: PointGm, n: int, l_override=None, delta=None, word_budget: int = DEFAULT_WORD_BUDGET, prec=None
) -> dict:
    """Word sums of Weil heights, exactly, from one walk over the word levels, keyed
    by variant: "summed" divides by n^l delta^n, "averaged" also by k^n (the
    per-word average rather than the level sum)."""
    prec = prec or default_precision()
    mats = _as_system(F).matrices
    k = len(mats)
    if type(n) is not int:  # bool is an int subclass, not a depth
        raise InputError("n must be an integer")
    if n < 1:
        raise InputError("n must be >= 1")
    words = _walk_words(k, n, word_budget)
    delta_mpf, delta_str, l = _delta_and_l(mats, delta, l_override)
    values = {"summed": [], "averaged": []}
    level_sums = list(islice(_level_sums(mats, P), n))
    with mp.workprec(prec + 32):
        for nu, level_sum in enumerate(level_sums, 1):
            s = level_sum.evaluate(prec + 32)
            norm = mpf(nu) ** l * delta_mpf**nu
            values["summed"].append(s / norm)
            values["averaged"].append(s / (norm * mpf(k) ** nu))
    window = max(1, math.ceil(n / 4))
    return {
        variant: TruncatedEstimate(
            values=vals,
            estimate=max(vals[-window:]),
            tail_window=window,
            n=n,
            k=k,
            variant=variant,
            l=l,
            delta_str=delta_str,
            word_count=words,
            exact_level_sums=level_sums,
        )
        for variant, vals in values.items()
    }


@dataclass
class OrbitVerdict:
    """Finite(preperiod, period) / Infinite(certificate) / Unknown(budget)."""

    status: str  # "finite" | "infinite" | "unknown"
    preperiod: int = None
    period: int = None
    orbit_size: int = None
    certificate: str = None
    hhat: HeightValue = None
    zero_height_dim_bound: int = None
    budget: int = None

    def to_json(self):
        out = {"status": self.status}
        if self.status == "finite":
            out["preperiod"] = self.preperiod
            out["period"] = self.period
            out["orbit_size"] = self.orbit_size
        if self.certificate:
            out["certificate"] = self.certificate
        if self.hhat is not None:
            out["canonical_height"] = self.hhat.to_json()
        if self.zero_height_dim_bound is not None:
            out["zero_height_subgroup_dim_bound"] = self.zero_height_dim_bound
        if self.status == "unknown":
            out["budget"] = self.budget
        return out


def _torsion_order_lcm(A: IntMatrix) -> int:
    """lcm of the orders of root-of-unity eigenvalues (1 when there are none)."""
    M = 1
    for g, _ in charpoly_factors(A)[1]:
        idx = cyclotomic_index(g)
        if idx:
            M = lcm(M, idx)
    return M


def _valuations_eventually_fixed(A: IntMatrix, prof: LogProfile):
    """Exact test: every valuation vector sits in ker(A^M - I)."""
    M = _torsion_order_lcm(A)
    moved = prof.transport(A.pow(M)).vals
    for p, vec in prof.vals.items():
        if moved[p] != vec:
            return False, M, p
    return True, M, None


def _enumerate_orbit(mats, prof: LogProfile, budget: int):
    """(preperiod, period, orbit size) by a breadth-first walk in which seen maps
    each state to its first level; None once more than budget states are seen.
    One map's frontier holds one state, so its first repeat closes the cycle.
    A system has no single period: its closure size is reported as the
    period, with preperiod 0."""
    seen = {prof.state_key(): 0}
    frontier, step = [prof], 0
    while len(seen) <= budget:
        step += 1
        nxt = []
        for state in frontier:
            for M in mats:
                image = state.transport(M)
                key = image.state_key()
                if key not in seen:
                    seen[key] = step
                    nxt.append(image)
                elif len(mats) == 1:
                    return seen[key], step - seen[key], step
        if not nxt:
            return 0, len(seen), len(seen)
        frontier = nxt
    return None


def classify_orbit(F, P: PointGm, budget: int = 65536) -> OrbitVerdict:
    """Decide orbit finiteness; exact for a single map.

    Single map: the valuation orbit is finite iff every valuation vector is
    fixed by A^M, M the lcm of root-of-unity eigenvalue orders (A is
    invertible over Q, so there are no valuation-space transients); signs
    always move in a finite space.  Systems fall back to per-generator escape
    tests plus breadth-first closure within the budget.
    """
    if type(budget) is not int:  # bool is an int subclass, not a budget
        raise InputError("budget must be an integer")
    mats = _as_system(F).matrices
    prof = log_profile(P)
    for i, A in enumerate(mats):
        ok, M, witness = _valuations_eventually_fixed(A, prof)
        if not ok:
            break
    single = {}
    if len(mats) == 1:
        try:
            hhat = canonical_height_closed(A, P)
        except (UnsupportedError, BudgetError):
            hhat = None
        zero = hhat is not None and hhat.exact and hhat.is_zero()
        single = {"hhat": hhat, "zero_height_dim_bound": A.n - jordan_profile(A).rbar if zero else None}
    if not ok:
        cert = _escape_certificate(A, prof, witness, M)
        if len(mats) > 1:
            cert = f"generator {i + 1} alone escapes: {cert}"
        return OrbitVerdict(status="infinite", certificate=cert, **single)
    result = _enumerate_orbit(mats, prof, budget)
    if result is None:
        return OrbitVerdict(status="unknown", budget=budget, **single)
    pre, per, size = result
    return OrbitVerdict(status="finite", preperiod=pre, period=per, orbit_size=size, **single)


def _escape_certificate(A: IntMatrix, prof: LogProfile, witness: int, M: int) -> str:
    """Smallest step where some valuation vector visibly outgrows its start."""
    start = max(max(abs(v) for v in vec) for vec in prof.vals.values())
    state = prof
    for step in range(1, 4096):
        state = state.transport(A)
        for p, v in state.vals.items():
            m = max(abs(x) for x in v)
            if m > start:
                return (
                    f"valuation vector at p={p} is not fixed by A^{M}; "
                    f"height growth witnessed at step {step} (max valuation {m} > {start})"
                )
    return f"valuation vector at p={witness} is not fixed by A^{M}"
