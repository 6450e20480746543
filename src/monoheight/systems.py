"""Finite systems of monomial maps: word growth tables, dynamical degree
enclosures, reduction certificates, and the combined report.

For a general system the dynamical degree delta = lim max_words rho^(1/n) has
no known algorithm, so it is reported as a two-sided enclosure: any single
word w of length t gives the lower bound rho(w)^(1/t) (powers of w are
admissible words), and degree submultiplicativity gives the Fekete upper
bound min_m maxdeg_m^(1/m).  Recognized families (all-diagonal, or every
generator a polynomial in the first) reduce exactly to a single map psi.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import count
from operator import attrgetter, itemgetter

from mpmath import mp, mpf

from .errors import BudgetError, InputError, MonoheightError
from .heights import (
    DEFAULT_WORD_BUDGET,
    _walk_words,
    canonical_height_closed,
    classify_orbit,
    truncated_estimates,
)
from .jordan import jordan_profile
from .matrices import (
    CertifiedReal,
    IntMatrix,
    SystemF,
    _as_system,
    _twice_radius,
    frac_solve,
    monomial_degree,
    spectral_radius,
    trace_det_radius,
)
from .points import PointGm
from .polys import poly_str
from .precision import default_precision, real_str

DEFAULT_N_MAX = 12
DEFAULT_BIT_BUDGET = 2**16


def _norm_bound(M: IntMatrix) -> int:
    """Cheap upper bound for rho: min of the max absolute row/column sums."""
    rows = M.rows
    r = max(sum(abs(v) for v in row) for row in rows)
    c = max(sum(abs(rows[i][j]) for i in range(M.n)) for j in range(M.n))
    return min(r, c)


def _word_levels(system: SystemF, word_budget: int):
    """Levels 1, 2, ... of (word, product) pairs in lexicographic word order,
    each product extending its prefix's; raises BudgetError before a level
    that would pass word_budget words in all, or on an entry above
    DEFAULT_BIT_BUDGET bits."""
    level = [((), IntMatrix.identity(system.n))]
    for n in count(1):
        _walk_words(system.k, n, word_budget)
        nxt = []
        for word, M in level:
            for i, gen in enumerate(system.matrices):
                prod = M.mul(gen)
                if prod.max_bit_length() > DEFAULT_BIT_BUDGET:
                    raise BudgetError(
                        f"matrix entries exceeded {DEFAULT_BIT_BUDGET} bits in word enumeration"
                    )
                nxt.append((word + (i,), prod))
        level = nxt
        yield level


def _compare_surds(x, y) -> int:
    """Exact sign of (u1 + sqrt v1) - (u2 + sqrt v2) for x = (u1, v1), y = (u2, v2)."""
    (u1, v1), (u2, v2) = x, y
    p = (u1 > u2) - (u1 < u2)
    w = (v1 > v2) - (v1 < v2)  # sign of sqrt v1 - sqrt v2
    if p * w >= 0:
        return p or w
    # opposite signs: the larger of |u1 - u2| and |sqrt v1 - sqrt v2| wins, and
    # (u1 - u2)^2 - (sqrt v1 - sqrt v2)^2 = q + 2 sqrt(v1 v2)
    q = (u1 - u2) ** 2 - v1 - v2
    if q >= 0:
        return p if q or v1 * v2 else 0
    r = 4 * v1 * v2 - q * q
    return p * ((r > 0) - (r < 0))


def _level_max_radius(level):
    """(CertifiedReal, word, product) for the max spectral radius over one
    level: the first word of largest radius in order of decreasing norm bound.

    2x2 words are ranked in one pass by exact integer tests on trace and
    determinant; a tie in radius goes to the strictly larger norm bound, read
    only on ties, and only the winner's radius is certified.  Otherwise the
    cheap norm bound prunes words that cannot beat the current certified
    lower bound, so the exact machinery runs on few words per level.
    """
    if level[0][1].n == 2:
        best = best_key = best_bound = None
        for word, M in level:
            (a, b), (c, e) = M.rows
            t, d = a + e, a * e - b * c
            key = _twice_radius(t, d)
            cmp = 1 if best is None else _compare_surds(key, best_key)
            if cmp == 0:
                if best_bound is None:
                    best_bound = _norm_bound(best[3])
                bound = _norm_bound(M)
                if bound > best_bound:
                    best, best_bound = (t, d, word, M), bound
            elif cmp > 0:
                best, best_key, best_bound = (t, d, word, M), key, None
        t, d, word, M = best
        return trace_det_radius(t, d), word, M
    best = None
    for word, M in sorted(level, key=lambda wm: -_norm_bound(wm[1])):
        if best is not None and Fraction(_norm_bound(M)) <= best[0].lo:
            break
        rho = spectral_radius(M)
        if best is None or best[0].compare(rho) < 0:
            best = (rho, word, M)
    return best


@dataclass
class GrowthRow:
    """The first word of largest spectral radius rho at level n, its product,
    and the level's largest degree; rho is read as an mpf once, here."""

    n: int
    rho: CertifiedReal
    word: tuple
    product: IntMatrix
    maxdeg: int
    deg_word: tuple
    value: object = field(init=False)  # rho as an mpf at the default precision
    root: object = field(init=False)  # value^(1/n), a lower bound for delta

    def __post_init__(self):
        prec = default_precision()
        self.value = self.rho.to_mpf(prec)
        with mp.workprec(prec):
            self.root = mp.root(self.value, self.n)


@dataclass
class GrowthTable:
    rows: list

    def lower_bound(self):
        """max over rows of rho^(1/n): certified lower bound for delta."""
        return max([mpf(1)] + [row.root for row in self.rows])

    def upper_bound(self):
        """min over rows of maxdeg^(1/m): Fekete bound from submultiplicativity."""
        with mp.workprec(default_precision()):
            return min((mp.root(mpf(row.maxdeg), row.n) for row in self.rows), default=None)


def growth_table(
    F, n_max: int = DEFAULT_N_MAX, word_budget: int = DEFAULT_WORD_BUDGET
) -> GrowthTable:
    system = _as_system(F)
    if type(n_max) is not int:  # bool is an int subclass, not a depth
        raise InputError("n_max must be an integer")
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    levels = _word_levels(system, word_budget)
    rows = []
    for n in range(1, n_max + 1):
        try:
            level = next(levels)
        except BudgetError:
            if rows:
                break
            raise
        rho, word, product = _level_max_radius(level)
        deg_word, maxdeg = max(((w, monomial_degree(M)) for w, M in level), key=itemgetter(1))
        rows.append(GrowthRow(n=n, rho=rho, word=word, product=product, maxdeg=maxdeg, deg_word=deg_word))
    return GrowthTable(rows=rows)


@dataclass
class StarCertificate:
    """Reduction-to-one-map certificate; statuses beyond the recognized
    families are only ever empirical or unknown."""

    status: str  # certified_diagonal | certified_polynomial_family | empirical | unknown
    psi_word: tuple = ()
    psi: IntMatrix = None  # product of psi_word; the generator itself when t = 1
    t: int = 0
    base_index: int = None
    polynomials: tuple = ()  # Fraction coefficient tuples, ascending, for i >= 2
    n_checked: int = None
    notes: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status in ("certified_diagonal", "certified_polynomial_family")

    def to_json(self):
        out = {"status": self.status}
        if self.psi_word:
            out["psi_word"] = [i + 1 for i in self.psi_word]
            out["t"] = self.t
        if self.base_index is not None:
            out["base_index"] = self.base_index + 1
            out["polynomials"] = [poly_str(c) for c in self.polynomials]
        if self.n_checked is not None:
            out["n_checked"] = self.n_checked
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _is_diagonal(M: IntMatrix) -> bool:
    rows = M.rows
    return all(rows[i][j] == 0 for i in range(M.n) for j in range(M.n) if i != j)


def _argmax_radius(mats):
    """Index of the first matrix of largest spectral radius."""
    radii = [spectral_radius(M) for M in mats]
    return max(range(len(mats)), key=cmp_to_key(lambda i, j: radii[i].compare(radii[j])))


def _polynomial_in_base(base: IntMatrix, target: IntMatrix):
    """Coefficients c with target = sum c_m base^m (deg < N), or None."""
    n = base.n
    powers = [IntMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1].mul(base))
    # one integer equation per entry (i, j): sum_m c_m base^m[i][j] = target[i][j]
    rows = [[p.rows[i][j] for p in powers] for i in range(n) for j in range(n)]
    sol = frac_solve(rows, [v for row in target.rows for v in row])
    return None if sol is None else tuple(sol)


def _structural_certificate(system: SystemF):
    """Certificate for a recognized family (diagonal or polynomial), else None.

    All-diagonal families and polynomial families A_i = g_i(A_1) commute
    enough that the single generator of maximal spectral radius realizes the
    growth (t = 1).  A single map is the polynomial family with no g_i.
    """
    mats = system.matrices
    if all(_is_diagonal(M) for M in mats):
        i = _argmax_radius(mats)
        return StarCertificate(status="certified_diagonal", psi_word=(i,), psi=mats[i], t=1)
    polys = []
    for M in mats[1:]:
        coeffs = _polynomial_in_base(mats[0], M)
        if coeffs is None:
            return None
        polys.append(coeffs)
    i = _argmax_radius(mats)
    return StarCertificate(
        status="certified_polynomial_family", psi_word=(i,), psi=mats[i], t=1,
        base_index=0, polynomials=tuple(polys),
    )


def _empirical_certificate(rows) -> StarCertificate:
    """Best single word of the growth rows as psi candidate, checked on every row."""
    prec = default_precision()
    best_row = max(rows, key=attrgetter("root"))  # the first row of largest rho^(1/n)
    delta = best_row.root  # rho(psi)^(1/t), the candidate value
    psi, psi_word, t = best_row.product, best_row.word, best_row.n
    l = jordan_profile(psi).l
    with mp.workprec(prec):
        bound_factor = mpf(1) / mpf(t) ** l  # sup_s rho(psi^s)/((ts)^l delta^(ts))
        for row in rows:
            rhs = bound_factor * mpf(row.n) ** l * delta**row.n
            if row.value > rhs * (1 + mpf(2) ** (24 - prec)):
                return StarCertificate(
                    status="unknown",
                    notes=(f"word-growth inequality fails at n={row.n} for the best candidate",),
                )
    return StarCertificate(status="empirical", psi_word=psi_word, psi=psi, t=t, n_checked=len(rows))


@dataclass
class DynamicalDegree:
    lo: object  # mpf
    hi: object  # mpf
    exact: CertifiedReal = None
    certificate: StarCertificate = None
    table: GrowthTable = None

    def to_json(self):
        out = {
            "lower": real_str(self.lo, 20),
            "upper": real_str(self.hi, 20),
        }
        if self.exact is not None:
            out["exact"] = self.exact.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def dynamical_degree(
    F, n_max: int = DEFAULT_N_MAX, word_budget: int = DEFAULT_WORD_BUDGET
) -> DynamicalDegree:
    """Two-sided enclosure of the dynamical degree; exact on certified systems."""
    system = _as_system(F)
    cert = _structural_certificate(system)
    table = growth_table(system, n_max=n_max, word_budget=word_budget)
    if cert is None:
        # the empirical check reads only the first 8 levels; the table is
        # built level by level, so these rows equal those of an 8-level table
        cert = _empirical_certificate(table.rows[:min(n_max, 8)])
    lo = table.lower_bound()
    hi = table.upper_bound()
    exact = None
    if cert.certified and cert.t == 1:
        exact = spectral_radius(cert.psi)
        prec = default_precision()
        # widen at full precision; at ambient 53 bits the products round onto
        # float(rho) and the interval can exclude the true value
        with mp.workprec(prec + 16):
            rho_mpf = exact.to_mpf(prec)
            lo = max(lo, rho_mpf * (1 - mpf(2) ** -96))
            hi = min(hi, rho_mpf * (1 + mpf(2) ** -96))
    if lo > hi:
        raise ArithmeticError(f"dynamical degree bounds cross: lower {lo} > upper {hi}")
    return DynamicalDegree(lo=lo, hi=hi, exact=exact, certificate=cert, table=table)


@dataclass
class CorrectionExponent:
    l: int
    certified: bool
    method: str
    ratios: list = field(default_factory=list)  # (n, rho/(n^l delta^n)) evidence

    def to_json(self):
        out = {"l": self.l, "certified": self.certified, "method": self.method}
        if self.ratios:
            out["ratios"] = [[n, real_str(v, 15)] for n, v in self.ratios]
        return out


def correction_exponent(F, n_max: int = DEFAULT_N_MAX, degree: DynamicalDegree = None) -> CorrectionExponent:
    """Polynomial correction order: exact via the reduced map when certified,
    otherwise the smallest l whose normalized table tail is non-increasing
    (explicitly labeled heuristic)."""
    system = _as_system(F)
    if degree is None:
        degree = dynamical_degree(system, n_max=n_max)
    cert = degree.certificate
    if cert is not None and cert.certified:
        return CorrectionExponent(l=jordan_profile(cert.psi).l, certified=True,
                                  method="reduced map jordan profile")
    prec = default_precision()
    table = degree.table
    delta_hi = degree.hi
    with mp.workprec(prec):
        for l in range(0, system.n + 1):
            vals = [(row.n, row.value / (mpf(row.n) ** l * delta_hi**row.n))
                    for row in table.rows]
            tail = vals[len(vals) // 2 :]
            if all(tail[i + 1][1] <= tail[i][1] * (1 + mpf(2) ** (16 - prec))
                   for i in range(len(tail) - 1)):
                return CorrectionExponent(l=l, certified=False,
                                          method="heuristic table monotonicity", ratios=vals)
    return CorrectionExponent(l=system.n, certified=False,
                              method="heuristic fallback (no monotone tail found)")


def _height_estimates(system: SystemF, P: PointGm, n_max: int, degree: DynamicalDegree, l: int,
                      word_budget: int = DEFAULT_WORD_BUDGET) -> dict:
    """Both truncated height estimates at the deepest level n <= n_max with
    k^n <= 4096 words (at least level 1); raises BudgetError when that walk,
    of k + k^2 + ... + k^n words, passes word_budget."""
    # k^n <= 4096 at every depth for one map
    n = n_max if system.k == 1 else 1
    while n < n_max and system.k ** (n + 1) <= 4096:
        n += 1
    delta = degree.exact if degree.exact is not None else degree.hi
    return truncated_estimates(system, P, n, l_override=l, delta=delta,
                               word_budget=word_budget)


@dataclass
class ReductionReport:
    items: list  # (name, passed: bool, detail: str)

    @property
    def all_pass(self) -> bool:
        return all(p for _, p, _ in self.items)


def check_reduction(F, P: PointGm, n_max: int = DEFAULT_N_MAX) -> ReductionReport:
    """Verify the reduction facts on a certified system: degree match,
    correction exponent match, and zero-height transfer to the reduced map.

    The zero decisions are exact, with no float threshold: the truncated sums
    are zero only when every level sum is the zero log form, and the
    reduced-map height is zero when its closed form is zero or its enclosure
    contains 0."""
    system = _as_system(F)
    degree = dynamical_degree(system, n_max=n_max)
    cert = degree.certificate
    if cert is None or not cert.certified:
        raise InputError("reduction checks need a certified system")
    psi = cert.psi
    prec = default_precision()
    items = []
    with mp.workprec(prec):
        psi_val = mp.root(degree.exact.to_mpf(prec), cert.t)
        ok_a = degree.lo <= psi_val * (1 + mpf(2) ** -64) and psi_val <= degree.hi * (1 + mpf(2) ** -64)
    items.append(("degree equals reduced-map degree",
                  bool(ok_a), f"delta in [{real_str(degree.lo, 15)}, {real_str(degree.hi, 15)}], "
                              f"rho(psi)^(1/t) = {real_str(psi_val, 15)}"))
    l_psi = jordan_profile(psi).l
    l_sys = correction_exponent(system, n_max=n_max, degree=degree).l
    items.append(("correction exponent matches reduced map",
                  l_sys == l_psi, f"system l = {l_sys}, psi l = {l_psi}"))
    trunc = _height_estimates(system, P, n_max, degree, l_psi)["summed"]
    closed = canonical_height_closed(psi, P)
    ok_c = (not trunc.is_exact_zero()) or closed.is_zero()
    items.append(("zero height transfers to reduced map", ok_c,
                  f"truncated estimate {real_str(trunc.estimate, 10)}, "
                  f"reduced-map height {closed.str15()}"))
    return ReductionReport(items=items)


@dataclass
class SystemReport:
    system: SystemF
    point: PointGm
    degree: DynamicalDegree
    correction: CorrectionExponent
    trunc_summed: object
    trunc_averaged: object
    closed_height: object  # HeightValue or None
    verdict: object
    zero_height_dim_bound: int = None
    finiteness_equivalence: str = None  # "applies" | "inapplicable"
    notes: tuple = ()

    def to_json(self):
        out = {
            "system": self.system.to_json(),
            "point": self.point.to_json(),
            "dynamical_degree": self.degree.to_json(),
            "correction_exponent": self.correction.to_json(),
            "orbit": self.verdict.to_json(),
        }
        if self.trunc_summed is not None:
            out["height_estimates"] = {
                "summed": self.trunc_summed.to_json(),
                "averaged": self.trunc_averaged.to_json(),
            }
        if self.closed_height is not None:
            out["canonical_height"] = self.closed_height.to_json()
        if self.zero_height_dim_bound is not None:
            out["zero_height_subgroup_dim_bound"] = self.zero_height_dim_bound
        if self.finiteness_equivalence is not None:
            out["finiteness_equivalence"] = self.finiteness_equivalence
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def system_report(
    F, P: PointGm, n_max: int = DEFAULT_N_MAX, word_budget: int = DEFAULT_WORD_BUDGET
) -> SystemReport:
    """Aggregate analysis of (system, point); see the field list on SystemReport.

    The finiteness equivalence (zero canonical height iff finite orbit) needs
    the reduced map's characteristic polynomial irreducible and delta > k;
    when only zero height holds, the report falls back to the subgroup bound
    dim >= N - rbar.  Zero height is decided exactly: by the reduced map's
    exact closed form when there is one, else by every level sum of the
    truncated estimate being the zero log form.  A small but nonzero estimate
    is never taken for zero.
    """
    system = _as_system(F)
    if P.n != system.n:
        raise InputError("point dimension does not match the system")
    degree = dynamical_degree(system, n_max=n_max, word_budget=word_budget)
    cert = degree.certificate
    correction = correction_exponent(system, n_max=n_max, degree=degree)
    notes = []
    estimates = _height_estimates(system, P, n_max, degree, correction.l, word_budget)
    trunc_s, trunc_a = estimates["summed"], estimates["averaged"]
    closed = None
    psi = None
    if cert is not None and cert.certified:
        psi = cert.psi
        try:
            closed = canonical_height_closed(psi, P)
        except MonoheightError as exc:  # closed form is optional in the report
            notes.append(f"closed-form height unavailable: {exc}")
    verdict = classify_orbit(list(system.matrices), P)

    if closed is not None and closed.exact:
        height_zero = closed.is_zero()
    else:
        height_zero = trunc_s.is_exact_zero()
    bound = None
    equivalence = None
    if psi is not None:
        # a certified psi fixes delta = rho(psi) exactly
        jp = jordan_profile(psi)
        irreducible = jp.modulus.irreducible
        delta_gt_k = degree.exact.compare(CertifiedReal.from_fraction(Fraction(system.k))) > 0
        if irreducible and delta_gt_k:
            equivalence = "applies"
            if height_zero and verdict.status == "infinite":
                notes.append("inconsistency: equivalence predicts finite orbit but classifier says infinite")
            elif height_zero:
                notes.append("zero canonical height with irreducible reduced map and delta > k: orbit finite")
            elif verdict.status == "finite":
                notes.append("inconsistency: finite orbit should force zero canonical height")
        else:
            equivalence = "inapplicable"
            if not irreducible:
                notes.append("reduced map's characteristic polynomial is reducible; "
                             "zero height does not imply a finite orbit")
            if not delta_gt_k:
                notes.append("delta <= k; the finiteness equivalence does not apply")
        if height_zero and degree.exact.compare(CertifiedReal.from_fraction(Fraction(1))) > 0:
            bound = system.n - jp.rbar
            notes.append(
                "zero canonical height: the orbit lies in finitely many translates of "
                f"an algebraic subgroup of dimension >= {bound}"
            )
    return SystemReport(
        system=system, point=P, degree=degree, correction=correction,
        trunc_summed=trunc_s, trunc_averaged=trunc_a, closed_height=closed,
        verdict=verdict, zero_height_dim_bound=bound,
        finiteness_equivalence=equivalence, notes=tuple(notes),
    )
