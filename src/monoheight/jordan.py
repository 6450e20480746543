"""Jordan-structure invariants of an integer matrix: dominant block data,
the scaled power limit B = lim A^n/(n^l rho^n), and exact Jordan bases.

Block multisets come from exact kernel dimensions: for an irreducible factor g
of the characteristic polynomial, dim ker g(A)^j = deg(g) * sum_i min(s_i, j)
over the per-root block sizes s_i, so the s_i are recovered from rank
differences alone, with no splitting field.

The limit is taken along n = 0 (mod m), with m = 2 exactly when a negative
real eigenvalue attains the spectral radius; on that subsequence the dominant
(lambda/rho)^n phases are constant and the limit exists whenever the dominant
eigenvalues are real.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from . import kernels
from .errors import BudgetError, UnsupportedError
from .matrices import CertifiedReal, IntMatrix, ModulusProfile, det, modulus_profile, nullspace, rank
from .polys import IntPoly
from .precision import default_precision
from .quadratic import Quad
from .scalars import h_mult_log_enclosure

# bit size at which the power iteration of _iterated_limit gives up
_POWER_BIT_BUDGET = 2**22

# stopping tolerance of the power iteration for degree >= 3 dominant eigenvalues
LIMIT_TOL = 1e-12


@dataclass(frozen=True)
class JordanProfile:
    """rho(A), correction exponent l, maximal-subspace counts r and rbar, parity m.

    block_sizes[i] holds the Jordan block sizes of any single root of
    modulus.factors[i], descending.
    """

    rho: CertifiedReal
    block_sizes: tuple
    l: int
    r: int
    rbar: int
    m: int
    modulus: ModulusProfile  # detailed per-root modulus data, for internal reuse


def _poly_at_matrix(coeffs, A: IntMatrix):
    """p(A) as integer rows, by Horner on the ascending integer coefficients of p."""
    n = A.n
    acc = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        if any(map(any, acc)):  # 0 * A = 0: skip zero leading coefficients
            acc = kernels.mat_mul(acc, A.row_lists())
        for i in range(n):
            acc[i][i] += c
    return acc


def _block_sizes(A: IntMatrix, g: IntPoly, mult: int):
    """Jordan block sizes (per root of g), from kernel dimensions of g(A)^j."""
    n = A.n
    deg = g.degree
    base = _poly_at_matrix(g.coeffs, A)
    dims = [0]
    power = None
    for j in range(1, mult + 1):
        power = base if power is None else kernels.mat_mul(power, base)
        dims.append(n - rank(power))
    counts = []  # counts[j-1] = number of blocks of size >= j, per root
    for j in range(1, mult + 1):
        diff = dims[j] - dims[j - 1]
        if diff % deg:
            raise ArithmeticError("kernel growth not divisible by factor degree")
        counts.append(diff // deg)
    counts.append(0)
    sizes = []
    for j in range(mult, 0, -1):
        sizes.extend([j] * (counts[j - 1] - counts[j]))
    if sum(sizes) != mult:
        raise ArithmeticError("block sizes do not account for the multiplicity")
    return tuple(sorted(sizes, reverse=True))


def jordan_profile(A: IntMatrix) -> JordanProfile:
    """Exact Jordan invariants; see JordanProfile.

    Examples
    ========
    diag(2,3) has l=0, r=1, rbar=1; the Fibonacci companion matrix has r=1 but
    rbar=2 because the Galois conjugate eigenspace is counted in rbar.
    Computed once per matrix object.
    """
    if A._jordan is not None:
        return A._jordan
    prof = modulus_profile(A)
    block_sizes = tuple(_block_sizes(A, fd.poly, fd.multiplicity) for fd in prof.factors)
    if sum(fd.degree * sum(sizes) for fd, sizes in zip(prof.factors, block_sizes)) != A.n:
        raise ArithmeticError("block dimensions do not sum to N")
    at_max = [(fd, sizes) for fd, sizes in zip(prof.factors, block_sizes) if fd.is_max]
    l = max(sizes[0] for _, sizes in at_max) - 1
    r = 0
    rbar = 0
    for fd, sizes in at_max:
        top_blocks = sizes.count(l + 1)
        r += top_blocks * fd.roots_at_max
        rbar += top_blocks * fd.degree
    A._jordan = JordanProfile(
        rho=prof.rho,
        block_sizes=block_sizes,
        l=l,
        r=r,
        rbar=rbar,
        m=prof.parity,
        modulus=prof,
    )
    return A._jordan


@dataclass
class LimitMatrixB:
    """B = lim_{n = 0 mod m} A^n / (n^l rho^n) with certification data."""

    n: int
    exact: bool
    entries: list  # Quad rows when exact, mpf rows otherwise
    width: object  # mpf bound on entrywise error (0 when exact)
    m: int
    l: int
    rho: CertifiedReal
    notes: tuple = ()


def _divide_linear(coeffs, lam: Quad):
    """(quotient, remainder) of a polynomial (ascending coefficients) by x - lam,
    by synthetic division; the remainder is the value at lam."""
    acc = Quad(0)
    quot = []
    for c in reversed(coeffs):
        acc = acc * lam + c
        quot.append(acc)
    return list(reversed(quot[:-1])), quot[-1]


def limit_matrix_B(A: IntMatrix, prec=None, *, _tol=LIMIT_TOL) -> LimitMatrixB:
    """Limit of A^n/(n^l rho^n) along the parity subsequence n = 0 (mod m).

    Exact entries whenever the dominant eigenvalues are rational or
    quadratic.  Otherwise the entries come from a power iteration that stops
    when successive iterates differ by less than LIMIT_TOL and a geometric
    tail estimate falls below it; that stopping rule is a heuristic, not a
    proven error bound, so such entries and their width are not certified.
    Dominant complex eigenvalues are rejected.  The exact limit, which
    depends on neither the tolerance nor prec, is computed once per matrix
    object.  The private _tol lets canonical_height_closed tighten the
    tolerance for its point.
    """
    if A._limit is not None:
        return A._limit
    prec = prec or default_precision()
    jp = jordan_profile(A)
    prof = jp.modulus
    l, m = jp.l, jp.m
    dominant = []
    for idx in prof.max_indices:
        fd = prof.factors[idx]
        if (l + 1) not in jp.block_sizes[idx]:
            continue  # max-modulus but smaller blocks: vanishes in the limit
        real_at_max = len(fd.max_real_signs)
        if real_at_max != fd.roots_at_max:
            raise UnsupportedError("dominant eigenvalue is not real; limit has no fixed phase")
        dominant.append(fd)
    notes = [] if all(fd.all_roots_real for fd in prof.factors) else [
        "matrix has nonreal eigenvalues below the spectral radius; the limit only needs the dominant ones real",
    ]
    if all(fd.poly.degree <= 2 for fd in dominant):
        entries = _exact_limit(A, prof, jp, dominant)
        b = LimitMatrixB(
            n=A.n, exact=True, entries=entries, width=mp.mpf(0),
            m=m, l=l, rho=jp.rho, notes=tuple(notes),
        )
        _check_exact_limit(A, b)
        A._limit = b
        return b
    entries, width = _iterated_limit(A, jp, Fraction(str(_tol)), prec)
    return LimitMatrixB(
        n=A.n, exact=False, entries=entries, width=width, m=m, l=l, rho=jp.rho,
        notes=tuple(notes + ["entries are certified enclosure midpoints, not exact"]),
    )


def _exact_limit(A: IntMatrix, prof, jp, dominant):
    """B = sum over the dominant lam of q_lam(A) / (l! lam^l h(lam)), exactly.

    With charpoly = (x - lam)^mult h and q_lam = (x - lam)^l h, A^n on the
    generalised eigenspace of lam leads with C(n, l) lam^(n-l) (A - lam)^l P_lam,
    and (A - lam)^l P_lam = q_lam(A) / h(lam) because (A - lam)^(l+1) vanishes
    there.  The sum is one polynomial over Q(sqrt d), evaluated at A as a
    combination of the integer powers of A.
    """
    l = jp.l
    total = [Quad(0)] * A.n
    for fd in dominant:
        for lam in fd.real_roots_at_max:
            quotients = [prof.charpoly.coeffs]
            for _ in range(fd.multiplicity):
                quot, rem = _divide_linear(quotients[-1], lam)
                if rem != 0:
                    raise ArithmeticError("eigenvalue multiplicity mismatch in the limit")
                quotients.append(quot)
            q, h = quotients[fd.multiplicity - l], quotients[-1]
            h_lam = _divide_linear(h, lam)[1]
            if h_lam == 0:
                raise ArithmeticError("h(lam) = 0; factor multiplicities inconsistent")
            c = (h_lam * lam**l * factorial(l)).inverse()
            for k, v in enumerate(q):
                total[k] = total[k] + c * v
    rows = A.row_lists()
    power = [[int(i == j) for j in range(A.n)] for i in range(A.n)]
    B = [[Quad(0)] * A.n for _ in range(A.n)]
    for k, t in enumerate(total):
        if k:
            power = kernels.mat_mul(power, rows)
        if t:
            B = [[x + t * y for x, y in zip(rb, rp)] for rb, rp in zip(B, power)]
    return B


def _check_exact_limit(A: IntMatrix, b: LimitMatrixB):
    """B != 0, B A^m = rho^m B, and B^2 = B when l = 0 (a sum of spectral
    projectors) or B^2 = 0 when l >= 1 (then 2l >= l + 1), all exactly.

    Entries outside the field of rho fail the check rather than leave it as
    an UnsupportedError.
    """
    B = b.entries
    if not any(map(any, B)):
        raise ArithmeticError("limit matrix vanished identically")
    rho_m = b.rho.descriptor ** b.m
    try:
        moved = kernels.mat_mul(B, A.pow(b.m).row_lists()) == [[rho_m * v for v in row] for row in B]
        square = kernels.mat_mul(B, B)
    except UnsupportedError as exc:
        raise ArithmeticError("B A^m = rho^m B identity failed: entries in another quadratic field") from exc
    if not moved:
        raise ArithmeticError("B A^m = rho^m B identity failed in exact arithmetic")
    if square != (B if b.l == 0 else [[0] * b.n] * b.n):
        raise ArithmeticError("B^2 = B (l = 0) or B^2 = 0 (l >= 1) failed in exact arithmetic")


def _iterated_limit(A: IntMatrix, jp, stop: Fraction, prec: int):
    """Power iteration for dominant eigenvalues of degree > 2 (real), until
    iterates move by less than stop and the geometric tail estimate is below it.

    A power is formed only at the steps that read it: the tail estimate
    depends on the step alone, and the bit budget cannot be reached while
    nval * bits(||A||_inf) stays within it, as ||A^nval||_inf <= ||A||_inf^nval.
    """
    l, m = jp.l, jp.m
    n = A.n
    rho_mpf = jp.rho.to_mpf(prec + 32)
    second = jp.modulus.second_sq_hi
    ratio = None
    if second is not None:
        jp.rho.refine(Fraction(1, 2**96))
        ratio = mp.sqrt(mpf(second.numerator) / mpf(second.denominator)) / rho_mpf
    poly_decay = any(
        fd.is_max and sizes[-1] < l + 1 for fd, sizes in zip(jp.modulus.factors, jp.block_sizes)
    )
    stop_mpf = mpf(stop.numerator) / mpf(stop.denominator)
    norm_bits = max(sum(map(abs, row)) for row in A.row_lists()).bit_length()
    step = A.pow(m)
    formed = {}  # exponent -> power, the latest two steps

    def power(e):
        if e not in formed:
            formed[e] = formed[e - m].mul(step) if e - m in formed else A.pow(e)
            formed.pop(e - 2 * m, None)
        return formed[e]

    with mp.workprec(prec + 64):

        def scaled(e):
            denom = mpf(e) ** l * rho_mpf**e
            return [[mpf(v) / denom for v in row] for row in power(e).row_lists()]

        nval = m
        prev = None  # scaled power of the step before, when that step built it
        for _ in range(4000):
            # the geometric tail bound depends on nval alone: scale only where it can pass
            geo = (ratio**nval * mpf(nval) ** (2 * n)) if ratio is not None else mpf(0)
            cur = None
            if geo < stop_mpf:
                if prev is None and nval > m:
                    prev = scaled(nval - m)
                cur = scaled(nval)
                if prev is not None:
                    diff = max(abs(cur[i][j] - prev[i][j]) for i in range(n) for j in range(n))
                    poly_ok = (not poly_decay) or diff * nval < stop_mpf
                    if diff < stop_mpf and poly_ok:
                        return cur, diff + geo
            prev = cur
            nval += m
            if nval * norm_bits > _POWER_BIT_BUDGET and power(nval).max_bit_length() > _POWER_BIT_BUDGET:
                break
        partial = prev if prev is not None else scaled(nval - m)
        raise BudgetError("power iteration for the limit matrix did not converge", partial=partial)


# ---------------------------------------------------------------------------
# exact Jordan basis


@dataclass
class JordanBasisData:
    """Columns of J in (factor, root, block, position) order, with height data."""

    J: list  # Quad rows
    T: list  # Jordan form, Quad rows
    det_J: Quad
    field_d: int  # 0 for rational, else the squarefree radicand
    max_entry_mult_log: tuple  # enclosure of max log H_mult over entries


def _vec_height_key(v):
    """Sorting key preferring small entries, then lexicographic order."""
    mags = []
    for q in v:
        a, b = q.a, q.b
        mags.append(max(abs(a.numerator), a.denominator, abs(b.numerator), b.denominator))
    return (max(mags), [str(q) for q in v])


def _normalize_chain(chain):
    """Scale a whole chain so the eigenvector's first nonzero coordinate is 1.

    The chain is a single orbit under A - lambda I, so one scalar rescales all
    of it; pinning the eigenvector keeps the output deterministic and keeps
    entry heights small (field elements like (-1+sqrt(5))/2 rather than their
    cleared integral multiples).
    """
    lead = next(q for q in chain[0] if q != Quad(0))
    inv = lead.inverse()
    return [[q * inv for q in vec] for vec in chain]


def jordan_basis(A: IntMatrix) -> JordanBasisData:
    """Exact Jordan basis when all eigenvalues lie in Q or one real quadratic field.

    Chains are built by kernel ascent of (A - lambda I)^k with smallest-height
    integral representatives, so the height data entering effective constants
    is reproducible.
    """
    jp = jordan_profile(A)
    for fd in jp.modulus.factors:
        if fd.degree > 2:
            raise UnsupportedError("eigenvalue of degree > 2: exact Jordan basis out of scope")
        if not fd.all_roots_real:
            raise UnsupportedError("complex eigenvalues: no real quadratic Jordan basis")
    ds = {lam.d for fd in jp.modulus.factors for lam in fd.roots} - {0}
    if len(ds) > 1:
        raise UnsupportedError("eigenvalues span more than one quadratic field")
    field_d = ds.pop() if ds else 0

    n = A.n
    columns = []
    t_blocks = []  # (lam, size) in column order
    # linear factors ordered by their root, so diag(2,3) yields the identity;
    # higher-degree factors keep the canonical (degree, coefficients) order
    def _factor_key(i):
        g = jp.modulus.factors[i].poly
        if g.degree == 1:
            return (1, Fraction(-g.coeffs[0], g.coeffs[1]), ())
        return (g.degree, Fraction(0), g.coeffs)

    for i in sorted(range(len(jp.block_sizes)), key=_factor_key):
        for lam in jp.modulus.factors[i].roots:
            chains = _chains_for_eigenvalue(A.row_lists(), lam, jp.block_sizes[i])
            for chain in chains:
                chain = _normalize_chain(chain)
                for vec in chain:
                    columns.append(vec)
                t_blocks.append((lam, len(chain)))
    J = [[columns[j][i] for j in range(n)] for i in range(n)]
    T = [[Quad(0)] * n for _ in range(n)]
    pos = 0
    for lam, size in t_blocks:
        for k in range(size):
            T[pos + k][pos + k] = lam
            if k + 1 < size:
                T[pos + k][pos + k + 1] = Quad(1)
        pos += size
    if kernels.mat_mul(A.row_lists(), J) != kernels.mat_mul(J, T):
        raise ArithmeticError("A J = J T verification failed")
    det_J = det(J)
    if not det_J:
        raise ArithmeticError("Jordan basis is singular")
    los, his = zip(*(h_mult_log_enclosure(v, 96) for row in J for v in row if v))
    return JordanBasisData(
        J=J,
        T=T,
        det_J=det_J,
        field_d=field_d,
        max_entry_mult_log=(max(los), max(his)),
    )


def _chains_for_eigenvalue(rows, lam: Quad, sizes):
    """Jordan chains for one eigenvalue, sizes descending; exact kernel ascent
    on the powers (A - lam I)^j, j = 1..sizes[0], as Quad rows."""
    powers = {1: [[v - lam if i == j else Quad(v) for j, v in enumerate(row)] for i, row in enumerate(rows)]}
    for j in range(2, sizes[0] + 1):
        powers[j] = kernels.mat_mul(powers[j - 1], powers[1])
    kernels_by_level = {j: sorted(nullspace(power), key=_vec_height_key) for j, power in powers.items()}

    chains = []
    for s in sorted(set(sizes), reverse=True):
        count = sum(1 for x in sizes if x == s)
        lower = kernels_by_level.get(s - 1, []) if s > 1 else []
        pushed = [kernels.mat_vec(powers[t - s], top) for t, top, _ in chains if t > s]
        span = [v[:] for v in lower] + [v[:] for v in pushed]
        tops = []
        for cand in kernels_by_level[s]:
            if len(tops) == count:
                break
            if _independent(span + [cand]):
                span.append(cand)
                tops.append(cand)
        if len(tops) != count:
            raise ArithmeticError("kernel ascent failed to find enough chain tops")
        for top in tops:
            chain = [kernels.mat_vec(powers[k], top) for k in range(s - 1, 0, -1)] + [top]
            chains.append((s, top, chain))
    chains.sort(key=lambda c: (-c[0], _vec_height_key(c[1])))
    return [chain for _, _, chain in chains]


def _independent(vectors):
    return rank(vectors) == len(vectors)
