"""The three workloads: input generators, job runners and independent checks.

Each workload has a pool of inputs made once by a generator with a fixed seed
and stored, with the SHA-256 of each job's canonical output, under
``perfbench/reference/``.  A run's ``--seed`` picks the order in which pool
items are served (see ``job_sequence``), so the same seed gives the same jobs
and the library only ever sees the generated matrices and points.

A job's canonical output is a string; errors the library raises on purpose
(``MonoheightError`` subclasses) are part of it, because an expected
``UnsupportedError`` is a result like any other.
"""

import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Precision passed explicitly wherever the API takes one; these equal the
# library defaults, so outputs match a plain call.
PREC = 128
BAKER_PREC = 192

# word_sums: depth of the word enumeration per generator count, chosen so a
# 3-generator system costs about what a 2-generator one does.
N_MAX = {2: 6, 3: 4}


def warm_up(lib):
    """The fixed trivial call that completes the library's lazy set-up
    (sympy's polynomial machinery, the CLI parser)."""
    lib.cli.build_parser()
    lib.modulus_profile(lib.IntMatrix([[2, 1], [1, 1]]))
    lib.weil_height_of_point(lib.PointGm.parse("2,3")).to_json()


# ---------------------------------------------------------------------------
# shared helpers


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(n))


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _poly_mul(p, q):
    """Product of coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _companion(coeffs):
    """Companion matrix of the monic polynomial with coefficients lowest first."""
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return rows


def _error_json(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def _small_rational(rng, primes=(2, 3, 5, 7, 11, 13)):
    num = den = 1
    for _ in range(rng.randint(0, 2)):
        num *= rng.choice(primes)
    for _ in range(rng.randint(0, 2)):
        den *= rng.choice(primes)
    q = Fraction(num, den)
    if q == 1 and rng.random() < 0.7:
        q = Fraction(rng.choice(primes))
    return q if rng.random() < 0.8 else -q


# ---------------------------------------------------------------------------
# word_sums: system_report on small 2x2 systems


SHEARS = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
DIAG_PAIR = [[[2, 0], [0, 3]], [[5, 0], [0, 2]]]


def _random_2x2(rng, lo=-2, hi=2):
    """Nonsingular and of infinite order.

    Finite-order generators send the point's valuations back to themselves,
    and the orbit classifier then enumerates up to its budget; that is not
    the path this workload measures.
    """
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(2)] for _ in range(2)]
        if _det(rows) == 0:
            continue
        power = rows  # integer 2x2 matrices of finite order have order 1, 2, 3, 4 or 6
        for _ in range(11):
            power = _matmul(power, rows)
        if power != [[1, 0], [0, 1]]:
            return rows


def _word_sums_item(rng, kind):
    k = 3 if kind.endswith("3") else 2
    if kind.startswith("free"):
        while True:
            mats = [_random_2x2(rng) for _ in range(k)]
            if _matmul(mats[0], mats[1]) != _matmul(mats[1], mats[0]):
                break
    elif kind == "diagonal":
        vals = [v for v in range(-5, 6) if v]
        mats = [[[rng.choice(vals), 0], [0, rng.choice(vals)]] for _ in range(k)]
    else:  # polynomial family: A_i = a_i A_1 + b_i I
        base = _random_2x2(rng)
        mats = [base]
        while len(mats) < k:
            a, b = rng.randint(1, 2) * rng.choice((1, -1)), rng.randint(-2, 2)
            rows = [[a * base[i][j] + (b if i == j else 0) for j in range(2)] for i in range(2)]
            if _det(rows) != 0:
                mats.append(rows)
    point = [str(_small_rational(rng)) for _ in range(2)]
    return {"kind": kind, "matrices": mats, "point": point, "n_max": N_MAX[k]}


WORD_SUMS_FIXED = [
    {"kind": "fixed", "matrices": SHEARS, "point": ["2", "3"], "n_max": N_MAX[2]},
    {"kind": "fixed", "matrices": DIAG_PAIR, "point": ["2", "3"], "n_max": N_MAX[2]},
]


def word_sums_run(lib, job):
    F, P, n_max = job
    try:
        out = lib.system_report(F, P, n_max=n_max).to_json()
    except lib.MonoheightError as exc:
        out = _error_json(exc)
    return _dumps(out)


def word_sums_prepare(lib, item, workdir):
    F = lib.SystemF(tuple(lib.IntMatrix(m) for m in item["matrices"]))
    return F, lib.PointGm.parse(",".join(item["point"])), item["n_max"]


def word_sums_check(item, output):
    """The degree enclosure holds the float spectral radius^(1/t) of psi_word,
    and every generator's float spectral radius lies below the upper end."""
    import numpy

    doc = json.loads(output)
    if "error" in doc:
        return None
    deg = doc["dynamical_degree"]
    lower, upper = float(deg["lower"]), float(deg["upper"])
    mats = [numpy.array(m, dtype=float) for m in item["matrices"]]
    slack = 1e-9
    for i, m in enumerate(mats):
        r = max(abs(numpy.linalg.eigvals(m)))
        if r > upper * (1 + slack):
            return f"generator {i + 1} has spectral radius {r} above the upper bound {upper}"
    word = deg.get("certificate", {}).get("psi_word")
    if word:
        prod = numpy.identity(2)
        for i in word:
            prod = prod @ mats[i - 1]
        value = max(abs(numpy.linalg.eigvals(prod))) ** (1.0 / len(word))
        if not lower * (1 - slack) <= value <= upper * (1 + slack):
            return f"rho(psi)^(1/t) = {value} lies outside [{lower}, {upper}]"
    return None


# ---------------------------------------------------------------------------
# spectral: the analyze command on distinct 3x3..6x6 matrices


CUBIC = [-1, -1, 0, 1]  # x^3 - x - 1
QUINTIC = [-1, -1, 0, 0, 0, 1]  # x^5 - x - 1


def _random_factor(rng, degree):
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [1]
        if coeffs[0] != 0:
            return coeffs


def _companion_item(rng, top):
    """Companion matrix of a product: one factor of degree top, the rest of
    degree 1 or 2, total degree 3 to 6."""
    size = rng.randint(max(3, top), 6)
    degrees = [top]
    while sum(degrees) < size:
        degrees.append(rng.randint(1, min(2, size - sum(degrees))))
    poly = [1]
    for d in degrees:
        poly = _poly_mul(poly, _random_factor(rng, d))
    return _companion(poly)


def _unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u = [[u[r][s] + (c * u[j][s] if r == i else 0) for s in range(n)] for r in range(n)]
    return u


def _unimodular_inverse(u):
    n = len(u)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)] for r, row in enumerate(u)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [v / piv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [[int(v) for v in row[n:]] for row in aug]


def _jordan_item(rng):
    """Block matrix with a repeated dominant root, conjugated by a unimodular matrix."""
    size = rng.randint(3, 6)
    lam = rng.choice((2, 3, -2))
    top = rng.randint(2, min(3, size))
    blocks = [(lam, top)]
    used = top
    if size - used >= 2 and rng.random() < 0.5:
        blocks.append((lam if rng.random() < 0.5 else -lam, rng.randint(1, min(2, size - used))))
        used += blocks[-1][1]
    while used < size:
        s = rng.randint(1, size - used)
        blocks.append((rng.choice((1, -1, 2 if abs(lam) == 3 else 1)), s))
        used += s
    j = [[0] * size for _ in range(size)]
    pos = 0
    for value, s in blocks:
        for i in range(s):
            j[pos + i][pos + i] = value
            if i + 1 < s:
                j[pos + i][pos + i + 1] = 1
        pos += s
    u = _unimodular(rng, size)
    return _matmul(_matmul(u, j), _unimodular_inverse(u))


def _spectral_item(rng, kind):
    if kind == "jordan":
        rows = _jordan_item(rng)
    else:
        rows = _companion_item(rng, rng.choice((3, 3, 4)))
    return {"kind": kind, "matrix": rows}


SPECTRAL_FIXED = [{"kind": "fixed", "matrix": _companion(CUBIC)},
                  {"kind": "fixed", "matrix": _companion(QUINTIC)}]


def spectral_reset():
    """Empty sympy's caches, so each job starts as cold as a fresh
    ``monoheight analyze`` process would, whatever ran before it."""
    from sympy.core.cache import clear_cache
    from sympy.polys import rootoftools

    clear_cache()
    rootoftools._reals_cache._dict.clear()
    rootoftools._complexes_cache._dict.clear()


def spectral_prepare(lib, item, workdir):
    path = workdir / "matrix.json"
    path.write_text(_dumps(item["matrix"]))
    return ["analyze", "--matrix", str(path), "--precision", str(PREC)]


def spectral_run(lib, argv):
    out = io.StringIO()
    code = lib.cli.run(argv, out=out)
    doc = json.loads(out.getvalue())
    doc.pop("timestamp", None)
    return _dumps({"exit_code": code, "output": doc})


def spectral_check(item, output):
    """The certified rho enclosure holds max |eigenvalue| from numpy."""
    import numpy

    doc = json.loads(output)
    if doc["exit_code"] != 0:
        return None
    lo, hi = (float(v) for v in doc["output"]["report"]["rho"]["enclosure"])
    a = numpy.array(item["matrix"], dtype=float)
    eig = numpy.linalg.eigvals(a)
    rho = max(abs(eig))
    # numpy's error on an eigenvalue of multiplicity m is about (eps*|A|)^(1/m)
    top = eig[numpy.argmax(abs(eig))]
    m = int(sum(abs(eig - top) < 1e-3 * max(rho, 1.0)))
    tol = max(1e-9, 10 * (2.2e-16 * numpy.linalg.norm(a)) ** (1.0 / m)) * max(rho, 1.0)
    if not lo - tol <= rho <= hi + tol:
        return f"numpy spectral radius {rho} lies outside [{lo}, {hi}]"
    return None


# ---------------------------------------------------------------------------
# point_batch: many seeded points on a fixed set of matrices


BATCH_MATRICES = [
    [[1, 1], [1, 0]],  # Fibonacci
    [[2, 1], [0, 2]],  # repeated root, l = 1
    [[1, 1], [0, 1]],  # shear
    [[2, 0], [0, 3]],
    [[-2, 0], [0, 1]],  # parity period 2
    [[2, 1], [1, 1]],
    _companion(CUBIC),  # irreducible cubic
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _random_prime(rng, digits):
    import sympy

    return int(sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))


def _batch_coord(rng):
    r = rng.random()
    if r < 0.15:
        return Fraction(rng.choice((1, -1)))  # torsion coordinate
    num = den = 1
    for _ in range(rng.randint(0, 3)):
        num *= rng.choice(_SMALL_PRIMES)
    for _ in range(rng.randint(0, 2)):
        den *= rng.choice(_SMALL_PRIMES)
    if r > 0.75:
        # a semiprime of up to about 12 digits
        a = rng.randint(3, 6)
        num *= _random_prime(rng, a) * _random_prime(rng, rng.randint(3, 6))
    q = Fraction(num, den)
    return q if rng.random() < 0.8 else -q


def _point_batch_item(rng, kind):
    matrix = BATCH_MATRICES[int(kind[len("matrix"):])]
    if rng.random() < 0.1:
        coords = [Fraction(rng.choice((1, -1))) for _ in matrix]  # torsion point
    else:
        coords = [_batch_coord(rng) for _ in matrix]
    return {"kind": kind, "matrix": matrix, "point": [str(c) for c in coords]}


def point_batch_prepare(lib, item, workdir):
    return lib.IntMatrix(item["matrix"]), lib.PointGm.parse(",".join(item["point"]))


def point_batch_run(lib, job):
    A, P = job
    out = {}
    steps = (
        ("weil_height", lambda: lib.weil_height_of_point(P).to_json()),
        ("canonical_height", lambda: lib.canonical_height_closed(A, P, prec=PREC).to_json()),
        ("orbit", lambda: lib.classify_orbit(A, P).to_json()),
        ("baker", lambda: lib.effective_constants(A, P, prec=BAKER_PREC).to_json()),
    )
    for name, step in steps:
        try:
            out[name] = step()
        except lib.MonoheightError as exc:
            out[name] = _error_json(exc)
    return _dumps(out)


def point_batch_check(item, output):
    """h(P) = log max(D, max_i |D x_i|), D the lcm of the denominators."""
    doc = json.loads(output)
    coords = [Fraction(c) for c in item["point"]]
    d = math.lcm(*(c.denominator for c in coords))
    expected = math.log(max([d] + [abs(c.numerator) * (d // c.denominator) for c in coords]))
    got = float(doc["weil_height"]["decimal"])
    if abs(got - expected) > 1e-9 * max(1.0, expected):
        return f"Weil height {got} differs from log max(D, |D x_i|) = {expected}"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to make, run and check one workload's jobs.

    ``shares`` gives each kind's items per round (see ``job_sequence``);
    ``rounds`` is how many rounds the recorded pool holds.  ``reset``, when
    set, runs before each job, outside the timed region.
    """

    name: str
    make: Callable
    fixed: list
    shares: dict
    rounds: int
    prepare: Callable
    run: Callable
    check: Callable
    reset: Callable = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("word_sums", _word_sums_item, WORD_SUMS_FIXED,
                 {"free2": 6, "free3": 2, "diagonal": 1, "polyfamily": 1}, 100,
                 word_sums_prepare, word_sums_run, word_sums_check),
        # A third Jordan-type, two thirds companion: with an even split the
        # median job falls in the gap between the two kinds' costs and
        # job_p50_ms spread 14% over ten seeds.
        Workload("spectral", _spectral_item, SPECTRAL_FIXED, {"jordan": 1, "companion": 2}, 400,
                 spectral_prepare, spectral_run, spectral_check, spectral_reset),
        Workload("point_batch", _point_batch_item, [],
                 {f"matrix{i}": 1 for i in range(len(BATCH_MATRICES))}, 400,
                 point_batch_prepare, point_batch_run, point_batch_check),
    )
}


def item_key(item):
    """Identity of an input, for keeping pool items distinct."""
    return _dumps({k: v for k, v in item.items() if k not in ("kind", "sha256", "cost_s")})


# Fraction of a kind's cost-sorted pool between successive draws of that kind.
GOLDEN = (math.sqrt(5) - 1) / 2


def spread_order(indices, rng):
    """A seeded permutation of ``indices`` (sorted by recorded cost) whose
    every prefix covers the cost range evenly: a golden-ratio stride from a
    random start.  Random draws would leave the few slow inputs to chance,
    and with them a run's total time and its tail latency."""
    n = len(indices)
    stride = round(GOLDEN * n)
    while math.gcd(stride, n) != 1:
        stride += 1
    start = rng.randrange(n)
    return [indices[(start + t * stride) % n] for t in range(n)]


def job_sequence(items, seed, workload):
    """Pool indices in the order a run serves them.

    Fixed items (the ROADMAP cases) come first.  The rest are served in rounds
    that hold each kind in its share of the pool, so every run sees the same
    mix.  Each kind's items are drawn in ``spread_order`` of their recorded
    cost, so every run also sees the same spread of costs; the seed picks
    where each kind's order starts and shuffles each round.  The pool is
    drawn without replacement until it is used up, then again in the same
    order.
    """
    rng = random.Random(f"{workload}:{seed}")
    by_kind = {}
    for i, it in enumerate(items):
        by_kind.setdefault(it["kind"], []).append(i)
    yield from by_kind.pop("fixed", [])
    orders = {k: spread_order(sorted(v, key=lambda i: items[i]["cost_s"]), rng)
              for k, v in sorted(by_kind.items())}
    rounds = min(len(v) for v in orders.values())
    share = {k: len(v) // rounds for k, v in orders.items()}
    for r in itertools.count():
        round_ = [order[(r * share[k] + j) % len(order)] for k, order in orders.items() for j in range(share[k])]
        rng.shuffle(round_)
        yield from round_
