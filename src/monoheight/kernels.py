"""Exact matrix products and matrix polynomials on lists of rows.

Entries may be ints, Fractions or Quads (which mix with ints); outputs are
fresh lists.
"""

# Recorded in benchmark results; this module is the only implementation.
BACKEND = "python"


def mat_mul(a, b):
    """Exact product of two square matrices given as lists of rows."""
    n = len(a)
    bt = [[b[k][j] for k in range(n)] for j in range(n)]
    return [[sum(ra[k] * cb[k] for k in range(n)) for cb in bt] for ra in a]


def mat_vec(a, v):
    """Exact matrix-vector product."""
    return [sum(ra[k] * v[k] for k in range(len(v))) for ra in a]


def mat_pow(a, e):
    """Exact e-th power, e >= 0, by binary powering."""
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while e:
        if e & 1:
            out = mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return out


def mat_poly(coeffs, a):
    """Exact sum of coeffs[k] * a^k for ascending coefficients (ints, Fractions
    or Quads): each power of a is formed once, up to the last nonzero
    coefficient, and zero coefficients add nothing."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    top = max((k for k, c in enumerate(coeffs) if c), default=-1)
    for k, c in enumerate(coeffs[:top + 1]):
        if k:
            power = mat_mul(power, a)
        if c:
            out = [[x + c * y for x, y in zip(ro, rp)] for ro, rp in zip(out, power)]
    return out


def max_bits(a):
    """Largest bit length over the entries of an integer matrix."""
    return max((abs(x).bit_length() for row in a for x in row), default=0)
