"""Shared samplers for randomized tests.

The acceptance criteria prescribe the sampling ranges: matrix entries in
[-3, 3] with nonzero determinant, coordinates from a fixed small set of
rationals.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from monoheight import InputError, IntMatrix, PointGm

# Fixed draws and no example database: every run draws the same examples, and
# no failing draw stored by an earlier run is replayed.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

COORD_CHOICES = [
    Fraction(1), Fraction(-1),
    Fraction(2), Fraction(-2),
    Fraction(3), Fraction(-3),
    Fraction(1, 2), Fraction(-1, 2),
    Fraction(2, 3), Fraction(-2, 3),
]


def random_matrix(rng, n, lo=-3, hi=3):
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        try:
            return IntMatrix(rows)
        except InputError:
            continue


def random_point(rng, n, choices=COORD_CHOICES):
    return PointGm(tuple(rng.choice(choices) for _ in range(n)))


def profile_point(prof):
    """The point whose log_profile is prof: the inverse of log_profile."""
    coords = []
    for j in range(prof.n):
        q = Fraction(prof.signs[j])
        for p, vec in prof.vals.items():
            q *= Fraction(p) ** vec[j]
        coords.append(q)
    return PointGm(tuple(coords))


@pytest.fixture
def rng():
    return random.Random(20260815)
