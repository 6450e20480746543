"""One analysis per matrix: an IntMatrix computes its factored characteristic
polynomial, its modulus profile, its Jordan profile and its exact limit matrix
once, and sharing that analysis between callers changes no output."""

import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

import monoheight.jordan
import monoheight.matrices
from monoheight import (
    IntMatrix,
    MonoheightError,
    PointGm,
    canonical_height_closed,
    classify_orbit,
    effective_constants,
    system_report,
)
from monoheight.cli import EXIT_OK, run

FIB = [[1, 1], [1, 0]]
JORDAN2 = [[2, 1], [0, 2]]
PARITY = [[-2, 0], [0, 1]]
CUBIC = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # companion of x^3 - x - 1


def _point(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def _points(n):
    return [_point(*(2, 3, 5)[:n]), _point(*(Fraction(-4, 9), 10, 7)[:n])]


@pytest.fixture
def analyses(monkeypatch):
    """Per matrix object, how often the computation behind each slot ran:
    charpoly inside charpoly_factors (which modulus_profile reads), the block
    sizes of each factor inside jordan_profile, and the exact limit inside
    limit_matrix_B."""
    counts = {"modulus": Counter(), "jordan": Counter(), "limit": Counter()}
    alive = []  # counted matrices stay alive, so their ids stay distinct

    def count(module, name, slot, key, caller=None):
        fn = getattr(module, name)

        def counted(A, *args, **kwargs):
            if caller is None or sys._getframe(1).f_code.co_name == caller:
                alive.append(A)
                counts[slot][key(A, args)] += 1
            return fn(A, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(monoheight.matrices, "charpoly", "modulus", lambda A, args: id(A), caller="charpoly_factors")
    count(monoheight.jordan, "_block_sizes", "jordan", lambda A, args: (id(A), args[0].coeffs))
    count(monoheight.jordan, "_exact_limit", "limit", lambda A, args: id(A))
    return counts


def _point_batch_steps(matrix, P):
    """The library calls of one point_batch job, in its order; each call
    takes the matrix that matrix() returns."""
    return (
        lambda: canonical_height_closed(matrix(), P, prec=128),
        lambda: classify_orbit(matrix(), P),
        lambda: effective_constants(matrix(), P, prec=192),
    )


def _run_steps(steps):
    out = []
    for step in steps:
        try:
            out.append(json.dumps(step().to_json()))
        except MonoheightError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.mark.parametrize("rows, exact", [(JORDAN2, True), (CUBIC, False)])
def test_point_batch_sequence_analyses_each_matrix_once(analyses, rows, exact):
    A = IntMatrix(rows)
    for P in _points(A.n):
        _run_steps(_point_batch_steps(lambda: A, P))
    assert analyses["modulus"] == {id(A): 1}
    assert set(analyses["jordan"].values()) == {1}
    assert {key[0] for key in analyses["jordan"]} == {id(A)}
    # an iterated limit depends on tol and prec, so only the exact one is kept
    assert analyses["limit"] == ({id(A): 1} if exact else {})


@pytest.mark.parametrize("rows", [FIB, JORDAN2])
def test_cli_analyze_analyses_the_matrix_once(analyses, tmp_path, rows):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(rows))
    assert run(["analyze", "--matrix", str(path)], out=io.StringIO()) == EXIT_OK
    assert list(analyses["modulus"].values()) == [1]
    assert set(analyses["jordan"].values()) == {1}
    assert list(analyses["limit"].values()) == [1]


def test_system_report_analyses_psi_once(analyses):
    generators = (IntMatrix([[2, 0], [0, 3]]), IntMatrix([[5, 0], [0, 2]]))
    report = system_report(generators, _point(2, 3))
    psi = report.degree.certificate.psi
    assert psi is generators[1]
    assert analyses["modulus"][id(psi)] == 1
    assert set(analyses["modulus"].values()) == {1}  # no other matrix twice, either
    assert {key: v for key, v in analyses["jordan"].items() if key[0] == id(psi)} == {
        (id(psi), (-2, 1)): 1, (id(psi), (-5, 1)): 1,
    }
    assert analyses["limit"] == {id(psi): 1}


@pytest.mark.parametrize("rows", [FIB, JORDAN2, PARITY, CUBIC])
def test_shared_analysis_changes_no_output(rows):
    # rho is an enclosure refined in place; sharing it between callers must
    # not leak one caller's refinement into another's output
    n = len(rows)
    shared = IntMatrix(rows)
    canonical_height_closed(shared, _point(*(3, 5, 7)[:n]), prec=512)
    for P in _points(n):
        fresh = _run_steps(_point_batch_steps(lambda: IntMatrix(rows), P))
        assert _run_steps(_point_batch_steps(lambda: shared, P)) == fresh
