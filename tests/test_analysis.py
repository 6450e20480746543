"""One analysis per distinct matrix: the analysis table of matrices.py keeps
one record per rows, so every IntMatrix with those rows shares its factored
characteristic polynomial, modulus profile, Jordan profile, exact limit
matrix and Jordan basis; sharing changes no output, and the table keeps the
most recently used records up to its bound."""

import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

import monoheight.jordan
import monoheight.matrices
from monoheight import (
    BudgetError,
    IntMatrix,
    MonoheightError,
    PointGm,
    UnsupportedError,
    canonical_height_closed,
    classify_orbit,
    charpoly_factors,
    effective_constants,
    jordan_basis,
    limit_matrix_B,
    system_report,
    weil_height_of_point,
)
from monoheight.cli import EXIT_OK, run

FIB = [[1, 1], [1, 0]]
JORDAN2 = [[2, 1], [0, 2]]
PARITY = [[-2, 0], [0, 1]]
CUBIC = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # companion of x^3 - x - 1
# companion of (x - 2)(x - 1)(x^3 - 3x^2 + x - 1): refined in place past its
# certified width, rho would print another 25th digit
DIGIT25 = [[0, 0, 0, 0, 2], [1, 0, 0, 0, -5], [0, 1, 0, 0, 10], [0, 0, 1, 0, -12], [0, 0, 0, 1, 6]]


def _point(*coords):
    return PointGm(tuple(Fraction(c) for c in coords))


def _points(n):
    return [_point(*(2, 3, 5, 7, 11)[:n]), _point(*(Fraction(-4, 9), 10, 7, Fraction(1, 3), 13)[:n])]


@pytest.fixture
def analyses(monkeypatch):
    """Per matrix rows, how often the computation behind each record field
    ran: charpoly inside charpoly_factors (which modulus_profile reads), the
    block sizes of each factor inside jordan_profile, the exact limit inside
    limit_matrix_B, and the kernel ascent of each eigenvalue inside
    jordan_basis; and how often the iterated limit, which no record keeps,
    ran."""
    counts = {"modulus": Counter(), "jordan": Counter(), "limit": Counter(), "basis": Counter(),
              "iterated": Counter()}

    def count(module, name, slot, key, caller=None):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            if caller is None or sys._getframe(1).f_code.co_name == caller:
                counts[slot][key(*args)] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(monoheight.matrices, "charpoly", "modulus", lambda A: A.rows, caller="charpoly_factors")
    count(monoheight.jordan, "_block_sizes", "jordan", lambda A, g, mult: (A.rows, g.coeffs))
    count(monoheight.jordan, "_exact_limit", "limit", lambda A, *rest: A.rows)
    count(monoheight.jordan, "_chains_for_eigenvalue", "basis", lambda rows, lam, sizes: (rows, str(lam)))
    count(monoheight.jordan, "_iterated_limit", "iterated", lambda A, *rest: A.rows)
    return counts


def _point_batch_steps(matrix, P):
    """The library calls of one point_batch job, in its order; each call
    takes the matrix that matrix() returns."""
    return (
        lambda: weil_height_of_point(P),
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
    # a new IntMatrix per call, as a caller that rebuilds the rows for every job
    points = _points(len(rows))
    for P in points:
        _run_steps(_point_batch_steps(lambda: IntMatrix(rows), P))
    key = IntMatrix(rows).rows
    assert analyses["modulus"] == {key: 1}
    assert set(analyses["jordan"].values()) == {1}
    assert {k[0] for k in analyses["jordan"]} == {key}
    # the record keeps the exact limit; an iterated one depends on the
    # point's stop, so each point keeps its height instead, per prec, and
    # classify_orbit reads the one canonical_height_closed kept at prec 128
    assert analyses["limit"] == ({key: 1} if exact else {})
    assert analyses["iterated"] == ({} if exact else {key: len(points)})
    for P in points:
        assert set(P._heights) == ({(key, 128), (key, 192)} if exact else {(key, 128)})
    # Baker's Jordan basis: once per eigenvalue; a cubic has none to build
    assert set(analyses["basis"].values()) == ({1} if exact else set())


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
    assert analyses["modulus"][psi.rows] == 1
    assert set(analyses["modulus"].values()) == {1}  # no other matrix twice, either
    assert {key: v for key, v in analyses["jordan"].items() if key[0] == psi.rows} == {
        (psi.rows, (-2, 1)): 1, (psi.rows, (-5, 1)): 1,
    }
    assert analyses["limit"] == {psi.rows: 1}


def test_equal_rows_share_one_analysis(analyses):
    first, second = IntMatrix(FIB), IntMatrix([list(r) for r in FIB])
    assert first is not second
    assert limit_matrix_B(first) is limit_matrix_B(second)
    assert charpoly_factors(second) is charpoly_factors(first)
    assert analyses["modulus"] == {first.rows: 1}
    assert analyses["limit"] == {first.rows: 1}


@pytest.mark.parametrize("rows", [FIB, JORDAN2, [[2, 0], [0, 3]]])
def test_jordan_basis_is_built_once_per_rows(analyses, rows):
    first = jordan_basis(IntMatrix(rows))
    assert jordan_basis(IntMatrix(rows)) is first
    assert analyses["basis"] and set(analyses["basis"].values()) == {1}
    assert {key[0] for key in analyses["basis"]} == {IntMatrix(rows).rows}


def test_the_table_evicts_the_least_recently_used_record(analyses):
    bound = monoheight.matrices._ANALYSIS_BOUND
    table = monoheight.matrices._ANALYSES
    mats = [IntMatrix([[k, 0], [0, 1]]) for k in range(2, bound + 3)]
    for A in mats[:bound]:
        charpoly_factors(A)
    assert len(table) == bound
    charpoly_factors(mats[0])  # used again: now the most recent
    charpoly_factors(mats[bound])  # one past the bound evicts mats[1], the least recent
    assert len(table) == bound
    assert mats[1].rows not in table and mats[0].rows in table and mats[bound].rows in table
    assert list(table)[-2:] == [mats[0].rows, mats[bound].rows]
    charpoly_factors(mats[0])  # still there: not analysed again
    charpoly_factors(mats[1])  # evicted: analysed again, evicting mats[2]
    assert analyses["modulus"][mats[0].rows] == 1
    assert analyses["modulus"][mats[1].rows] == 2
    assert mats[2].rows not in table and len(table) == bound


def _analyze_output(tmp_path, rows, *flags):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(rows))
    out = io.StringIO()
    code = run(["analyze", "--matrix", str(path), *flags], out=out)
    doc = json.loads(out.getvalue())
    doc.pop("timestamp", None)
    return code, json.dumps(doc)


@pytest.mark.parametrize("rows", [FIB, JORDAN2, PARITY, CUBIC])
def test_shared_analysis_changes_no_output(rows):
    # rho is an enclosure refined in place; a record shared between callers
    # must not leak one caller's refinement into another's output
    n = len(rows)
    table = monoheight.matrices._ANALYSES
    for P in _points(n):
        table.clear()  # the reference side is really cold
        fresh = _run_steps(_point_batch_steps(lambda: IntMatrix(rows), P))
        canonical_height_closed(IntMatrix(rows), _point(*(3, 5, 7, 11, 13)[:n]), prec=512)
        assert IntMatrix(rows).rows in table
        assert _run_steps(_point_batch_steps(lambda: IntMatrix(rows), P)) == fresh


@pytest.mark.parametrize("rows", [FIB, JORDAN2, PARITY, CUBIC, DIGIT25])
def test_outputs_do_not_depend_on_what_the_table_saw_before(tmp_path, rows):
    n = len(rows)
    table = monoheight.matrices._ANALYSES
    cold = []
    for P in _points(n):
        table.clear()
        cold.append(_run_steps(_point_batch_steps(lambda: IntMatrix(rows), P)))
    table.clear()
    cold_analyze = _analyze_output(tmp_path, rows, "--precision", "256")

    table.clear()
    canonical_height_closed(IntMatrix(rows), _point(*(3, 5, 7, 11, 13)[:n]), prec=512)
    assert _analyze_output(tmp_path, rows, "--precision", "256") == cold_analyze
    warm = [_run_steps(_point_batch_steps(lambda: IntMatrix(rows), P)) for P in _points(n)]
    assert warm == cold
    assert _analyze_output(tmp_path, rows, "--precision", "256") == cold_analyze
    assert len(table) == 1  # every call above read the one record of these rows
    if rows == CUBIC:
        # the point of smaller log mass has the looser stop: loosest stop
        # first and tightest stop first
        for order in ((0, 1), (1, 0)):
            table.clear()
            got = [_run_steps(_point_batch_steps(lambda: IntMatrix(rows), _points(n)[i])) for i in order]
            assert got == [cold[i] for i in order]


def test_warm_cubic_heights_match_cold_in_traffic_order():
    # points of many log masses, as a batch serves them, each asked at two
    # precisions, forward and reversed: a kept height is the one that a new
    # point and an empty table give
    points = [_point(Fraction(2 + i, 3 + 2 * i), 10 ** (i % 5) + i, Fraction(1, 7 * i + 2)) for i in range(30)]
    table = monoheight.matrices._ANALYSES

    def height(P, prec):
        return json.dumps(canonical_height_closed(IntMatrix(CUBIC), P, prec=prec).to_json())

    cold = {}
    for P in points:
        for prec in (64, 128):
            table.clear()
            cold[P, prec] = height(PointGm(P.coords), prec)
    asks = [(P, prec) for P in points for prec in (128, 64)]
    for order in (asks, asks[::-1]):
        table.clear()
        assert [height(*ask) for ask in order + order[::-1]] == [cold[ask] for ask in order + order[::-1]]


def test_a_repeated_height_is_kept_on_the_point(analyses, monkeypatch):
    # the same point, matrix rows and prec give the same object and form no
    # limit and no matrix power; another prec or matrix computes anew
    P = _point(2, 3, 5)
    first = canonical_height_closed(IntMatrix(CUBIC), P, prec=128)
    formed = []
    for name in ("mul", "pow"):
        method = getattr(IntMatrix, name)
        monkeypatch.setattr(IntMatrix, name,
                            lambda self, arg, name=name, method=method: formed.append(name) or method(self, arg))
    assert canonical_height_closed(IntMatrix(CUBIC), P, prec=128) is first
    assert canonical_height_closed(IntMatrix(CUBIC), P) is first  # the default precision is 128
    assert formed == []
    other = IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 1]])  # companion of x^3 - x^2 - 1
    assert canonical_height_closed(IntMatrix(CUBIC), P, prec=64) is not first
    canonical_height_closed(other, P, prec=128)
    assert analyses["iterated"] == {IntMatrix(CUBIC).rows: 2, other.rows: 1}
    assert set(P._heights) == {(IntMatrix(CUBIC).rows, 128), (IntMatrix(CUBIC).rows, 64), (other.rows, 128)}
    assert canonical_height_closed(IntMatrix(CUBIC), _point(2, 3, 5), prec=128) == first


def test_a_failed_height_is_not_kept(monkeypatch):
    # an error is raised again by the next call on the point, and a call
    # that succeeds later keeps the height a new point gets
    P, Q = _point(2, 3), _point(2, 3, 5)
    for _ in range(2):
        with pytest.raises(UnsupportedError):
            canonical_height_closed(IntMatrix([[1, -1], [1, 1]]), P)  # dominant roots 1 +- i
    monkeypatch.setattr(monoheight.jordan, "_POWER_BIT_BUDGET", 12)
    with pytest.raises(BudgetError):
        canonical_height_closed(IntMatrix(CUBIC), Q, prec=128)
    assert P._heights == Q._heights == {}
    monkeypatch.undo()
    assert canonical_height_closed(IntMatrix(CUBIC), Q, prec=128) == \
        canonical_height_closed(IntMatrix(CUBIC), _point(2, 3, 5), prec=128)
