"""Command-line interface: JSON reports, text rendering, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monoheight
from monoheight import IntMatrix, SystemF, charpoly, factor_over_q, poly_str
from monoheight.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    run,
)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return {
        "fib": write("fib.json", [[1, 1], [1, 0]]),
        "wrapped": write("wrapped.json", {"matrix": [[1, 1], [1, 0]]}),
        "rows": write("rows.json", {"rows": [[2, 1], [0, 2]]}),
        "singular": write("singular.json", [[1, 1], [1, 1]]),
        "rotation": write("rotation.json", [[0, -1], [1, 0]]),
        "pair": write("pair.json", {"matrices": [[[2, 0], [0, 3]], [[5, 0], [0, 2]]]}),
        "bad": write("bad.json", {"nonsense": 1}),
    }


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_analyze_fib(files):
    code, text = invoke(["analyze", "--matrix", files["fib"]])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["schema"] == "monoheight/1"
    assert doc["command"] == "analyze"
    assert "timestamp" in doc and "precision_bits" in doc
    rep = doc["report"]
    assert rep["charpoly"]["str"] == "x^2-x-1"
    assert rep["rho"]["exact"] == "(1+sqrt(5))/2"
    assert (rep["l"], rep["r"], rep["rbar"]) == (0, 1, 2)
    assert rep["parity_period"] == 1
    assert rep["jordan"]["det_J"].startswith("-")
    assert rep["jordan"]["field"] == "Q(sqrt(5))"


@pytest.mark.parametrize("rows", [
    [[0, 0, -2], [1, 0, 0], [0, 1, 0]],  # x^3 + 2
    [[0, 0, 3], [1, 0, 0], [0, 1, 0]],  # x^3 - 3
])
def test_analyze_binomial_companion(tmp_path, rows):
    path = tmp_path / "companion.json"
    path.write_text(json.dumps(rows))
    code, text = invoke(["analyze", "--matrix", str(path)])
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    cp = charpoly(IntMatrix(rows))
    assert rep["charpoly"]["str"] == poly_str(cp.coeffs)
    assert [(f["poly"]["str"], f["multiplicity"]) for f in rep["factors"]] == [
        (poly_str(g.coeffs), e) for g, e in factor_over_q(cp)
    ]


def test_matrix_loader_tolerance(files):
    for key in ("fib", "wrapped"):
        code, text = invoke(["analyze", "--matrix", files[key]])
        assert code == EXIT_OK
        assert json.loads(text)["report"]["charpoly"]["str"] == "x^2-x-1"
    code, text = invoke(["analyze", "--matrix", files["rows"]])
    assert code == EXIT_OK
    assert json.loads(text)["report"]["charpoly"]["str"] == "x^2-4*x+4"


def test_height_command():
    code, text = invoke(["height", "--point=-4/9,10"])
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    assert rep["height"]["symbolic"] == "log 2 + 2*log 3 + log 5"
    assert rep["height"]["decimal"] == "4.49980967033027"


def test_canonical_height_command(files):
    code, text = invoke(
        ["canonical-height", "--matrix", files["fib"], "--point", "2,3"]
    )
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    assert rep["canonical_height"]["decimal"] == "0.992880363370112"
    assert "truncated" not in rep
    code, text = invoke(
        ["canonical-height", "--matrix", files["fib"], "--point", "2,3",
         "--truncation-order", "8"]
    )
    rep = json.loads(text)["report"]
    assert len(rep["truncated"]["values"]) == 8


def test_truncation_order_is_validated_as_a_flag(files):
    argv = ["canonical-height", "--matrix", files["fib"], "--point", "2,3", "--truncation-order"]
    code, text = invoke(argv + ["-3"])
    assert code == EXIT_INPUT
    assert json.loads(text)["error"]["message"] == "--truncation-order must be >= 0"
    # 0 means no truncated block
    code, text = invoke(argv + ["0"])
    assert code == EXIT_OK
    assert "truncated" not in json.loads(text)["report"]


def test_canonical_height_command_prints_the_enclosure_of_a_numeric_height(tmp_path):
    # the companion of x^3 - x - 1 has an iterated limit, so its height is an
    # enclosure; canonical-height prints it as classify does
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
    _, text = invoke(["canonical-height", "--matrix", str(path), "--point", "2,3,5"])
    height = json.loads(text)["report"]["canonical_height"]
    _, text = invoke(["classify", "--matrix", str(path), "--point", "2,3,5"])
    assert height == json.loads(text)["report"]["orbit"]["canonical_height"]
    lo, hi = (float(v) for v in height["enclosure"])
    assert lo <= float(height["decimal"]) <= hi
    assert "symbolic" not in height


def test_system_command(files):
    code, text = invoke(["system", "--system", files["pair"], "--point", "2,3"])
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    assert rep["dynamical_degree"]["exact"]
    assert rep["dynamical_degree"]["certificate"]["status"] == "certified_diagonal"
    assert rep["orbit"]["status"] == "infinite"
    assert "height_estimates" in rep


def test_over_budget_truncated_walk_exits_4(files, tmp_path):
    # one map: 10^7 levels are 10^7 words, far over a budget of 100
    code, _ = invoke(["canonical-height", "--matrix", files["fib"], "--point", "2,3",
                      "--truncation-order", "10000000", "--word-budget", "100"])
    assert code == EXIT_BUDGET
    # a system whose first level already passes the budget
    code, _ = invoke(["system", "--system", files["pair"], "--point", "2,3", "--word-budget", "1"])
    assert code == EXIT_BUDGET
    # a huge --n-max walks to level 12 (4096 words a level for k = 2), 8190 words in all
    path = tmp_path / "shears.json"
    path.write_text(json.dumps({"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}))
    argv = ["system", "--system", str(path), "--point", "2,3", "--n-max", "10000000", "--word-budget"]
    code, _ = invoke(argv + ["8189"])
    assert code == EXIT_BUDGET
    code, text = invoke(argv + ["8190"])
    assert code == EXIT_OK
    assert json.loads(text)["report"]["height_estimates"]["summed"]["n"] == 12


def test_system_json_round_trip(tmp_path):
    # a system report's "system" entry reads back as the same system
    system = SystemF((IntMatrix([[1, 1], [1, 0]]), IntMatrix([[2, 0], [0, 3]])))
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system.to_json()))
    code, text = invoke(["system", "--system", str(path), "--point", "2,3", "--n-max", "3"])
    assert code == EXIT_OK
    echoed = json.loads(text)["report"]["system"]
    assert echoed == system.to_json()
    path.write_text(json.dumps(echoed))
    code, text = invoke(["system", "--system", str(path), "--point", "2,3", "--n-max", "3"])
    assert code == EXIT_OK
    assert json.loads(text)["report"]["system"] == echoed


def test_system_k_must_match_the_matrix_count(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"k": 5, "matrices": [{"rows": [[1, 1], [1, 0]]}]}))
    code, text = invoke(["system", "--system", str(path), "--point", "2,3"])
    assert code == EXIT_INPUT
    assert "k does not match" in json.loads(text)["error"]["message"]


def test_baker_bound_command(files):
    code, text = invoke(["baker-bound", "--matrix", files["rows"], "--point", "2,3"])
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    for key in ("log10_neg_log_C", "A_prime_log", "E_prime_log", "D_prime_log",
                "hypotheses"):
        assert key in rep
    assert rep["log10_neg_log_C"].startswith("63.65503704020234")
    assert rep["height_exceeds_bound"] is True


def test_classify_matrix_and_system(files):
    code, text = invoke(["classify", "--matrix", files["fib"], "--point", "1,-1"])
    assert code == EXIT_OK
    orbit = json.loads(text)["report"]["orbit"]
    assert orbit["status"] == "finite" and orbit["period"] == 3
    code, text = invoke(["classify", "--system", files["pair"], "--point", "2,3"])
    assert code == EXIT_OK
    assert json.loads(text)["report"]["orbit"]["status"] == "infinite"


def test_determinism_modulo_timestamp(files):
    _, a = invoke(["analyze", "--matrix", files["fib"]])
    _, b = invoke(["analyze", "--matrix", files["fib"]])
    da, db = json.loads(a), json.loads(b)
    del da["timestamp"], db["timestamp"]
    assert da == db


def test_exit_input_errors(files):
    code, text = invoke(["analyze", "--matrix", files["singular"]])
    assert code == EXIT_INPUT
    assert json.loads(text)["error"]["type"] == "input"
    code, _ = invoke(["height", "--point", "0,2"])
    assert code == EXIT_INPUT
    code, _ = invoke(["analyze", "--matrix", files["bad"]])
    assert code == EXIT_INPUT
    code, _ = invoke(["analyze", "--matrix", "/nonexistent.json"])
    assert code == EXIT_INPUT
    code, _ = invoke(["canonical-height", "--point", "2,3"])  # missing --matrix
    assert code == EXIT_INPUT


@pytest.mark.parametrize("extra, message", [
    (["system", "--system", "pair", "--point", "2,3", "--n-max", "0"], "budgets must be positive"),
    (["system", "--system", "pair", "--point", "2,3", "--word-budget", "0"], "budgets must be positive"),
    (["analyze", "--matrix", "fib", "--precision", "8"], "precision must be between"),
    (["analyze", "--matrix", "fib", "--precision", "70000"], "precision must be between"),
    (["analyze", "--matrix", "fib", "--precision", "0"], "precision must be between"),
    (["analyze", "--matrix", "fib", "--precision", "-1"], "precision must be between"),
    (["classify", "--point", "2,3"], "classify requires --matrix or --system"),
], ids=["n-max-0", "word-budget-0", "precision-8", "precision-70000", "precision-0", "precision-minus-1",
        "classify-point-only"])
def test_refused_options_exit_with_input_error(files, extra, message):
    code, text = invoke([files.get(a, a) for a in extra])
    assert code == EXIT_INPUT
    error = json.loads(text)["error"]
    assert error["type"] == "input" and message in error["message"]


@pytest.mark.parametrize("command, option, content", [
    ("analyze", "--matrix", b"[1, 2]"),
    ("analyze", "--matrix", b'{"rows": 5}'),
    ("analyze", "--matrix", b'{"n": 2, "rows": 5}'),
    ("analyze", "--matrix", b"[[true, 1], [1, false]]"),
    ("analyze", "--matrix", b"[[1.0, 1], [1, 0]]"),
    ("analyze", "--matrix", b"\xff\xfe[[1,1],[1,0]]"),
    ("analyze", "--matrix", b'{"n": true, "rows": [[3]]}'),
    ("system", "--system", b'{"matrices": 5}'),
    ("system", "--system", b'{"matrices": [[1, 2]]}'),
    ("system", "--system", b"[5]"),
    ("system", "--system", b'{"k": true, "matrices": [[[2, 1], [1, 1]]]}'),
], ids=["flat-list", "rows-not-a-list", "rows-not-a-list-with-n", "boolean-entries", "float-entry",
        "not-utf8", "boolean-n", "matrices-not-a-list", "flat-matrix-in-system", "number-in-system",
        "boolean-k"])
def test_malformed_json_is_an_input_error(tmp_path, command, option, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, text = invoke([command, option, str(path), "--point", "2,3"])
    assert code == EXIT_INPUT
    assert json.loads(text)["error"]["type"] == "input"


def test_integer_literal_past_the_int_string_limit_is_an_input_error(tmp_path):
    # json.load raises a bare ValueError for it, which is bad input, not a crash
    path = tmp_path / "long.json"
    path.write_text("[[" + "7" * 5000 + ", 1], [1, 0]]")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, text = invoke(["analyze", "--matrix", str(path)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_INPUT
    assert json.loads(text)["error"]["type"] == "input"


def test_a_point_outside_the_rational_grammar_exits_2_at_once():
    # Fraction("1e10000000") would build a 33-million-bit integer first
    start = time.perf_counter()
    code, text = invoke(["height", "--point", "1e10000000,2"])
    assert code == EXIT_INPUT
    assert "not a rational" in json.loads(text)["error"]["message"]
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("error", [ArithmeticError, ZeroDivisionError, ValueError])
def test_internal_errors_are_not_reported_as_input(files, monkeypatch, error):
    # a failed self-check or an internal misuse surfaces; only InputError means bad input
    def fail(args):
        raise error("internal")

    monkeypatch.setitem(monoheight.cli._COMMANDS, "analyze", (fail, ("matrix",)))
    with pytest.raises(error):
        invoke(["analyze", "--matrix", files["fib"]])


def test_there_is_no_tolerance_flag(files):
    # the degree >= 3 limit stops at a fixed tolerance and zero tests are exact
    code, _ = invoke(["analyze", "--matrix", files["fib"], "--tol", "1e-20"])
    assert code == EXIT_INPUT


def test_exit_unsupported(files):
    code, text = invoke(["baker-bound", "--matrix", files["rotation"], "--point", "2,3"])
    assert code == EXIT_UNSUPPORTED
    assert json.loads(text)["error"]["type"] == "unsupported"


def test_a_cleared_point_past_the_int_string_limit_exits_4(files):
    # 1/2^13000 and 3^8000 have under 4300 digits each; the cleared point
    # (1, 2^13000 3^8000) has 7732, so printing it would pass the limit
    argv = ["baker-bound", "--matrix", files["rows"], "--point", f"1/{2**13000},{3**8000}"]
    code, text = invoke(argv)
    assert code == EXIT_BUDGET
    assert json.loads(text)["error"]["type"] == "budget"
    # the same document whatever the int-string limit of the process
    src = str(Path(monoheight.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for extra in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}):
        out = subprocess.run([sys.executable, "-c", "from monoheight.cli import main; main()", *argv],
                             env=dict(env, **extra), capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (EXIT_BUDGET, text, "")


def test_classify_decides_a_system_by_minkowskis_bound(tmp_path):
    # [[0,-1],[1,0]] and [[0,1],[-1,-1]] have finite orders but generate SL_2(Z)
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({"matrices": [[[0, -1], [1, 0]], [[0, 1], [-1, -1]]]}))
    code, text = invoke(["classify", "--system", str(path), "--point", "2,3"])
    assert code == EXIT_OK
    orbit = json.loads(text)["report"]["orbit"]
    assert orbit["status"] == "infinite" and "M(2)*2^2 = 96 states" in orbit["certificate"]


def test_refinements_that_run_out_exit_4(files, tmp_path, monkeypatch):
    # the sign ladder of a log form with surd coefficients, cut to 8 bits: the
    # Fibonacci height compares forms in sqrt5
    monkeypatch.setattr(monoheight.logforms, "_SIGN_PRECISIONS", (8,))
    code, text = invoke(["canonical-height", "--matrix", files["fib"], "--point", "2,3"])
    assert code == EXIT_BUDGET
    assert json.loads(text)["error"] == {"type": "budget",
                                         "message": "sign of log-linear form did not separate from zero"}
    monkeypatch.undo()
    # root discs of x^5 - x - 1 whose approximations all coincide, so no
    # precision up to the disc cap certifies them
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps([[0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]))
    monkeypatch.setattr(monoheight.matrices, "_aberth_roots", lambda g, prec: ([(1 << prec, 0)] * g.degree, prec))
    code, text = invoke(["analyze", "--matrix", str(path)])
    assert code == EXIT_BUDGET
    assert json.loads(text)["error"] == {"type": "budget", "message": "root discs did not separate the moduli"}


def test_exit_budget(files):
    code, text = invoke(
        ["system", "--system", files["pair"], "--point", "2,3", "--word-budget", "2"]
    )
    assert code == EXIT_BUDGET
    assert "word budget" in json.loads(text)["error"]["message"]


def test_text_format(files):
    code, text = invoke(["analyze", "--matrix", files["fib"], "--format", "text"])
    assert code == EXIT_OK
    assert "charpoly" in text
    assert "x^2-x-1" in text
    assert "schema" not in text


def test_precision_flag_changes_report(files):
    _, a = invoke(["canonical-height", "--matrix", files["fib"], "--point", "2,3",
                   "--precision", "64"])
    assert json.loads(a)["precision_bits"] == 64


def test_precision_environment_variable_is_ignored(files):
    src = str(Path(monoheight.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "MONOHEIGHT_PRECISION"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))

    def python(code, *argv, **extra):
        out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(base, **extra),
                             capture_output=True, text=True, check=True)
        return out.stdout

    assert python("from monoheight import default_precision; print(default_precision())",
                  MONOHEIGHT_PRECISION="256").strip() == "128"
    cli = "from monoheight.cli import main; main()"
    argv = ("canonical-height", "--matrix", files["fib"], "--point", "2,3")
    plain = json.loads(python(cli, *argv))
    with_env = json.loads(python(cli, *argv, MONOHEIGHT_PRECISION="256"))
    del plain["timestamp"], with_env["timestamp"]
    assert plain == with_env
