"""Command-line interface: JSON reports, text rendering, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monoheight
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


def test_system_command(files):
    code, text = invoke(["system", "--system", files["pair"], "--point", "2,3"])
    assert code == EXIT_OK
    rep = json.loads(text)["report"]
    assert rep["dynamical_degree"]["exact"]
    assert rep["dynamical_degree"]["certificate"]["status"] == "certified_diagonal"
    assert rep["orbit"]["status"] == "infinite"
    assert "height_estimates" in rep


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


def test_exit_unsupported(files):
    code, text = invoke(["baker-bound", "--matrix", files["rotation"], "--point", "2,3"])
    assert code == EXIT_UNSUPPORTED
    assert json.loads(text)["error"]["type"] == "unsupported"


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
