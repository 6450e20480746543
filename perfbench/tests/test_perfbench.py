"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_S, Calibrator  # noqa: E402
from layers import Tracer  # noqa: E402
from worker import digest, load_library, load_reference, replay_known_failing  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return load_library()


def _cheapest(name, count):
    items = load_reference(name)["items"]
    return sorted(items, key=lambda it: it["cost_s"])[:count]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    items = load_reference(name)["items"]
    first = list(islice(workloads.job_sequence(items, 7, name), 200))
    again = list(islice(workloads.job_sequence(items, 7, name), 200))
    other = list(islice(workloads.job_sequence(items, 8, name), 200))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    w = workloads.WORKLOADS[name]
    kind = next(iter(w.shares))
    make = lambda seed: [w.make(random.Random(seed), kind) for _ in range(5)]  # noqa: E731
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_rounds_keep_the_mix():
    w = workloads.WORKLOADS["word_sums"]
    items = load_reference("word_sums")["items"]
    fixed = sum(1 for it in items if it["kind"] == "fixed")
    per_round = sum(w.shares.values())
    seq = list(islice(workloads.job_sequence(items, 3, "word_sums"), fixed + 3 * per_round))
    assert len(set(seq)) == len(seq)
    assert [items[i]["kind"] for i in seq[:fixed]] == ["fixed"] * fixed
    for r in range(3):
        block = seq[fixed + r * per_round: fixed + (r + 1) * per_round]
        assert Counter(items[i]["kind"] for i in block) == Counter(w.shares)


@pytest.mark.parametrize("n", [1, 2, 400, 800, 1000])
def test_spread_order_covers_costs_evenly(n):
    order = workloads.spread_order(list(range(n)), random.Random(5))
    assert sorted(order) == list(range(n))
    if n >= 400:
        # each run of 100 draws holds 7 to 13 from every tenth of the cost order
        # (random draws would hold 10 +- 3, and fall outside that somewhere)
        for k in (100, 200):
            counts = Counter(10 * i // n for i in order[k - 100:k])
            assert len(counts) == 10 and all(7 <= c <= 13 for c in counts.values())


def _run_jobs(lib, w, items, workdir, tracer=None):
    """Outputs and the wall time of the jobs alone."""
    outputs, wall = [], 0.0
    for item in items:
        job = w.prepare(lib, item, workdir)
        start = time.perf_counter()
        with tracer.recording() if tracer else nullcontext():
            outputs.append(w.run(lib, job))
        wall += time.perf_counter() - start
    return outputs, wall


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(lib, name, tmp_path):
    w = workloads.WORKLOADS[name]
    items = _cheapest(name, 4)
    plain, _ = _run_jobs(lib, w, items, tmp_path)
    tracer = Tracer().install()
    try:
        traced, wall = _run_jobs(lib, w, items, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [digest(o) for o in plain] == [it["sha256"] for it in items]
    snap = tracer.snapshot()
    self_total = sum(snap["self_s"].values())
    # self times partition the time under top-level spans, which nest in the jobs
    assert all(s >= -1e-9 for s in snap["self_s"].values())
    assert self_total == pytest.approx(snap["covered_s"], rel=1e-9, abs=1e-9)
    assert snap["covered_s"] <= wall
    assert sum(calls for calls, _ in snap["layers"].values()) > 0


def test_uninstall_restores_every_binding(lib):
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("monoheight") and mod is not None}
    sign = lib.LogLinear.__dict__["sign"]
    Tracer().install().uninstall()
    assert lib.LogLinear.__dict__["sign"] is sign
    for name, namespace in before.items():
        assert all(vars(sys.modules[name])[k] is v for k, v in namespace.items())


def test_wrappers_reach_reexports_and_methods(lib):
    tracer = Tracer().install()
    try:
        assert lib.spectral_radius is lib.matrices.spectral_radius
        assert lib.systems.spectral_radius is lib.matrices.spectral_radius
        assert hasattr(lib.spectral_radius, "__wrapped__")
        assert hasattr(lib.LogLinear.__dict__["sign"], "__wrapped__")
        assert hasattr(lib.LogProfile.__dict__["transport"], "__wrapped__")
        assert hasattr(lib.kernels.mat_mul, "__wrapped__")
        A = lib.IntMatrix([[2, 1], [1, 1]])
        with tracer.recording():
            lib.spectral_radius(A)
    finally:
        tracer.uninstall()
    assert tracer.calls["matrices.spectral_radius"] == 1
    assert tracer.calls["matrices.modulus_profile"] == 1
    assert tracer.counts["matrices.sympy.factor_list"] == 1


def test_tail_rule():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert metrics.tail(values) == (90, 90.0, 100)
    assert metrics.tail(list(range(11))) == (0, 100.0 / 11, 11)
    assert metrics.tail([3, 1, 2]) == (3, 100.0, 3)
    value, percentile, n = metrics.tail(list(range(1000)))
    assert sum(1 for v in range(1000) if v > value) == 10
    assert percentile == 99.0 and n == 1000


def test_failed_jobs_count_as_slow():
    jobs = [[i, "ok", 0.01, "", REFERENCE_S] for i in range(30)] + [[30, "error", 0.001, "boom", REFERENCE_S]]
    values, extra = metrics.end_to_end({"jobs": jobs, "peak_rss_mb": 1.0}, 0.3, 20.0)
    assert values["ok_frac"][0] == pytest.approx(30 / 31)
    assert extra["failed_frac"] == pytest.approx(1 / 31)
    assert values["job_tail_ms"][0] == pytest.approx(10.0)


@pytest.mark.parametrize("status", ["error", "timeout", "mismatch", "check: outside the enclosure"])
def test_one_failed_job_makes_the_run_incorrect(status):
    jobs = [[i, "ok", 0.01, "", REFERENCE_S] for i in range(500)] + [[500, status, 0.01, "", REFERENCE_S]]
    assert metrics.verdict([{"jobs": jobs}]) == (501, 1, False)
    assert metrics.verdict([{"jobs": jobs[:500]}]) == (500, 0, True)
    assert metrics.verdict([{"jobs": jobs[:500]}, {"jobs": jobs[:500]}], mismatched=1) == (1000, 1, False)


def test_calibration_loop_runs_in_its_own_process():
    with Calibrator() as calibrator:
        pid = calibrator._proc.pid
        times = [calibrator.measure() for _ in range(3)]
    assert pid != os.getpid()
    assert all(t > 0 for t in times)
    assert calibrator._proc.returncode == 0


def test_known_failing_inputs_are_replayed(lib, tmp_path):
    w = workloads.WORKLOADS["spectral"]
    excluded = load_reference("spectral")["excluded"][:2]
    replayed = replay_known_failing(w, lib, excluded, tmp_path)
    assert replayed["still_failing"] + replayed["failing_differently"] + replayed["now_ok"] == 2
    fake = [dict(excluded[0], error="ValueError: not the recorded error")]
    replayed = replay_known_failing(w, lib, fake, tmp_path)
    assert replayed["still_failing"] == 0
    assert len(replayed["changed"]) == 1


def _run_benchmark(cwd, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "point_batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_refuses_precision_environment():
    env = dict(os.environ, MONOHEIGHT_PRECISION="256")
    proc = _run_benchmark(ROOT, env)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fails_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    jobs = [[0, "ok", 0.01, "", REFERENCE_S]] * 20
    values, _ = metrics.end_to_end({"jobs": jobs, "peak_rss_mb": 1.0}, 0.3, 20.0)
    assert {k: u for k, (_, u) in values.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    tracer = Tracer()
    traced = {"jobs": jobs, "trace": tracer.snapshot()}
    values = metrics.per_layer({"jobs": jobs}, traced)
    assert {k: u for k, (_, u) in values.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
