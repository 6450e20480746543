"""monoheight end-to-end benchmark.

    python3 perfbench/run.py --workload {word_sums,spectral,point_batch} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The run pins itself, and so every
process it starts, to one core (``calibration.pin_to_one_core``).  Each
workload pass runs in a fresh worker process (``worker.py``), one at a time.
``--trace 0`` measures the end-to-end metrics untraced, plus ``setup_s``
from fresh processes, then replays the known-failing inputs untimed.
``--trace 1`` runs an untraced pass for a third of ``--seconds``, then the
same jobs again with every layer wrapped (``layers.py``), and reports the
per-layer metrics.  Every metric is printed with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator, pin_to_one_core, scale  # noqa: E402
from worker import JOB_BUDGET_S, KNOWN_FAILING_BUDGET_S  # noqa: E402

# Results depend on these, so a run with either set is refused.
REFUSED_ENV = ("MONOHEIGHT_PRECISION", "MONOHEIGHT_PURE_PYTHON")

SETUP_RUNS = 5

# Calibration loop timings taken after each set-up probe.
SETUP_LOOPS = 3

# Beyond a pass's own --seconds: the last job's budget, start-up and checks.
WORKER_GRACE_S = JOB_BUDGET_S + 60


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """(raw, scaled) median over fresh processes of importing monoheight and
    monoheight.cli plus the fixed trivial call, each scaled by the
    calibration loop timed right after it; one unmeasured process first
    fills the bytecode cache."""
    raw, scaled = [], []
    with Calibrator() as calibrator:
        for i in range(SETUP_RUNS + 1):
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                _fail(f"set-up probe failed:\n{proc.stderr}")
            if i:
                setup = float(proc.stdout.split()[-1])
                loop = statistics.median(calibrator.measure() for _ in range(SETUP_LOOPS))
                raw.append(setup)
                scaled.append(setup * scale(loop))
    return statistics.median(raw), statistics.median(scaled)


def worker_pass(workload, seed, seconds, jobs=None, trace=False, known_failing=None):
    """Result of one worker pass; ``known_failing``, when given, lists the
    reference's known-failing inputs, to be replayed after the pass."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    if known_failing is not None:
        cmd.append("--known-failing")
    limit = seconds + WORKER_GRACE_S + KNOWN_FAILING_BUDGET_S * len(known_failing or ())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        _fail(f"{workload} worker did not finish within {limit:g} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"{workload} worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(result):
    return [j for j in result["jobs"] if j[1] != "ok"]


def _report_failures(label, result, items):
    for index, status, latency, text, _ in _failures(result)[:5]:
        print(f"# {label} FAILED job {index} {json.dumps(items[index])}: {status}")
        print("#   " + text.strip().replace("\n", "\n#   "))


def _report_known_failing(replayed):
    print(f"# known-failing inputs (run untimed): {replayed['still_failing']} still fail as recorded, "
          f"{replayed['failing_differently']} fail differently, {replayed['now_ok']} now succeed")
    for entry in replayed["changed"]:
        print(f"#   {json.dumps(entry['input'])}: recorded {entry['recorded']!r}, now {entry['now']!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        _fail(f"refusing to run with {', '.join(refused)} set: results depend on it")
    if not (ROOT / "src" / "monoheight" / "__init__.py").is_file():
        _fail(f"no monoheight source under {ROOT / 'src'}; run from the root of a checkout")
    if not args.seconds > 0:
        _fail("--seconds must be positive")
    core = pin_to_one_core()
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    items = reference["items"]

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}, "
          f"pinned to core {core}")
    if args.trace == 0:
        raw_setup_s, setup_s = measure_setup()
        run = worker_pass(args.workload, args.seed, args.seconds, known_failing=reference["excluded"])
        values, extra = metrics.end_to_end(run, setup_s, JOB_BUDGET_S)
        passes = [run]
        mismatched = 0
        print(f"# jobs {len(run['jobs'])}, job_tail_ms at percentile {extra['tail_percentile']} "
              f"of {extra['tail_samples']} samples, failed_frac {extra['failed_frac']:.4f}")
        print(f"# unscaled: jobs_per_s {extra['raw_jobs_per_s']:.6g}, job_p50_ms {extra['raw_job_p50_ms']:.6g}, "
              f"job_tail_ms {extra['raw_job_tail_ms']:.6g}, setup_s {raw_setup_s:.6g}; "
              f"scale factor {extra['scale_factor']:.4g}")
        _report_known_failing(run["known_failing"])
    else:
        untraced = worker_pass(args.workload, args.seed, args.seconds / 3)
        traced = worker_pass(args.workload, args.seed, args.seconds, jobs=len(untraced["jobs"]), trace=True)
        values = metrics.per_layer(untraced, traced)
        passes = [untraced, traced]
        # traced and untraced outputs must be byte-identical job for job
        mismatched = sum(1 for a, b in zip(untraced["jobs"], traced["jobs"]) if a[0] != b[0] or a[3] != b[3])
        print(f"# jobs {len(untraced['jobs'])} untraced, {len(traced['jobs'])} traced, "
              f"{mismatched} traced outputs differ from untraced")
    print("# env " + json.dumps(passes[0]["env"], sort_keys=True))
    for label, result in zip(("untraced", "traced"), passes):
        _report_failures(label, result, items)
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")

    attempted, failed, correct = metrics.verdict(passes, mismatched)
    work = ROOT / ".perfbench_work"
    if work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))


if __name__ == "__main__":
    main()
