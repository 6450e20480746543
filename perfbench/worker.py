"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--jobs J]
        [--trace] [--known-failing]

Jobs run in a closed loop, one after another, each under a wall-clock budget.
The loop serves jobs from ``workloads.job_sequence`` until ``--seconds`` have
passed or ``--jobs`` jobs are done; after each job the calibration loop is
timed in its own process (``calibration.Calibrator``).  Outputs are compared
with the recorded reference and the workload's independent check after the
loop, outside the timed region.  With ``--known-failing`` the inputs the
reference lists as failing at recording time are then run again, untimed
(``replay_known_failing``).  ``run.py`` starts this; it is not meant to be
run by hand.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402

# Per-job wall-clock budget in seconds; the slowest recorded job takes about 2 s.
JOB_BUDGET_S = 20.0

# Per-input budget when the known-failing inputs are run again; each fails
# in well under a second at the commit that recorded them.
KNOWN_FAILING_BUDGET_S = 5.0


class JobTimeout(BaseException):
    """Raised in the job when its budget runs out.

    A BaseException, so library code that catches Exception cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_library():
    """Import monoheight from the source tree and finish its lazy set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    import monoheight
    import monoheight.cli

    workloads.warm_up(monoheight)
    return monoheight


def load_reference(name):
    with open(HERE / "reference" / f"{name}.json") as fh:
        return json.load(fh)


def environment(lib):
    import mpmath
    import numpy
    import sympy

    return {
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "backend": lib.kernels.BACKEND,
        "nproc": os.cpu_count(),
        "mp_prec": lib.mp.prec,
        "monoheight_env": {k: v for k, v in os.environ.items() if k.startswith("MONOHEIGHT_")},
    }


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_one(workload, lib, item, workdir, tracer=None, budget=JOB_BUDGET_S):
    """(status, latency seconds, output or error text) of one job.

    Only the job itself is timed and traced, not the making of its inputs.
    """
    job = workload.prepare(lib, item, workdir)
    if workload.reset is not None:
        workload.reset()
    recording = tracer.recording() if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with recording:
                output = workload.run(lib, job)
            status = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        output, status = f"ran past the {budget:g} s budget", "timeout"
    except Exception:
        output, status = traceback.format_exc(limit=4), "error"
    return status, time.perf_counter() - start, output


def replay_known_failing(workload, lib, excluded, workdir):
    """Run again the inputs recorded as failing; count how many still fail
    with their recorded error, fail another way, or now succeed."""
    counts = {"still_failing": 0, "failing_differently": 0, "now_ok": 0}
    changed = []
    for entry in excluded:
        status, _, output = run_one(workload, lib, entry["input"], workdir, budget=KNOWN_FAILING_BUDGET_S)
        error = output.strip().splitlines()[-1] if status != "ok" and output.strip() else None
        if status == "ok":
            counts["now_ok"] += 1
        elif status == entry["status"] and error == entry["error"]:
            counts["still_failing"] += 1
            continue
        else:
            counts["failing_differently"] += 1
        changed.append({"input": entry["input"], "recorded": entry["error"], "now": error or status})
    return dict(counts, changed=changed)


def run_pass(name, seed, seconds, max_jobs=None, trace=False, known_failing=False):
    workload = workloads.WORKLOADS[name]
    lib = load_library()
    reference = load_reference(name)
    items = reference["items"]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer().install()
    jobs = []
    order = workloads.job_sequence(items, seed, name)
    replayed = None
    try:
        with Calibrator() as calibrator:
            loop_start = time.perf_counter()
            while time.perf_counter() - loop_start < seconds and (max_jobs is None or len(jobs) < max_jobs):
                index = next(order)
                status, latency, output = run_one(workload, lib, items[index], workdir, tracer)
                jobs.append([index, status, latency, output, calibrator.measure()])
        # before the known-failing inputs and the checks, which import numpy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if known_failing:
            replayed = replay_known_failing(workload, lib, reference["excluded"], workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    for job in jobs:
        index, status, _, output, _ = job
        if status == "ok":
            job[3] = digest(output)
            if job[3] != items[index]["sha256"]:
                job[1] = "mismatch"
            else:
                problem = workload.check(items[index], output)
                if problem:
                    job[1] = "check: " + problem
    return {
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(lib),
        "trace": tracer.snapshot() if tracer is not None else None,
        "known_failing": replayed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--known-failing", action="store_true")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.seconds, args.jobs, args.trace, args.known_failing)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
