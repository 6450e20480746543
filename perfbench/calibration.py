"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes (on the 2-core VM this benchmark was built on, by up to
a factor of 1.7 between runs), far more than the differences a benchmark
must resolve.  So a fixed loop (``_work``) is timed between jobs, outside
the timed region, and each job's latency is scaled by how long that loop
took around it::

    latency * (REFERENCE_S / running median of nearby loop times) ** SENSITIVITY

The timings are then in seconds at reference speed, the speed at which the
loop takes ``REFERENCE_S``.

The loop runs in a process of its own (``Calibrator``), never in the
process that runs the library, so nothing the library does to its own
process (threads competing for the interpreter lock, trace hooks, heap
growth, memoised mpmath constants) reaches the loop: such a cost lands in
the job latencies in full.  ``run.py`` pins itself to one core before it
starts anything (``pin_to_one_core``), so the library's process and the
loop's process share that core and the loop measures the speed of the core
the jobs ran on; the two never run at the same time.

The loop does the kind of work monoheight does, on the libraries it stands
on: ``Fraction`` and big-integer arithmetic with small dicts, lists and
strings, sympy's dense integer polynomial factoring, and mpmath logarithms.
Jobs slow down less than the loop when the machine is contended;
``SENSITIVITY`` is the exponent that left the smallest spread of mean job
time over repeated passes of the same jobs (``python3 perfbench/calibration.py
--fit``), measured on other runs than those the README reports spreads for.
Unscaled timings are printed next to the scaled ones.

    python3 perfbench/calibration.py           # serve loop timings (Calibrator)
    python3 perfbench/calibration.py --fit     # re-measure SENSITIVITY
"""

import gc
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.006
SENSITIVITY = 0.8

# Jobs on each side whose loop times form the speed estimate for a job.
NEIGHBOURS = 6


def _work():
    import mpmath
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_zz_factor

    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[i] = [acc, str(i), (i, 7 * i)]
    n = 3**300
    for i in range(150):
        n = (n * 12345 + i) % 7**400
    poly = [ZZ(c) for c in (1, -3, 2, 7, -5, 1, 9)]
    for _ in range(2):
        dup_zz_factor(poly, ZZ)
    with mpmath.workprec(300):
        logs = [mpmath.log(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    return acc, n, logs


def calibrate():
    """Seconds the fixed loop takes now, in this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_core():
    """Restrict this process, and so every process it starts, to one core.

    Returns the core, or None where affinity cannot be set."""
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
        return core
    except (AttributeError, OSError):
        return None


class Calibrator:
    """The calibration loop in a process of its own, timed on request.

    The process warms the loop up once before the first request, so no
    measurement includes its imports.  Use as a context manager: on exit the
    process is told to stop and waited for.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration process failed to start")

    def measure(self):
        """Seconds the loop took, run now in the calibration process."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self):
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(loop_time):
    """Factor that takes a time measured when the loop took loop_time to
    reference speed."""
    return (REFERENCE_S / loop_time) ** SENSITIVITY


def scale_factors(loop_times):
    """Per job: the factor for the median loop time of the job and its
    NEIGHBOURS on each side."""
    n = len(loop_times)
    return [scale(statistics.median(loop_times[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]))
            for i in range(n)]


def _serve():
    for _ in range(3):
        calibrate()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


def _fit(passes=8):
    """Run the same jobs ``passes`` times per workload in fresh workers and
    print, per exponent, the spread (max/min - 1) of mean scaled job time."""
    import json
    from pathlib import Path

    here = Path(__file__).resolve().parent
    pin_to_one_core()
    # about 8 s of jobs per pass
    for name, jobs in (("word_sums", 40), ("spectral", 40), ("point_batch", 250)):
        runs = []
        for _ in range(passes):
            out = subprocess.run([sys.executable, str(here / "worker.py"), "--workload", name, "--seed", "0",
                                  "--seconds", "600", "--jobs", str(jobs)],
                                 cwd=here.parent, capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out.splitlines()[-1])["jobs"])
        for exponent in (0.0, 0.4, 0.6, 0.8, 1.0, 1.2):
            means = []
            for run in runs:
                loops = [j[4] for j in run]
                factors = [(REFERENCE_S / statistics.median(loops[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]))
                           ** exponent for i in range(len(run))]
                means.append(statistics.mean(j[2] * f for j, f in zip(run, factors)))
            print(f"{name} exponent {exponent:.1f}: spread {max(means) / min(means) - 1:.4f}", flush=True)


if __name__ == "__main__":
    _fit() if sys.argv[1:] == ["--fit"] else _serve()
