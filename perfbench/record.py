"""Record the input pools and the reference outputs they are checked against.

    python3 perfbench/record.py [--workload NAME ...]

Each workload's generator runs from a fixed seed, kind by kind, until every
kind has its share of inputs.  The SHA-256 of each input's canonical output
becomes the reference that each benchmark run compares with byte for byte.
Each input then runs twice more, and the median of the three run times,
scaled to reference machine speed (``calibration.py``), is its recorded cost
(``cost_s``), by which ``workloads.job_sequence`` spreads each run's draws.  An input on which the library fails (an exception
that is not a ``MonoheightError``, or a run past the job budget) is not kept
in the pool: it goes to the file's ``excluded`` list with its error, and
every end-to-end run replays it, untimed, to show whether it still fails.
Run this only at a commit whose outputs define "same results".
"""

import argparse
import json
import os
import random
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import Calibrator, pin_to_one_core, scale  # noqa: E402
from worker import ROOT, _on_alarm, digest, load_library, run_one  # noqa: E402

MASTER_SEED = 20261017


COST_RUNS = 3


def _run(workload, lib, item, workdir, calibrator):
    status, latency, output = run_one(workload, lib, item, workdir)
    if status == "ok":
        problem = workload.check(item, output)
        if problem:
            raise SystemExit(f"independent check failed on {item}: {problem}")
        item["sha256"] = digest(output)
        costs = [latency * scale(calibrator.measure())]
        for _ in range(COST_RUNS - 1):
            costs.append(run_one(workload, lib, item, workdir)[1] * scale(calibrator.measure()))
        item["cost_s"] = round(statistics.median(costs), 4)
    return status, output


def record(name, calibrator):
    workload = workloads.WORKLOADS[name]
    lib = load_library()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    items, excluded = [], []
    seen = set()
    for item in workload.fixed:
        item = dict(item)
        status, output = _run(workload, lib, item, workdir, calibrator)
        if status != "ok":
            raise SystemExit(f"fixed input {item} failed: {output}")
        seen.add(workloads.item_key(item))
        items.append(item)
    for kind, share in workload.shares.items():
        rng = random.Random(f"{MASTER_SEED}:{name}:{kind}")
        kept = []
        while len(kept) < share * workload.rounds:
            item = workload.make(rng, kind)
            key = workloads.item_key(item)
            if key in seen:
                continue
            seen.add(key)
            status, output = _run(workload, lib, item, workdir, calibrator)
            if status == "ok":
                kept.append(item)
            else:
                excluded.append({"input": item, "status": status,
                                 "error": output.strip().splitlines()[-1]})
        items.extend(kept)
        print(f"{name}: {kind} done, {len(excluded)} excluded so far", file=sys.stderr)
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"workload": %s, "master_seed": %d,\n' % (json.dumps(name), MASTER_SEED))
        fh.write(' "excluded": [\n  ' + ",\n  ".join(json.dumps(e) for e in excluded) + "],\n")
        fh.write(' "items": [\n  ' + ",\n  ".join(json.dumps(it) for it in items) + "]}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    pin_to_one_core()
    with Calibrator() as calibrator:
        for name in args.workload or sorted(workloads.WORKLOADS):
            record(name, calibrator)


if __name__ == "__main__":
    main()
