"""Byte identity with the recorded benchmark outputs.

Every 50th item of each pool under perfbench/reference/ runs through the same
prepare, reset and run steps as a benchmark job, and its canonical output must
hash to the recorded SHA-256.  perfbench/ is only read.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from worker import digest, load_library, load_reference  # noqa: E402

STRIDE = 50
POOLS = {name: load_reference(name)["items"] for name in sorted(workloads.WORKLOADS)}
CASES = [(name, index) for name, items in POOLS.items() for index in range(0, len(items), STRIDE)]


@pytest.fixture(scope="module")
def lib():
    return load_library()


@pytest.mark.parametrize("name, index", CASES, ids=[f"{n}-{i}" for n, i in CASES])
def test_reference_output(lib, name, index, tmp_path):
    w = workloads.WORKLOADS[name]
    item = POOLS[name][index]
    job = w.prepare(lib, item, tmp_path)
    if w.reset is not None:
        w.reset()
    assert digest(w.run(lib, job)) == item["sha256"]
