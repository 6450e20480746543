"""Print the seconds a fresh process takes to import monoheight and
monoheight.cli and make the fixed trivial call (``workloads.warm_up``)."""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import warm_up  # noqa: E402  (standard library imports only)

start = time.perf_counter()
sys.path.insert(0, str(HERE.parent / "src"))
import monoheight  # noqa: E402
import monoheight.cli  # noqa: E402

warm_up(monoheight)
print(time.perf_counter() - start)
