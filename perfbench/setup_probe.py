"""One set-up sample: import sgevp, generate a workload's data and build its
ProblemInstances, then print the elapsed seconds.

Runs in a fresh interpreter so that the import is timed cold, as a user
pays it.  Started by run.py with BLAS pinned to one thread.

    python3 perfbench/setup_probe.py <workload> <seed> [tiny]
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import sgevp  # noqa: E402,F401  (timed: part of set-up)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3:] == ["tiny"])
print(repr(time.perf_counter() - start))
