"""Machine-speed probe for the sgevp benchmark.

On a shared machine the speed of one and the same solve drifts by 15-20%
either way over tens of seconds (on 2 vCPUs, one FDA instance took 0.34 s
to 0.52 s within 150 s), and a drift lasts longer than a run, so a median
over the passes of one run cannot remove it.  The probe is a fixed sample
of the kinds of work the solver spends its time on, written with numpy and
plain Python alone so that no change to sgevp changes its cost, in four
parts of about 10 ms each:

* tiny symmetric eigendecompositions (the per-support QFP solves),
* scalar float arithmetic in Python (the 1-D minimizer, coordinate descent),
* small fancy-indexed products (block assembly, restricted subproblems),
* dense 400x400 matrix-vector products (swap scoring, objectives).

Timed just before and just after each solve, the probe's time tracked the
solve's time with correlation 0.73-0.83 across three workloads, and
dividing by it cut the spread of single solves from 15-21% to 11-12%.
"""

from __future__ import annotations

import math
import time

import numpy as np


class Probe:
    """Fixed work; ``seconds()`` times one run of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._spd = [a @ a.T + np.eye(6) for a in rng.standard_normal((64, 6, 6))]
        self._small = rng.standard_normal((12, 12))
        self._idx = np.array([0, 3, 5, 7, 9])
        self._big = rng.standard_normal((400, 400))
        self._vec = rng.standard_normal(400)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            for m in self._spd:
                np.linalg.eigh(m)
        best = 0.0
        for i in range(42000):
            a = 1.0 + i * 1e-6
            root = (-0.5 + math.sqrt(abs(0.25 - a))) / (2.0 * a)
            best = min(best, root)
        idx, small = self._idx, self._small
        for _ in range(1300):
            y = small[np.ix_(idx, idx)] @ small[idx, 0]
            float(y @ y)
        for _ in range(400):
            float(self._vec @ (self._big @ self._vec))
        return time.perf_counter() - start
