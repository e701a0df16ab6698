"""Span tracing for the traced benchmark run, from outside the library.

The sgevp modules bind their collaborators with ``from ... import``, so a
call is traced by replacing the attribute that the *caller* looks up (for
example ``sgevp.subproblem.solve_bisection``, which ``solve_exact`` calls)
with a wrapper that records a span.  No library source is edited; the
originals are restored when the ``installed`` context exits.

Spans (name, start, end, parent) are kept in memory and written out once,
at the end of the run.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    """Spans and result counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        ids = np.asarray(self.name_ids, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = ids == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
            }
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_ids, dtype=np.int32),
            "start": np.asarray(self.starts),
            "end": np.asarray(self.ends),
            "parent": np.asarray(self.parents, dtype=np.int64),
        }


def _count_qfp(counts: Counter, solution) -> None:
    counts["qfp.cert." + solution.certificate.name.lower()] += 1


def _count_bisection(counts: Counter, solution) -> None:
    _count_qfp(counts, solution)
    counts["qfp.solve_bisection.iterations"] += solution.iterations


def _count_coordinate_descent(counts: Counter, solution) -> None:
    _count_qfp(counts, solution)
    counts["qfp.solve_coordinate_descent.sweeps"] += solution.iterations


def solve_targets(sgevp) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, result hook) for every call on the
    solve and certify path, named by the module that defines the function."""
    dec, ws, sub, qfp, lin = (
        sgevp.decomposition, sgevp.working_set, sgevp.subproblem, sgevp.qfp, sgevp.linalg,
    )
    return [
        (dec, "solve", "decomposition.solve", None),
        (dec, "certify_block2_stationary", "decomposition.certify", None),
        (dec, "_polish", "decomposition.polish", None),
        (dec, "select_hybrid", "working_set.select", None),
        (dec, "select_random", "working_set.select", None),
        (ws, "descent_matrix", "working_set.descent_matrix", None),
        (dec, "swap_descent", "working_set.swap_descent", None),
        (dec, "solve_1d", "fractional1d.solve_1d", None),
        (ws, "solve_1d", "fractional1d.solve_1d", None),
        (qfp, "solve_1d_core", "fractional1d.solve_1d_core", None),
        (dec, "build_block_subproblem", "subproblem.build_block_subproblem", None),
        (dec, "solve_exact", "subproblem.solve_exact", None),
        (sub, "solve_bisection", "qfp.solve_bisection", _count_bisection),
        (sub, "solve_coordinate_descent", "qfp.solve_coordinate_descent", _count_coordinate_descent),
        (lin, "inv_sqrt", "linalg.inv_sqrt", None),
        (lin, "sym_eig", "linalg.sym_eig", None),
    ]


def build_targets(sgevp) -> list[tuple[object, str, str, object]]:
    """The problem builders the workloads call through ``sgevp.problems``."""
    prob = sgevp.problems
    return [
        (prob, name, "problems.build", None)
        for name in ("gen_randn", "build_pca", "build_fda", "build_cca")
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Replace each target attribute by a traced wrapper, restoring on exit."""
    saved = []
    try:
        for module, attr, name, on_result in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, on_result))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
