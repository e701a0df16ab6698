#!/usr/bin/env python3
"""Fingerprint the solver's results on the benchmark workloads.

    python3 tools/fingerprint.py --seeds 20 > fingerprint.txt
    python3 tools/fingerprint.py --seeds 5 --workload pca-bounded
    python3 tools/fingerprint.py --seeds 20 --compare fingerprint.txt

Run from the root of a checkout.  For seeds 0..N-1 of each workload in
perfbench/workloads.py (imported as is), every instance is solved with
``sgevp.decomposition.solve`` and certified with
``certify_block2_stationary(tol=1e-6)``, as the benchmark does, with BLAS
pinned to one thread.  One line per instance:

    <workload> <seed> <label> <sha1> <steps> <support> <objective> <stop reason> <certificate>

The SHA-1 covers the bytes of the final x, of the trace arrays
(objectives, rel_decreases, denominators, step_norms) and of every working
set, and the run's counters: every field of trace.polish, trace.supports
and trace.rejected (None for the baselines).  <steps> is the trace length
(trace.iterations), <support> the comma-separated indices of the final
x's nonzeros and <objective> the repr of the final objective.  The
certificate is True, False or the name of the error it raised.  Two
checkouts that print the same lines gave bit-identical results and
reported the same counters.  ``--compare FILE`` diffs the run against a
saved output instead of printing it: per workload, the number of
instances whose line differs (or is missing on one side), how many of
those kept their steps, support, stop reason and certificate and the
largest relative change of the final objective among them, then their
seeds and labels; exit status 1 if any differs.  Only the workloads and
seeds of the run are compared, so a run of fewer seeds checks a prefix of
a longer file.
Where the digests differ only because sums round differently, equal
supports, steps, stop reasons and certificates with nearby objectives say
that the runs took the same path.

Output saved by an older version of this file hashed less, so it no longer
compares.  To compare against an older commit, copy this file into a
checkout of that commit and run it there: it reads the src and perfbench
of the checkout it lies in.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CERT_TOL = 1e-6
TRACE_ARRAYS = ("objectives", "rel_decreases", "denominators", "step_norms")
COUNTERS = ("polish", "supports", "rejected")


def digest(trace) -> str:
    import numpy as np

    h = hashlib.sha1(np.asarray(trace.x, dtype=float).tobytes())
    for name in TRACE_ARRAYS:
        values = np.asarray(getattr(trace, name), dtype=float)
        h.update(f"{name}:{values.size};".encode())
        h.update(values.tobytes())
    h.update(f"working_sets:{len(trace.working_sets)};".encode())
    for ws in trace.working_sets:
        ws = np.asarray(ws, dtype=np.int64)
        h.update(f"{ws.size};".encode())
        h.update(ws.tobytes())
    for name in COUNTERS:
        value = getattr(trace, name)
        if dataclasses.is_dataclass(value):
            value = dataclasses.astuple(value)
        h.update(f"{name}:{value!r};".encode())
    return h.hexdigest()


def fingerprint(name: str, seed: int):
    """Yield one output line per instance of workload name at seed."""
    import numpy as np
    import workloads
    from sgevp.decomposition import certify_block2_stationary, solve
    from sgevp.errors import SgevpError

    for inst in workloads.build(name, seed):
        try:
            trace = solve(inst.problem, inst.config)
        except SgevpError as error:
            yield f"{name} {seed} {inst.label!r} solve-error - - - {type(error).__name__} -"
            continue
        try:
            cert = str(certify_block2_stationary(inst.problem, trace.x, tol=CERT_TOL))
        except SgevpError as error:
            cert = type(error).__name__
        support = ",".join(str(i) for i in np.flatnonzero(trace.x))
        yield (
            f"{name} {seed} {inst.label!r} {digest(trace)} {trace.iterations} {support} "
            f"{trace.final_objective!r} {trace.reason} {cert}"
        )


def instance(line: str) -> tuple[str, ...]:
    """(workload, seed, label) of an output line."""
    return tuple(line.rsplit(" ", 6)[0].split(" ", 2))


def path(line: str) -> tuple[str, ...]:
    """(steps, support, stop reason, certificate) of an output line."""
    _, steps, support, _, reason, cert = line.rsplit(" ", 6)[1:]
    return steps, support, reason, cert


def relative_change(line: str, saved: str) -> float:
    """|f - f_saved| / max(|f|, |f_saved|) of two lines' final objectives."""
    f, f_saved = float(line.rsplit(" ", 3)[1]), float(saved.rsplit(" ", 3)[1])
    return 0.0 if f == f_saved else abs(f - f_saved) / max(abs(f), abs(f_saved))


def compare(lines, saved) -> int:
    """Print, per workload of lines, how many instances differ from the
    saved lines of the same workloads and seeds, how many of those took the
    same path and how far their objectives moved, and which differ; 1 if
    any does."""
    run = {instance(line): line for line in lines}
    seeds = {key[:2] for key in run}
    old = {instance(line): line for line in saved if instance(line)[:2] in seeds}
    keys = list(dict.fromkeys([*run, *old]))
    differ = 0
    for name in dict.fromkeys(key[0] for key in run):
        mine = [key for key in keys if key[0] == name]
        diff = [key for key in mine if run.get(key) != old.get(key)]
        print(f"{name}: {len(diff)} of {len(mine)} instances differ")
        kept = [key for key in diff if key in run and key in old and path(run[key]) == path(old[key])]
        if diff:
            change = max((relative_change(run[key], old[key]) for key in kept), default=None)
            print(
                f"  {len(kept)} of {len(diff)} keep steps, support, stop reason and certificate"
                + ("" if change is None else f"; largest relative objective change {change:.2g}")
            )
        for key in diff:
            print("  " + " ".join(key[1:]))
        differ += len(diff)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="fingerprint seeds 0..N-1 (default 20)")
    parser.add_argument(
        "--workload", action="append",
        help="a workload of perfbench/workloads.py; repeat for several (default: all)",
    )
    parser.add_argument(
        "--compare", metavar="FILE", type=Path,
        help="diff the run against a saved output instead of printing it; exit 1 if any instance differs",
    )
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    saved = None
    if args.compare is not None:
        try:
            saved = args.compare.read_text().splitlines()
        except OSError as error:
            parser.error(f"--compare: {error}")
    lines = (line for name in names for seed in range(args.seeds) for line in fingerprint(name, seed))
    if saved is not None:
        return compare(lines, saved)
    for line in lines:
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
