#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/pairs.py --base ../parent --change . --workload fda-cca --seed 1 --pairs 10
    python3 tools/pairs.py --base ../parent --change . --workload pca-large --seed 1 --pairs 4 --seconds 10

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once
in each checkout, each run in a fresh interpreter with the checkout as its
working directory, so each side benchmarks its own sources.  Pair i runs
the base first where i is even and the change first where i is odd, so a
drift of the machine's speed within a pair does not favour one side.  For
every pair it prints both sides' end-to-end metrics (the metrics of the
run's JSON line); then, per metric, each side's median over the pairs and
in how many pairs the change read lower.  Whether lower is better depends
on the metric (see BENCHMARK.json).  Exit status 1 if a run fails or
reports a failed instance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one perfbench/run.py run in checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(run, pairs: int) -> list[dict]:
    """pairs x {side: run(side)}, the base first in even pairs and the
    change first in odd ones."""
    results = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results.append({side: run(side) for side in order})
    return results


def metrics(result: dict) -> dict[str, float]:
    """name -> value of a run's JSON line."""
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(results: list[dict]) -> list[tuple[str, float, float, int]]:
    """Per metric of the first pair, in its order: (name, base median,
    change median, pairs in which the change read lower)."""
    rows = []
    for name in metrics(results[0]["base"]):
        base = [metrics(pair["base"])[name] for pair in results]
        change = [metrics(pair["change"])[name] for pair in results]
        lower = sum(c < b for b, c in zip(base, change))
        rows.append((name, statistics.median(base), statistics.median(change), lower))
    return rows


def report(results: list[dict]) -> list[str]:
    lines = []
    for i, pair in enumerate(results):
        first = "base" if i % 2 == 0 else "change"
        for side in SIDES:
            values = " ".join(f"{name}={value:.6g}" for name, value in metrics(pair[side]).items())
            lines.append(f"pair {i} {side:<6} {values}" + (" (ran first)" if side == first else ""))
    lines.append(f"{'metric':<22} {'base':>12} {'change':>12} {'change/base':>12}  change lower")
    for name, base, change, lower in summarize(results):
        ratio = change / base if base else float("nan")
        lines.append(f"{name:<22} {base:>12.6g} {change:>12.6g} {ratio:>12.4f}  {lower} of {len(results)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="run.py's --seconds per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side}: no perfbench/run.py under {getattr(args, side)}")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    try:
        results = run_pairs(
            lambda side: run_benchmark(checkouts[side], args.workload, args.seed, args.seconds),
            args.pairs,
        )
    except subprocess.CalledProcessError as error:
        print(f"error: a benchmark run failed:\n{error.stderr}", file=sys.stderr)
        return 1
    for line in report(results):
        print(line)
    failed = sum(pair[side]["failed"] for pair in results for side in SIDES)
    if failed:
        print(f"error: {failed} failed instance(s)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
