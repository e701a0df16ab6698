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
in how many pairs the change read lower.  Then the verdict, per metric
that the change checkout's BENCHMARK.json gives a ``better`` direction:
each side's quartiles, the pairs the change won in that direction (ties
count for neither), whether the gap between the medians exceeds the
base's interquartile distance, and whether that is a gain: the change
won at least nine pairs in ten and its median lies beyond the base's by
more than that distance, in the better direction.  Last, the
no-regression verdict, per metric that BENCHMARK.json also gives a
``bound``: ``worse`` where the change's median is worse than the base's by
more than bound x |base median|; ``unresolved`` where the base's
interquartile distance exceeds that amount, unless every change run reads
better than every base run; ``ok`` otherwise.  Exit status 1 if a run
fails or reports a failed instance.
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


def end_to_end(checkout: Path, key: str) -> dict:
    """metric -> its entry's key, for the end-to-end metrics of checkout's
    BENCHMARK.json that have one; empty without the file."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    entries = json.loads(path.read_text())["end_to_end"]
    return {entry["name"]: entry[key] for entry in entries if key in entry}


def better_directions(checkout: Path) -> dict[str, str]:
    """metric -> "lower" or "higher", the end-to-end metrics' better
    direction in checkout's BENCHMARK.json; empty without one."""
    return end_to_end(checkout, "better")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(results: list[dict], better: dict[str, str]) -> list[tuple]:
    """Per metric of the first pair with a direction in better, in its
    order: (name, direction, base quartiles, change quartiles, pairs the
    change won, whether |median gap| exceeds the base's interquartile
    distance, whether that is a gain)."""
    rows = []
    for name in metrics(results[0]["base"]):
        if name not in better:
            continue
        base = [metrics(pair["base"])[name] for pair in results]
        change = [metrics(pair["change"])[name] for pair in results]
        sign = 1.0 if better[name] == "lower" else -1.0
        won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        q_base, q_change = quartiles(base), quartiles(change)
        spread, gap = q_base[2] - q_base[0], sign * (q_base[1] - q_change[1])
        gain = 10 * won >= 9 * len(results) and gap > spread
        rows.append((name, better[name], q_base, q_change, won, abs(gap) > spread, gain))
    return rows


def regression(results: list[dict], better: dict[str, str], bound: dict[str, float]) -> list[tuple]:
    """Per metric of the first pair with a direction in better and a bound
    in bound, in its order: (name, bound, allowed = bound x |base median|,
    the base's interquartile distance, how far the change's median lies on
    the worse side of the base's, and "worse", "unresolved" or "ok")."""
    rows = []
    for name in metrics(results[0]["base"]):
        if name not in better or name not in bound:
            continue
        # In sign-flipped units lower is better.
        sign = 1.0 if better[name] == "lower" else -1.0
        base = [sign * metrics(pair["base"])[name] for pair in results]
        change = [sign * metrics(pair["change"])[name] for pair in results]
        q_base, q_change = quartiles(base), quartiles(change)
        allowed, spread = bound[name] * abs(q_base[1]), q_base[2] - q_base[0]
        worse_by = q_change[1] - q_base[1]
        if worse_by > allowed:
            state = "worse"
        elif spread > allowed and not max(change) < min(base):
            state = "unresolved"
        else:
            state = "ok"
        rows.append((name, bound[name], allowed, spread, worse_by, state))
    return rows


def report(
    results: list[dict], better: dict[str, str] | None = None, bound: dict[str, float] | None = None,
) -> list[str]:
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
    rows = verdict(results, better or {})
    if rows:
        lines.append(
            f"{'metric':<22} {'better':<6} {'base q1, median, q3':>32} "
            f"{'change q1, median, q3':>32}  won      gap > IQR  gain"
        )
    for name, direction, q_base, q_change, won, beyond, gain in rows:
        sides = " ".join(f"{', '.join(f'{q:.6g}' for q in side):>32}" for side in (q_base, q_change))
        lines.append(
            f"{name:<22} {direction:<6} {sides}  {f'{won} of {len(results)}':<8} "
            f"{'yes' if beyond else 'no':<10} {'yes' if gain else 'no'}"
        )
    rows = regression(results, better or {}, bound or {})
    if rows:
        lines.append(
            f"{'metric':<22} {'bound':>6} {'allowed':>12} {'base IQR':>12} {'worse by':>12}  no-regression"
        )
    for name, limit, allowed, spread, worse_by, state in rows:
        lines.append(f"{name:<22} {limit:>6.4g} {allowed:>12.6g} {spread:>12.6g} {worse_by:>12.6g}  {state}")
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
    bound = end_to_end(checkouts["change"], "bound")
    for line in report(results, better_directions(checkouts["change"]), bound):
        print(line)
    failed = sum(pair[side]["failed"] for pair in results for side in SIDES)
    if failed:
        print(f"error: {failed} failed instance(s)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
