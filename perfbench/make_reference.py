"""Regenerate reference.json: the final objective and support of every
instance of every workload, for seeds 0 .. N-1, from the current sources.

    python3 perfbench/make_reference.py --seeds 20

run.py compares each run against these values and prints the largest
relative objective deviation and the instances whose support changed.
Regenerate only in a change that redefines a workload, never in one that
claims a speed-up.
"""

import argparse
import json
import sys

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from sgevp import decomposition

    stored = {"commit": run.git_commit(), "workloads": {}}
    for name in workloads.WORKLOADS:
        per_seed = stored["workloads"][name] = {}
        for seed in range(args.seeds):
            per_seed[str(seed)] = [
                {
                    "label": inst.label,
                    "objective": trace.final_objective,
                    "support": np.flatnonzero(trace.x).tolist(),
                }
                for inst in workloads.build(name, seed)
                for trace in [decomposition.solve(inst.problem, inst.config)]
            ]
            print(name, seed, flush=True)
    run.REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main()
