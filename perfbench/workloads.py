"""Workloads of the sgevp benchmark.

A workload turns a seed into a list of instances: a ProblemInstance built
through ``sgevp.problems`` plus the DecompositionConfig it is solved with.
The solver only ever sees the generated matrices.  Each workload draws
several independent datasets, draw i using data seed 1000 * seed + i.

Two choices keep the work of a run nearly independent of the seed, so that
timings from different seeds are comparable:

* Every instance runs on a fixed iteration budget (``max_iters``) that ends
  before the default stopping rule (epsilon = 1e-5 averaged over a window
  of 50) can fire.  Run to tolerance, the iteration count depends on the
  data: on 300x100 PCA it ranged from 53 to 181 over eight seeds, and the
  solve time of one draw's instances from 6.9 s to 16.9 s.  Polish (drive
  to block-2 stationarity) still runs after the budget, as it does after
  the stopping rule.
* A run sums over several draws, which averages out what the budget leaves
  (how many supports each block enumerates, how many polish moves remain).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class Instance:
    label: str
    problem: object  # sgevp.ProblemInstance
    config: object  # sgevp.DecompositionConfig


def _draws(seed: int, count: int, m: int, d: int):
    from sgevp import problems

    return [(i, problems.gen_randn(m, d, 1000 * seed + i)) for i in range(count)]


def _variants(base, label, s_values, config):
    return [
        Instance(f"{label} s={s}", dataclasses.replace(base, s=s), config)
        for s in s_values
    ]


def pca_enum(seed: int, tiny: bool = False) -> list[Instance]:
    """Support enumeration: default k = 12 with bisection, s in {6, 12}."""
    from sgevp import DecompositionConfig, problems

    draws, m, d, iters = (1, 40, 20, 3) if tiny else (4, 300, 100, 8)
    config = DecompositionConfig(max_iters=iters)
    out = []
    for i, data in _draws(seed, draws, m, d):
        out += _variants(problems.build_pca(data), f"pca#{i}", (3, 6) if tiny else (6, 12), config)
    return out


def pca_large(seed: int, tiny: bool = False) -> list[Instance]:
    """O(n^2)-per-pair swap scoring in polish and certificates at n = 400."""
    from sgevp import DecompositionConfig, problems

    draws, m, d, iters = (1, 60, 30, 3) if tiny else (3, 800, 400, 10)
    config = DecompositionConfig(max_iters=iters)
    out = []
    for i, data in _draws(seed, draws, m, d):
        out += _variants(problems.build_pca(data), f"pca#{i}", (2, 4), config)
    return out


def fda_cca(seed: int, tiny: bool = False) -> list[Instance]:
    """Non-identity C and rank-one (FDA) or bipartite (CCA) A, s = 8."""
    from sgevp import DecompositionConfig, problems

    draws, m, d, s, iters = (1, 40, 20, 4, 3) if tiny else (4, 300, 100, 8, 6)
    config = DecompositionConfig(max_iters=iters)
    out = []
    for i, data in _draws(seed, draws, m, d):
        fda = problems.build_fda(data)
        cca = problems.build_cca(data.X[data.y > 0], data.X[data.y <= 0])
        out += _variants(fda, f"fda#{i}", (s,), config) + _variants(cca, f"cca#{i}", (s,), config)
    return out


def pca_bounded(seed: int, tiny: bool = False) -> list[Instance]:
    """lower_bound = 0: every support goes to coordinate descent."""
    from sgevp import DecompositionConfig, problems

    draws, m, d, s_values, iters = (1, 40, 20, (2, 4), 3) if tiny else (10, 150, 50, (4, 12), 5)
    config = DecompositionConfig(k=8, random_count=4, swap_count=4, max_iters=iters)
    out = []
    for i, data in _draws(seed, draws, m, d):
        base = dataclasses.replace(problems.build_pca(data), lower_bound=0.0)
        out += _variants(base, f"pca-lb0#{i}", s_values, config)
    return out


WORKLOADS = {
    "pca-enum": pca_enum,
    "pca-large": pca_large,
    "fda-cca": fda_cca,
    "pca-bounded": pca_bounded,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Instance]:
    return WORKLOADS[name](seed, tiny)
