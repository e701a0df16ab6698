"""The package's internal import graph has no cycle.

Edges come from the AST of every module under src/sgevp, function-local
imports included, so a cycle cannot hide inside a function body.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sgevp

PACKAGE = Path(sgevp.__file__).parent


def import_graph() -> dict[str, set[str]]:
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {name: set() for name in modules}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .module import names
                    targets = {node.module.split(".")[0]}
                else:  # from . import module, ...
                    targets = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sgevp"):
                parts = node.module.split(".")
                targets = {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                targets = {
                    alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("sgevp.")
                }
            else:
                continue
            graph[name] |= (targets & modules) - {name}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle as a list of modules (first == last), or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        state[node] = 2
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_import_graph_sees_function_local_imports():
    graph = import_graph()
    assert "qfp" in graph["subproblem"]
    assert "decomposition" in graph["cli"]  # from . import ..., decomposition, ...
    assert find_cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]


def test_package_imports_are_acyclic():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def test_fractional1d_is_a_leaf():
    # The 1-D kernels are shared by working_set, qfp, subproblem and
    # decomposition, so they import nothing from the package but errors.
    assert import_graph()["fractional1d"] == {"errors"}


def private_imports(sources: dict[str, str]) -> list[str]:
    """'module: name from target' for every underscore-prefixed name that a
    module (name -> source) imports from the package."""
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level != 1 and not (node.module or "").startswith("sgevp"):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{name}: {alias.name} from {node.module}")
    return found


def test_no_module_imports_a_private_name():
    # Private helpers (subproblem's ranking bounds, qfp._whiten) stay in
    # the module that defines them, so each rule has one home.
    sample = {"a": "def f():\n    from .qfp import _whiten, solve_bisection\n"}
    assert private_imports(sample) == ["a: _whiten from qfp"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert private_imports(sources) == []


# Names imported but not read in the module, because perfbench/tracer.py
# wraps them there by attribute name.
TRACED_IMPORTS = {"decomposition: solve_1d", "decomposition: swap_descent"}


def unused_imports(sources: dict[str, str]) -> list[str]:
    """'module: name' for every name a module (name -> source) imports and
    never reads; a name listed in the module's __all__ counts as read."""
    found = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        imported = []
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        found += [f"{name}: {alias}" for alias in imported if alias not in used]
    return found


def test_every_imported_name_is_used():
    sample = {"a": "import os, numpy as np\nfrom .qfp import pencil_keys as keys, solve\n"
                   "__all__ = ['solve']\nnp.eye(2)\n"}
    assert unused_imports(sample) == ["a: os", "a: keys"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert set(unused_imports(sources)) == TRACED_IMPORTS


def scipy_imports(sources: dict[str, str]) -> list[str]:
    """'module: name' for every import of scipy or a scipy submodule in a
    module (name -> source), function-local imports included."""
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{name}: {target}" for target in names if target.split(".")[0] == "scipy"]
    return found


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy serves the tests and the
    # benchmark as a dense oracle.
    sample = {"a": "import numpy\ndef f():\n    import scipy.linalg\n    from scipy import sparse\n"}
    assert scipy_imports(sample) == ["a: scipy.linalg", "a: scipy"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert scipy_imports(sources) == []


def test_import_sgevp_loads_neither_scipy_nor_the_cli():
    # `import sgevp` is most of a run's set-up time, so the package loads
    # neither scipy, which it does not use, nor the CLI (with its process
    # pool), which loads only when it is run.  The two solves reach
    # coordinate descent's start at a vanishing denominator: their first
    # block covers every coordinate (k = n, so x_N = 0), one with
    # lower_bound = 0 and one with the coordinate-descent subsolver.
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = """
import sys
import numpy as np
import sgevp
G = np.random.default_rng(0).standard_normal((6, 6))
A, C = -(G @ G.T) / 6, G.T @ G / 6 + np.eye(6)
for bound, subsolver in ((0.0, "bisection"), (None, "coordinate-descent")):
    problem = sgevp.ProblemInstance(A=A, C=C, s=3, lower_bound=bound)
    config = sgevp.DecompositionConfig(k=6, random_count=4, swap_count=2, subsolver=subsolver,
                                       max_iters=2)
    sgevp.solve(problem, config)
print(sorted(m for m in ("scipy", "sgevp.cli") if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
