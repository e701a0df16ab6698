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


def test_import_sgevp_loads_neither_scipy_nor_the_cli():
    # `import sgevp` is most of a run's set-up time, and importing
    # scipy.linalg costs about as much as the rest of it, so the package
    # imports scipy only inside the function that needs it, and the CLI
    # (with its process pool) only when it is run.
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, sgevp; print(sorted(m for m in ('scipy', 'sgevp.cli') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
