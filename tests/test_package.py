import ast
import os
import subprocess
import sys
from pathlib import Path

import igcsim

PACKAGE_DIR = Path(igcsim.__file__).resolve().parent


def test_all_names_resolve():
    missing = [name for name in igcsim.__all__ if not hasattr(igcsim, name)]
    assert missing == []
    assert len(set(igcsim.__all__)) == len(igcsim.__all__)


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports, by relative or absolute name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # from . / from .x
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("igcsim."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[1] for a in node.names
                            if a.name.startswith("igcsim."))
    return imported


def test_only_sim_raises_guard_error():
    # One module decides the flight envelope; the state records do not check.
    raising = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(raised).split(".")[-1] == "GuardError":
                    raising.add(path.name)
    assert raising == {"sim.py"}


def test_no_import_cycles():
    modules = {path.stem: path for path in PACKAGE_DIR.glob("*.py")}
    graph = {name: _package_imports(path) & modules.keys() for name, path in modules.items()}
    assert graph["analysis"] >= {"airframe", "engagement", "frames", "sim"}
    # Depth-first search: a module met again while still on the path closes a cycle.
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for imported in sorted(graph[name]):
            visit(imported)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_import_leaves_out_the_worker_pool():
    # The sweep imports its process pool when it first uses it, so the
    # start-up of `igcsim run` and of every other command does not pay for it.
    code = ("import sys, igcsim, igcsim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
