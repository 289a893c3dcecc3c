import ast
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
