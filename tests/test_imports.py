"""The package's internal import graph has no cycles, and the package
imports nothing outside the standard library.

Every import of a kcycle module is counted, including imports inside
function bodies, since those hide a cycle from module load order but
not from the design.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kcycle"


def _internal_imports(path: Path) -> set:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                names = [alias.name for alias in node.names]  # from . import x
            elif node.level == 1:
                names = [node.module.split(".")[0]]  # from .x import y
            elif node.module and node.module.startswith("kcycle."):
                names = [node.module.split(".")[1]]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("kcycle.")]
        else:
            continue
        found.update(n for n in names if n in modules and n != path.stem)
    return found


def test_import_graph_is_acyclic():
    graph = {p.stem: _internal_imports(p) for p in PACKAGE.glob("*.py")}
    assert graph["ccengine"] >= {"degeneracy", "orbits"}  # the walk sees imports
    done, active = set(), []

    def visit(mod):
        if mod in active:
            cycle = active[active.index(mod):] + [mod]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if mod in done:
            return
        active.append(mod)
        for dep in sorted(graph[mod]):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


def test_no_runtime_dependencies():
    # absolute imports only; relative ones stay inside the package
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.stem, node.module))
            elif isinstance(node, ast.Import):
                found.update((path.stem, alias.name) for alias in node.names)
    assert ("exactla", "fractions") in found  # the walk sees imports
    outside = sorted(f"{mod}: {name}" for mod, name in found
                     if name.split(".")[0] not in sys.stdlib_module_names | {"kcycle"})
    assert not outside, "imports outside the standard library: " + ", ".join(outside)
