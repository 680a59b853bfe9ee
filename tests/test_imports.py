"""The package's internal import graph has no cycles, the package
imports nothing outside the standard library, every module-level
definition and method in it is reached from an entry point, every field of its
NamedTuple records is read in it, only outside input is a checked
record, no module but orbits branches on the setup kind, no module but
cli writes output text, and a kcycle process loads none of dataclasses,
inspect, fractions and decimal.

Every import of a kcycle module is counted, including imports inside
function bodies, since those hide a cycle from module load order but
not from the design.  Reachability is read off names in the source, so
a definition or method that only the tests reach fails the gate: it
belongs in tests/reference.py.  A method of a reached class is reached
once reached code reads an attribute of its name; UNREACHED gives the
reason for each definition or method that stays unreached.  A field is
read when some attribute access in the package has its name;
UNREAD_FIELDS gives the reason for each field that is not.
"""

import ast
import subprocess
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
    assert ("exactla", "zlib") in found  # the walk sees imports
    outside = sorted(f"{mod}: {name}" for mod, name in found
                     if name.split(".")[0] not in sys.stdlib_module_names | {"kcycle"})
    assert not outside, "imports outside the standard library: " + ", ".join(outside)


# The package's entry points: the CLI, the documented kcycle/1 reader and
# the version.  The library's checks are the ones verify runs.
ROOTS = [("cli", "main"), ("cli", "parse_document"), ("__init__", "__version__")]


def _definitions(tree: ast.Module) -> dict:
    """Module-level functions, classes and constants, by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _bindings(tree: ast.Module) -> dict:
    """Local name -> (module, name) for each kcycle import; name None for a module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            out.update((a.asname or a.name, (a.name, None)) for a in node.names)
        elif node.level == 1 or (node.module or "").startswith("kcycle."):
            mod = node.module.split(".")[-1]
            if mod in modules:
                out.update((a.asname or a.name, (mod, a.name)) for a in node.names)
    return out


# Definitions and methods that no entry point reaches, each with the
# reason it stays.
UNREACHED = {
    "exactla.Subspace": "a placeholder whose span the benchmark's tracer (perfbench/tracer.py) "
                        "patches by name; the subspace type is tests/reference.py's",
}


def _reachable() -> tuple:
    """(every definition, every method, those reached from ROOTS), as dotted names.

    A reached class brings in its bases, decorators, class-level
    statements and dunder methods.  Any other method is reached once
    reached code reads an attribute of its name, on any object, so the
    walk errs towards reached.
    """
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    binds = {mod: _bindings(tree) for mod, tree in trees.items()}
    # each class's methods by name, dunders left out: Python calls those itself
    methods = {(mod, name): {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)
                             and not (f.name.startswith("__") and f.name.endswith("__"))}
               for mod, d in defs.items() for name, node in d.items()
               if isinstance(node, ast.ClassDef)}
    attrs = set()  # every attribute name that reached code reads

    def resolve(mod, name):
        # follow imports by name, so a re-exported definition is found at home
        while name not in defs[mod]:
            if name not in binds[mod] or binds[mod][name][1] is None:
                return None
            mod, name = binds[mod][name]
        return mod, name

    def refs(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    home, name = binds[mod].get(sub.value.id, (None, ""))
                    if name is None:  # module.attr
                        yield resolve(home, sub.attr)

    def parts(key):
        """The nodes that a reached definition or method brings in."""
        mod, name, *method = key
        if method:
            return [methods[mod, name][method[0]]]
        node = defs[mod][name]
        if not isinstance(node, ast.ClassDef):
            return [node]
        own = list(methods[mod, name].values())
        return [*node.bases, *node.decorator_list, *(s for s in node.body if s not in own)]

    seen, todo = set(), list(ROOTS)
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            for node in parts(key):
                todo.extend(refs(key[0], node))
        if not todo:  # the methods of reached classes whose names reached code reads
            todo = [(mod, cls, name) for (mod, cls), own in methods.items() if (mod, cls) in seen
                    for name in own if name in attrs and (mod, cls, name) not in seen]
    every = {f"{mod}.{name}" for mod, d in defs.items() for name in d}
    every_method = {f"{mod}.{cls}.{name}" for (mod, cls), own in methods.items() for name in own}
    return every, every_method, {".".join(key) for key in seen}


def test_every_definition_is_reached_from_an_entry_point():
    every, every_method, reached = _reachable()
    assert {f"{mod}.{name}" for mod, name in ROOTS} <= every  # each root is a definition
    assert "exactla.rank" in reached  # the walk follows imports
    assert "degeneracy.transverse_points" in reached  # and module.attr
    assert {"exactla.QMatrix.mul", "orbits.Setup.describe"} <= reached  # and methods by name
    assert "exactla.QMatrix.__getitem__" not in every_method  # dunders are Python's to call
    # a method is judged once its class is reached; an unreached class is reported alone
    live = {name for name in every_method if name.rpartition(".")[0] in reached}
    unreached = sorted((every | live) - reached - UNREACHED.keys())
    assert not unreached, ("definitions and methods no entry point reaches; move test-only "
                           "code to tests/reference.py: " + ", ".join(unreached))
    stale = sorted(name for name in UNREACHED
                   if name in reached or name not in every | every_method)
    assert not stale, "allowlisted names that are reached or gone: " + ", ".join(stale)


# Record fields that no package code reads, each with the reason it stays.
UNREAD_FIELDS = {
    "ConormalVector.retries": "the draw's resample count, which the sampler tests read",
}


def test_every_record_field_is_read():
    fields, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        bases = {c.name: ({b.id for b in c.bases if isinstance(b, ast.Name)}, c.body)
                 for c in tree.body if isinstance(c, ast.ClassDef)}
        for name, (base, body) in bases.items():
            if "NamedTuple" in base:
                # a field class such as _SetupFields is named by its subclass, the record
                record = next((sub for sub, (b, _) in bases.items() if name in b), name)
                fields.update(f"{record}.{stmt.target.id}" for stmt in body
                              if isinstance(stmt, ast.AnnAssign))
    assert {"Setup.kind", "QMatrix.entries"} <= fields  # the walk sees records' fields
    unread = sorted(f for f in fields - UNREAD_FIELDS.keys() if f.split(".")[1] not in read)
    assert not unread, "record fields no package code reads: " + ", ".join(unread)
    stale = sorted(f for f in UNREAD_FIELDS if f not in fields or f.split(".")[1] in read)
    assert not stale, "allowlisted fields that are gone or read: " + ", ".join(stale)


# Package classes that run checks in __new__ on a NamedTuple, each with the
# reason it stays a checked record.  A value the package builds itself is
# checked by the one function that builds it.
CHECKED_RECORDS = {
    "Setup": "outside input: the CLI and library callers build it",
}


def _checked_records(tree: ast.Module) -> list:
    """Classes defining __new__ on a NamedTuple, directly or through a field class."""
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    bases = {name: {b.id for b in c.bases if isinstance(b, ast.Name)}
             for name, c in classes.items()}
    tuples = {"NamedTuple"} | {name for name, base in bases.items() if "NamedTuple" in base}
    return sorted(name for name, c in classes.items() if bases[name] & tuples and any(
        isinstance(f, ast.FunctionDef) and f.name == "__new__" for f in c.body))


def test_only_outside_input_is_a_checked_record():
    planted = ast.parse(
        "class _Fields(NamedTuple):\n"
        "    a: int\n"
        "class Checked(_Fields):\n"
        "    def __new__(cls, a):\n"
        "        return tuple.__new__(cls, (a,))\n"
        "class Direct(NamedTuple):\n"
        "    def __new__(cls, a): ...\n"
        "class Plain(NamedTuple):\n"
        "    a: int\n"
        "class Label:\n"
        "    def __new__(cls): ...\n")
    assert _checked_records(planted) == ["Checked", "Direct"]  # the walk sees both routes
    found = {name for path in PACKAGE.glob("*.py")
             for name in _checked_records(ast.parse(path.read_text()))}
    unlisted = sorted(found - CHECKED_RECORDS.keys())
    assert not unlisted, ("checked records the package builds itself; check the value in "
                          "the function that builds it: " + ", ".join(unlisted))
    stale = sorted(CHECKED_RECORDS.keys() - found)
    assert not stale, "allowlisted classes that are no checked record: " + ", ".join(stale)


def test_start_up_loads_no_dataclasses():
    # dataclasses imports inspect (with ast, dis and tokenize), which
    # nothing else a kcycle process runs needs; with decorating the
    # classes, that was about a quarter of start-up.  fractions imports
    # decimal, and with int entries only no kcycle code needs either.
    # The commands cover both kinds, both charts and the split labels.
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "unwanted = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "before = [m for m in unwanted if m in sys.modules]\n"
        "import kcycle.cli\n"
        "so84 = ['--kind', 'so', '--n', '8', '--k', '4']\n"
        "commands = [['verify', '--kind', 'glpq', '--n', '6', '--k', '3', '--p', '3', '--q', '3'],\n"
        "            ['verify', *so84], ['cc', *so84], ['poset', *so84, '--format', 'dot']]\n"
        "for argv in commands:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = kcycle.cli.main(argv)\n"
        "    print(argv[0], code, bool(out.getvalue()))\n"
        "print('before', before)\n"
        "print('after', [m for m in unwanted if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["verify 0 True", "verify 0 True", "cc 0 True",
                                        "poset 0 True", "before []", "after []"]


LABEL_CLASSES = {"OrbitLabel", "IntersectionOrbit", "RadicalOrbit"}


def _name(node) -> str:
    """The last name of a Name or dotted Attribute, else ''."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _kind_dispatch(tree: ast.Module) -> list:
    """(function, line, what) for each kind dispatch in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            if any(isinstance(sub, ast.Attribute) and _name(sub.value) == "Kind"
                   for sub in ast.walk(node)):
                found.append((func, node.lineno, "compares with a Kind member"))
        elif isinstance(node, ast.Call):
            if _name(node.func) == "is_split_setup":
                found.append((func, node.lineno, "calls is_split_setup"))
            elif _name(node.func) == "isinstance" and len(node.args) == 2:
                second = node.args[1]
                classes = second.elts if isinstance(second, ast.Tuple) else [second]
                if any(_name(c) in LABEL_CLASSES for c in classes):
                    found.append((func, node.lineno, "calls isinstance with an orbit label class"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_only_orbits_branches_on_the_kind():
    # the per-kind geometry is stated once, in the families of orbits; the
    # other modules read family(setup), so a new per-kind fact has one home
    assert _kind_dispatch(ast.parse("if s.kind == Kind.SO or isinstance(o, RadicalOrbit):\n"
                                    "    is_split_setup(s)\n")) == [
        ("<module>", 1, "compares with a Kind member"),
        ("<module>", 1, "calls isinstance with an orbit label class"),
        ("<module>", 2, "calls is_split_setup")]  # the walk sees all three
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func, line, what in _kind_dispatch(ast.parse(path.read_text())):
            # orbits may branch on the kind, but not on a label's class, which is its family's
            if path.stem != "orbits" or "isinstance" in what:
                found.append(f"{path.stem}.{func} line {line} {what}")
    assert not found, "kind dispatch outside orbits; read orbits.family: " + "; ".join(found)


# The only calls of format_orbit outside orbits and cli, by (module,
# function), each with the reason it stays.  Output text is cli's to write.
LABEL_TEXT = {
    ("resolutions", "draw_conormals"): "the stratum's label text is part of the draws' seed tag",
    ("ccengine", "_cycle_terms"): "a cycle's terms sort by label text",
}


def _text_writers(tree: ast.Module) -> list:
    """(function, line, what) for each label and row string written in a module.

    A function (or Class.method) writes a label when it calls
    format_orbit, and a row string when it builds a CheckRow and holds an
    f-string, a join or a format call outside its raise statements: an
    error message is not output.
    """
    scopes = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            scopes.append((getattr(node, "name", "<module>"), node))
    found = []
    for func, scope in scopes:
        calls = [n for n in ast.walk(scope) if isinstance(n, ast.Call)]
        found += [(func, c.lineno, "calls format_orbit") for c in calls
                  if _name(c.func) == "format_orbit"]
        if any(_name(c.func) == "CheckRow" for c in calls):
            raised = {id(n) for r in ast.walk(scope) if isinstance(r, ast.Raise)
                      for n in ast.walk(r)}
            text = [n for n in ast.walk(scope) if id(n) not in raised and (
                isinstance(n, ast.JoinedStr)
                or isinstance(n, ast.Call) and _name(n.func) in ("join", "format"))]
            found += [(func, n.lineno, "builds a row string") for n in text]
    return found


def test_only_cli_writes_output_text():
    # rows hold labels and numbers, and cli writes the kcycle/1 strings from
    # them, so a row's text has one writer
    planted = ast.parse(
        "def check(setup, o):\n"
        "    detail = f'{o} points'\n"
        "    if not o:\n"
        "        raise ValueError(f'no {o}')\n"
        "    return CheckRow('c', format_orbit(setup, o), True, '; '.join([detail]))\n"
        "class Cycle:\n"
        "    def text(self):\n"
        "        return '{}'.format(format_orbit(self.setup, self.target))\n")
    assert sorted(_text_writers(planted)) == [
        ("Cycle.text", 8, "calls format_orbit"), ("check", 2, "builds a row string"),
        ("check", 5, "builds a row string"), ("check", 5, "calls format_orbit")]  # the walk sees all
    found, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "cli":
            continue
        for func, line, what in _text_writers(ast.parse(path.read_text())):
            if what == "calls format_orbit" and path.stem == "orbits":
                continue
            if what == "calls format_orbit" and (path.stem, func) in LABEL_TEXT:
                used.add((path.stem, func))
            else:
                found.append(f"{path.stem}.{func} line {line} {what}")
    assert not found, "output text written outside cli; rows hold values: " + "; ".join(found)
    stale = sorted(f"{mod}.{func}" for mod, func in LABEL_TEXT.keys() - used)
    assert not stale, "allowlisted functions that write no label: " + ", ".join(stale)
