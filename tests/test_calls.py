"""Every function and method of the package is called from the command line.

tests/test_imports.py reads reachability off names in the source, where
one call site counts as reached even if it never runs.  This gate runs
cli.main, as a user would, and records which of the package's code is
entered: every command in every format on every setup with n <= 6, cc
with --orbit, and test_cli's bad input.  A sys.setprofile hook sees
each call, not each line; the package's caches are emptied first, so a
cached function is entered as in a fresh process.

Only the code objects of module-level functions and of methods (their
getters and setters for a property) are judged, dunders aside: nested
functions and lambdas are not, and comprehensions are no code objects of
their own from Python 3.12 (PEP 709).  NEVER_CALLED gives the reason for
each function that no run calls and the open ROADMAP item that will
call or remove it; an entry that is called, or gone, fails.
"""

import contextlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

import kcycle
from kcycle import cli
from kcycle.orbits import enumerate_orbits, format_orbit

from reference import setups
from test_cli import BAD_INPUT, BAD_LABELS, OVERSIZED, VACUOUS
from test_tracer import _clear_package_caches

# Functions and methods that no command calls, each with the reason it
# stays and the ROADMAP item that will call or remove it.
_WITNESS = ("the witness path runs only for a member covector, and no honest draw is one; "
            "items 2(a) and 18 judge exact members")
_WITNESS_ONLY = "only the witness path calls it; items 2(a) and 18 run that path"
NEVER_CALLED = {
    "cli.parse_document": "the documented kcycle/1 reader, which no command reads with; "
                          "item 5's kcycle check calls it",
    "exactla.Subspace.span": "a placeholder the benchmark's tracer patches by name; "
                             "item 8 re-points that metric",
    "exactla.rref": "only the witness frames call it; item 23's normalization row, "
                    "and items 2(a) and 18, run it",
    "exactla.kernel": "only the witness frames call it; item 23's normalization row, "
                      "and items 2(a) and 18, run it",
    **dict.fromkeys(["resolutions._image_frame", "resolutions._kernel_frame",
                     "resolutions._frame_holds_image", "resolutions.witness_satisfies_Z",
                     "resolutions.witness_satisfies_Ztilde"], _WITNESS),
    **dict.fromkeys([f"exactla.QMatrix.{name}" for name in (
        "from_rows", "from_cols", "transpose", "mul", "hstack", "is_zero", "row", "col",
        "rows")], _WITNESS_ONLY),
}


def _functions() -> dict:
    """The package's module-level functions and non-dunder methods, by dotted name -> code."""
    out = {}
    for info in pkgutil.iter_modules(kcycle.__path__):
        module = importlib.import_module(f"kcycle.{info.name}")

        def own(func):
            # the code of a function the module defines; an lru_cache wrapper is unwrapped
            code = getattr(getattr(func, "__wrapped__", func), "__code__", None)
            return code if code and Path(code.co_filename) == Path(module.__file__) else None

        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    if isinstance(member, property):
                        parts = (member.fget, member.fset)
                    else:  # a function, staticmethod or classmethod
                        parts = (getattr(member, "__func__", member),)
                    for code in filter(None, map(own, parts)):
                        out[f"{info.name}.{name}.{attr}"] = code
            elif callable(obj) and getattr(obj, "__name__", None) == name:
                code = own(obj)
                if code and code.co_name == name:  # not a lambda bound to a name
                    out[f"{info.name}.{name}"] = code
    return out


def _runs() -> list:
    """Every command in every format on every setup with n <= 6, then the bad input."""
    runs = []
    for setup in setups(6):
        args = ["--kind", setup.kind.value, "--n", str(setup.n), "--k", str(setup.k)]
        if setup.p is not None:
            args += ["--p", str(setup.p), "--q", str(setup.q)]
        for command, formats in (("orbits", ("text", "json")), ("cc", ("text", "json")),
                                 ("poset", ("text", "json", "dot")),
                                 ("verify", ("text", "json"))):
            runs += [[command, *args, "--format", fmt] for fmt in formats]
        runs.append(["cc", *args, "--orbit", format_orbit(setup, enumerate_orbits(setup)[-1])])
    return runs + BAD_INPUT + VACUOUS + OVERSIZED + BAD_LABELS


def test_every_function_is_called_from_the_command_line():
    functions = _functions()
    assert {"cli.main", "exactla.rank", "orbits.Setup.describe",
            "orbits.Setup.dim_gr", "exactla.QMatrix.from_flat"} <= functions.keys()
    assert "orbits.OrbitLabel.__lt__" not in functions  # dunders are Python's to call
    assert "resolutions.rank" not in functions  # an imported function counts at home only
    runs = _runs()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    _clear_package_caches()
    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(hook)
        try:
            for argv in runs:
                codes.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    bad = len(BAD_INPUT + VACUOUS + OVERSIZED + BAD_LABELS)
    assert codes == [0] * (len(runs) - bad) + [2] * bad
    never = sorted(name for name, code in functions.items() if code not in called)
    unlisted = sorted(set(never) - NEVER_CALLED.keys())
    assert not unlisted, ("functions no command calls; run them, or move test-only code "
                          "to tests/reference.py: " + ", ".join(unlisted))
    stale = sorted(NEVER_CALLED.keys() - set(never))
    assert not stale, "allowlisted functions that are called or gone: " + ", ".join(stale)
