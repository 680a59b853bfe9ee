"""The benchmark's tracer still runs on the package's types.

perfbench/tracer.py wraps every public kcycle function and patches
QMatrix.mul and the Subspace.span classmethod by name.  A change to
those types that breaks a traced run should fail here, not only in a
benchmark run.  The tracer file is loaded read-only from perfbench/.
"""

import contextlib
import importlib.util
import io
import pkgutil
from pathlib import Path

import kcycle
from kcycle import cli, exactla

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clear_package_caches():
    """Empty every lru_cache in the package, as a fresh process has them.

    Whether the traced runs make a rank call must not depend on which
    tests ran before: with warm caches, orbits' base points and their
    rank self-checks are not built again.
    """
    for info in pkgutil.iter_modules(kcycle.__path__):
        for obj in vars(importlib.import_module(f"kcycle.{info.name}")).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def test_traced_verify_counts_ranks_and_restores_patches():
    _clear_package_caches()
    originals = {"mul": exactla.QMatrix.__dict__["mul"],
                 "span": exactla.Subspace.__dict__["span"],
                 "rank": exactla.rank, "main": cli.main}
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert exactla.QMatrix.__dict__["mul"] is not originals["mul"]
        for argv in (["verify", "--kind", "glpq", "--n", "5", "--k", "2", "--p", "3", "--q", "2",
                      "--trials", "5", "--seed", "5", "--format", "json"],
                     ["verify", "--kind", "so", "--n", "5", "--k", "2",
                      "--trials", "5", "--seed", "5", "--format", "json"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            assert '"ok": true' in out.getvalue()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["exactla.rank.calls"] > 0
    assert metrics["exactla.rank.cells"] > 0
    assert metrics["conormal.draw_covectors.calls"] > 0
    assert exactla.QMatrix.__dict__["mul"] is originals["mul"]
    assert exactla.Subspace.__dict__["span"] is originals["span"]
    assert exactla.rank is originals["rank"] and cli.main is originals["main"]
