"""The benchmark's tracer still runs on the package's types.

perfbench/tracer.py wraps every public kcycle function and patches
QMatrix.mul and the Subspace.span classmethod by name.  A change to
those types that breaks a traced run should fail here, not only in a
benchmark run.  The tracer file is loaded read-only from perfbench/,
and BENCHMARK.json's per-layer metrics must name functions the package
defines.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import kcycle
from kcycle import cli, exactla

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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
    assert metrics["resolutions.is_small.calls"] > 0
    assert metrics["degeneracy.transverse_points.calls"] > 0
    # verify's suite runners look their checks up by name, so the wrapped
    # checks run and BENCHMARK.json's ccengine.check_*.total_s are live
    for check in ("cc_agreement", "microlocal", "smallness", "transversality"):
        assert metrics[f"ccengine.check_{check}.calls"] > 0, check
    assert exactla.QMatrix.__dict__["mul"] is originals["mul"]
    assert exactla.Subspace.__dict__["span"] is originals["span"]
    assert exactla.rank is originals["rank"] and cli.main is originals["main"]


# Per-layer metrics whose function the package no longer defines, each
# with the reason it stays; they read 0 in every run.
DEAD_METRICS = dict.fromkeys([
    "orbits.tangent_vector.calls", "orbits.tangent_vector.self_s",
    "orbits.tangent_vector.total_s",
    "conormal.conormal_space.calls", "conormal.conormal_space.total_s",
    "conormal.conormal_space.distinct_ratio",
    "conormal.sample_conormal.calls", "conormal.sample_conormal.self_s",
    "conormal.sample_conormal.total_s",
    "resolutions.verify_microlocal_empty.calls", "resolutions.verify_microlocal_empty.self_s",
    "resolutions.verify_microlocal_empty.total_s",
    "degeneracy.section_value.calls", "degeneracy.section_value.self_s",
    "degeneracy.section_value.total_s",
    "degeneracy.verify_transversality.calls", "degeneracy.verify_transversality.total_s",
    "degeneracy.verify_transversality.degenerate_ratio",
    "degeneracy.pullback_cc.calls", "degeneracy.pullback_cc.self_s",
    "degeneracy.pullback_cc.total_s",
    "matrixstrata.trace_pairing.calls",
], "ROADMAP item 8 re-points it")
# Metric prefixes that name the harness, not the package: run.py's tracing overhead.
HARNESS = {"trace"}
MODULES = {info.name for info in pkgutil.iter_modules(kcycle.__path__)}


def _defines(dotted: str) -> bool:
    """Does the package define the function (module.name or module.Class.method)?

    A module-level function counts only in the module that defines it,
    which is the name the tracer records it under.
    """
    mod, _, path = dotted.partition(".")
    if mod not in MODULES:
        return False
    obj = importlib.import_module(f"kcycle.{mod}")
    for part in path.split("."):
        obj = getattr(obj, part, None)
    if "." not in path and getattr(obj, "__module__", None) != f"kcycle.{mod}":
        return False
    return callable(obj)


def test_per_layer_metrics_name_defined_functions():
    # a metric of a removed function reads 0 for ever, and nothing else
    # says that it died; a module's self time names the module alone
    assert _defines("exactla.rank") and _defines("exactla.QMatrix.mul")  # the walk resolves
    assert not _defines("degeneracy.form_flavor")  # orbits defines it, degeneracy imports it
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    dead = []
    for name in names:
        named = name.rpartition(".")[0]
        if "." not in named:
            assert named in MODULES | HARNESS, name
        elif not _defines(named):
            dead.append(name)
    unlisted = sorted(set(dead) - DEAD_METRICS.keys())
    assert not unlisted, ("per-layer metrics of functions the package does not define: "
                          + ", ".join(unlisted))
    stale = sorted(DEAD_METRICS.keys() - set(dead))
    assert not stale, "allowlisted metrics that are live or gone: " + ", ".join(stale)
