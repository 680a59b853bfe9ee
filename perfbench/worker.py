"""One fresh interpreter of the kcycle benchmark.

Usage (``run.py`` starts it; it can also be run by hand from the repo root):

    python3 -I perfbench/worker.py setup
    python3 -I perfbench/worker.py selftest
    python3 -I perfbench/worker.py pass WORKLOAD SEED [--trace]

Right after ``kcycle.cli`` is imported the worker writes ``ready`` on
stdout, so the parent can time set-up.  ``pass`` then calls
``kcycle.cli.main(argv)`` on every invocation of the workload, back to
back with stdout captured, times the calibration probe (``probe.py``)
before each invocation and after the last, checks each document after
the timed spans, and writes one JSON line with the pass's figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import kcycle.cli  # noqa: E402  (the set-up being timed)

print("ready", flush=True)

import check  # noqa: E402
import workloads  # noqa: E402
from probe import probe  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_cli(argv) -> tuple:
    """(exit code, stdout text) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = kcycle.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed invocation, not a crashed pass
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def cpu_s() -> float:
    """User and system time of this process and its children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    invs = workloads.invocations(workload, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    outcomes, walls, cpus, probes = [], [], [], []
    for inv in invs:
        probes.append(probe())  # outside the timed span
        cpu0, wall0 = cpu_s(), time.perf_counter()
        outcomes.append(run_cli(inv.argv()))
        walls.append(time.perf_counter() - wall0)
        cpus.append(cpu_s() - cpu0)
    probes.append(probe())
    if tracer:
        tracer.uninstall()
    problems = []
    for inv, (code, text) in zip(invs, outcomes):
        found = check.problems(inv, code, text)
        if found:
            problems.append(" ".join(inv.argv()) + ": " + "; ".join(found))
    return {
        "walls": walls,
        "cpus": cpus,
        "probe_walls": [w for w, _ in probes],
        "probe_cpus": [c for _, c in probes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(invs),
        "failed": len(problems),
        "problems": problems[:5],
        "layers": tracer.metrics() if tracer else None,
    }


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        return 0
    if mode == "selftest":
        results = check.selftest(run_cli)
        print(json.dumps({"failed": [case for case, ok in results if not ok],
                          "cases": len(results)}))
        return 0
    if mode == "pass":
        print(json.dumps(run_pass(argv[1], int(argv[2]), "--trace" in argv[3:])))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
