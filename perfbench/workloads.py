"""The benchmark's workloads: which kcycle invocations one pass makes.

A pass is one fresh interpreter calling ``kcycle.cli.main(argv)`` on
every invocation of its workload, back to back.  The workload seed
reaches the program only as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Invocation:
    """One command line of a workload, with what it asked for."""

    command: str  # "orbits" or "verify"
    kind: str
    n: int
    k: int
    p: Optional[int] = None
    q: Optional[int] = None
    trials: Optional[int] = None
    seed: Optional[int] = None

    def argv(self) -> list:
        out = [self.command, "--kind", self.kind, "--n", str(self.n), "--k", str(self.k)]
        if self.p is not None:
            out += ["--p", str(self.p), "--q", str(self.q)]
        if self.command == "verify":
            out += ["--suite", "all", "--trials", str(self.trials), "--seed", str(self.seed)]
        return out + ["--format", "json"]


def _orbits_large(seed: int) -> list:
    # Runnable by hand but not listed in BENCHMARK.json: a third workload
    # would leave room for only ~30 s runs in an hour of benchmarking, too
    # short to average out host-speed drift on a shared machine.
    # verify-isotropy-sweep runs the same layers (tangent_vector,
    # QMatrix.mul).  so(16,8) is left out: about 29 s per invocation.
    # The seed is unused.
    return [Invocation("orbits", "so", 12, 6), Invocation("orbits", "sp", 12, 6)]


def _verify_glpq_sweep(seed: int) -> list:
    return [
        Invocation("verify", "glpq", n, k, p, n - p, trials=20, seed=seed)
        for n in range(2, 9)
        for k in range(1, n)
        for p in range(1, n)
    ]


def _verify_isotropy_sweep(seed: int) -> list:
    return [
        Invocation("verify", kind, n, k, trials=100, seed=seed)
        for kind in ("sp", "so")
        for n in range(2, 9)
        if kind == "so" or n % 2 == 0
        for k in range(1, n)
    ]


WORKLOADS = {
    "orbits-large": _orbits_large,
    "verify-glpq-sweep": _verify_glpq_sweep,
    "verify-isotropy-sweep": _verify_isotropy_sweep,
}


def invocations(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
