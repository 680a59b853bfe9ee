"""Run one workload of the kcycle benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory.
One client runs one worker interpreter at a time (a closed loop).  Each
pass is a fresh interpreter that makes every invocation of the workload
(see ``workloads.py``); passes go on while at least half of another
one fits in ``--seconds``.  Every document is checked (see
``check.py``), and the checker's self-test runs once per run.

With ``--trace 0`` the last stdout line reports the ``end_to_end``
metrics of ``BENCHMARK.json``.  Times are calibrated (see ``probe.py``):
``wall_cal_s`` and ``cpu_cal_s`` are, per pass, the sum over its
invocations scaled by the probe times taken between them, and the
median over the passes; ``setup_s`` is the median over every
interpreter started, scaled by probe times taken just before each;
``peak_rss_mb`` is the median over the passes.  With ``--trace 1`` one
more pass runs under the tracer (see ``tracer.py``) and the line
reports the ``per_layer`` metrics instead.  The lines before it print
every metric by name and unit, the raw (uncalibrated) times, the run
metadata, and ``host.ref_s``: a longer ``fractions.Fraction`` loop
timed at the start and the end of the run, a gauge of host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from probe import PROBE_REF_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # set-up-only interpreters before each pass
RUN_BUDGET_S = 170  # every worker must end within this much of the run's start


class BenchError(Exception):
    pass


def host_ref_s() -> float:
    """Seconds for a fixed ``Fraction`` loop that runs no kcycle code."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 30001):
        acc = (acc + Fraction(i % 97, i % 89 + 1)) % 1
    return time.perf_counter() - start


def commit():
    """The checked-out commit, when the root is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(deadline: float, *args) -> tuple:
    """Run one worker; (seconds until it was ready, its last stdout line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran out of time")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def per_invocation_median(passes, key: str) -> float:
    """Sum over the workload's invocations of each one's median across passes.

    The host's speed shifts for seconds at a time; a median per
    invocation keeps such a shift inside one pass out of the figure.
    """
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def calibrated(times, probes) -> float:
    """Sum of ``times`` in seconds of a host on which the probe takes PROBE_REF_S."""
    return sum(times) * PROBE_REF_S / statistics.fmean(probes)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    spawn(deadline, "setup")  # the first import in a checkout byte-compiles
    setups, setup_probes, passes = [], [], []

    def start(*args) -> str:
        """Spawn one worker, recording its set-up and a probe just before it."""
        setup_probes.append(probe()[0])
        setup_s, line = spawn(deadline, *args)
        setups.append(setup_s)
        return line

    selftest = json.loads(start("selftest"))
    begin = time.perf_counter()
    while True:
        # set-up probes spread over the run see the same host speeds as the passes
        for _ in range(SETUP_PROBES):
            start("setup")
        passes.append(json.loads(start("pass", workload, str(seed))))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break  # less than half of another pass would fit
    traced = None
    if trace:
        traced = json.loads(spawn(deadline, "pass", workload, str(seed), "--trace")[1])
    wall = per_invocation_median(passes, "walls")
    end_to_end = {
        "wall_cal_s": statistics.median(calibrated(p["walls"], p["probe_walls"]) for p in passes),
        "cpu_cal_s": statistics.median(calibrated(p["cpus"], p["probe_cpus"]) for p in passes),
        "setup_s": statistics.median(setups) * PROBE_REF_S / statistics.fmean(setup_probes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {
        "wall_s": wall,
        "cpu_s": per_invocation_median(passes, "cpus"),
        "setup_s": statistics.median(setups),
        "probe_ms": 1000 * statistics.fmean(t for p in passes for t in p["probe_walls"]),
    }
    per_layer = None
    if traced:
        per_layer = dict(traced["layers"], **{"trace.overhead_s": sum(traced["walls"]) - wall})
    worked = passes + ([traced] if traced else [])
    return {
        "passes": passes,
        "setups": setups,
        "selftest": selftest,
        "attempted": sum(p["attempted"] for p in worked),
        "failed": sum(p["failed"] for p in worked),
        "problems": [msg for p in worked for msg in p["problems"]],
        "end_to_end": end_to_end,
        "raw": raw,
        "per_layer": per_layer,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "kcycle", "cli.py")):
            raise BenchError(f"no kcycle sources under {ROOT}/src")
        ref_start = host_ref_s()
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        ref_end = host_ref_s()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    found = res["per_layer"] if args.trace else res["end_to_end"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    missing = [m["name"] for m in declared if m["name"] not in found]
    selftest_failed = res["selftest"]["failed"]
    walls = ", ".join(f"{sum(p['walls']):.3f}/{calibrated(p['walls'], p['probe_walls']):.3f}"
                      for p in res["passes"])
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(res['passes'])} passes of one client, closed loop; "
          f"raw/calibrated wall per pass [{walls}] s")
    print(f"# commit {commit()}, python {platform.python_version()} "
          f"({platform.python_implementation()}), nproc {os.cpu_count()}, "
          f"setup samples {len(res['setups'])}")
    print(f"# host.ref_s {ref_start:.4f} s at start, {ref_end:.4f} s at end "
          "(host-speed diagnostic)")
    print("# raw, not calibrated: " + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    print(f"# output check: {res['failed']} of {res['attempted']} invocations failed "
          f"(ops_failed {res['failed'] / res['attempted']:.4f}); "
          f"self-test {res['selftest']['cases'] - len(selftest_failed)}"
          f" of {res['selftest']['cases']} cases ok")
    for msg in res["problems"] + [f"self-test: {case}" for case in selftest_failed]:
        print(f"# FAILED {msg}")
    if missing:
        print(f"# not measured, reported as 0: {', '.join(missing)}")
    if args.trace:
        for name, value in sorted(found.items()):
            if value and name not in metrics:
                print(f"#   {name} {value:.6g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0 and not selftest_failed,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
