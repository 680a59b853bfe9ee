"""Output check: does a kcycle invocation's document hold up?

The check tests invariants derived here from closed forms, never byte
digests, so output that only gains rows or fields still passes, while
output that drops checks or rows fails.  An invocation fails when

* its exit code is not 0;
* its document does not parse or lacks a ``kcycle/`` schema tag;
* it echoes another command, setup, trials or seed than requested;
* any check row is not ``ok``;
* it misses a row family or a row: one ``cc-agreement`` row per orbit
  (sp/so), one ``microlocal-empty`` row per ordered closure pair
  (glpq), one ``transversality`` row per chart (2 for so at n = 2k);
* an orbit row breaks dim + codim = k(n-k), or its codimension differs
  from s(q-k+s)+t(p-k+t) (glpq), i(i-1)/2 (sp) or i(i+1)/2 (so).

Run as a script, this file runs the self-test: real documents must
pass, and each corruption of one must be counted as a failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

from workloads import Invocation


def expected_orbits(inv) -> dict:
    """Orbit label -> codimension, from the closed forms."""
    n, k = inv.n, inv.k
    if inv.kind == "glpq":
        p, q = inv.p, inv.q
        return {
            f"q({s},{t})": s * (q - k + s) + t * (p - k + t)
            for s in range(k + 1)
            for t in range(k - s + 1)
            if k - t <= p and k - s <= q
        }
    top = min(k, n - k)
    if inv.kind == "sp":
        return {f"rad{i}": i * (i - 1) // 2 for i in range(k % 2, top + 1, 2)}
    out = {f"rad{i}": i * (i + 1) // 2 for i in range(top + 1)}
    if n == 2 * k:
        del out[f"rad{k}"]
        for sign in "+-":
            out[f"rad{k}{sign}"] = k * (k + 1) // 2
    return out


def _closure_pairs(inv) -> list:
    """Subjects target<-stratum with the stratum strictly below the target."""
    labels = [tuple(int(x) for x in lab[2:-1].split(",")) for lab in expected_orbits(inv)]
    return sorted(
        f"q({s},{t})<-q({s2},{t2})"
        for s, t in labels
        for s2, t2 in labels
        if (s2, t2) != (s, t) and s2 >= s and t2 >= t
    )


def _setup_echo(inv) -> dict:
    out = {"kind": inv.kind, "n": inv.n, "k": inv.k}
    if inv.kind == "glpq":
        out.update(p=inv.p, q=inv.q)
    return out


def _orbit_problems(inv, rows) -> list:
    want = expected_orbits(inv)
    got = {row.get("label"): row for row in rows}
    problems = []
    if sorted(got) != sorted(want) or len(rows) != len(want):
        problems.append(f"orbit labels {sorted(got)} != {sorted(want)}")
    dim_gr = inv.k * (inv.n - inv.k)
    for label, row in got.items():
        dim, codim = row.get("dimension"), row.get("codimension")
        if not (isinstance(dim, int) and isinstance(codim, int)) or dim + codim != dim_gr:
            problems.append(f"{label}: dim {dim} + codim {codim} != {dim_gr}")
        elif label in want and codim != want[label]:
            problems.append(f"{label}: codim {codim} != {want[label]}")
    return problems


def _family(rows, name) -> list:
    return sorted(r.get("subject") for r in rows if r.get("check") == name)


def _verify_problems(inv, doc) -> list:
    problems = []
    for key, want in (("suite", "all"), ("trials", inv.trials), ("seed", inv.seed)):
        if doc.get(key) != want:
            problems.append(f"echoed {key} {doc.get(key)!r} != {want!r}")
    rows = doc.get("checks")
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        return problems + ["no list of check rows"]
    problems += [
        f"{r.get('check')} {r.get('subject')} is not ok" for r in rows if r.get("ok") is not True
    ]
    if inv.kind == "glpq":
        want = {"microlocal-empty": _closure_pairs(inv)}
    else:
        charts = 2 if inv.kind == "so" and inv.n == 2 * inv.k else 1
        want = {"cc-agreement": sorted(expected_orbits(inv))}
        got = len(_family(rows, "transversality"))
        if got != charts:
            problems.append(f"{got} transversality rows, expected {charts}")
    for name, subjects in want.items():
        if _family(rows, name) != subjects:
            problems.append(f"{name} rows {_family(rows, name)} != {subjects}")
    return problems


def problems(inv, code, text: str) -> list:
    """Everything wrong with one invocation's outcome; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"document does not parse: {exc}"]
    if not isinstance(doc, dict) or not str(doc.get("schema_version", "")).startswith("kcycle/"):
        return ["no kcycle/ schema tag"]
    out = []
    if doc.get("command") != inv.command:
        out.append(f"command {doc.get('command')!r} != {inv.command!r}")
    if doc.get("setup") != _setup_echo(inv):
        out.append(f"setup {doc.get('setup')!r} != {_setup_echo(inv)!r}")
    if inv.command == "orbits":
        rows = doc.get("orbits")
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            return out + ["no list of orbit rows"]
        return out + _orbit_problems(inv, rows)
    return out + _verify_problems(inv, doc)


# ---------------------------------------------------------------------------
# self-test


def _flip_ok(doc):
    doc["checks"][0]["ok"] = False


def _drop_first_check(doc):
    doc["checks"].pop(0)


def _drop_last_check(doc):
    doc["checks"].pop()


def _wrong_seed(doc):
    doc["seed"] += 1


def _wrong_codim(doc):
    # keeps dim + codim = k(n-k), so only the closed form can catch it
    row = doc["orbits"][-1]
    row["codimension"] += 1
    row["dimension"] -= 1


def _drop_orbit(doc):
    doc["orbits"].pop()


def _foreign_tag(doc):
    doc["schema_version"] = "other/1"


def selftest(run) -> list:
    """(case, ok) pairs; ``run(argv)`` returns (exit code, stdout text).

    A case is ok when a real document passes the check, or when a
    corrupted copy of one is counted as a failure.
    """
    cases = [
        (Invocation("verify", "glpq", 4, 2, 2, 2, trials=3, seed=7),
         [_flip_ok, _drop_first_check, _wrong_seed, _foreign_tag]),
        (Invocation("verify", "so", 4, 2, trials=5, seed=3),
         [_flip_ok, _drop_first_check, _drop_last_check]),
        (Invocation("orbits", "sp", 6, 3), [_wrong_codim, _drop_orbit]),
        (Invocation("orbits", "so", 6, 3), [_wrong_codim, _drop_orbit]),
    ]
    out = []
    for inv, corruptions in cases:
        code, text = run(inv.argv())
        name = " ".join(inv.argv())
        out.append((f"{name}: real document passes", not problems(inv, code, text)))
        if code != 0:
            continue
        for corrupt in corruptions:
            doc = copy.deepcopy(json.loads(text))
            corrupt(doc)
            caught = bool(problems(inv, 0, json.dumps(doc)))
            out.append((f"{name}: {corrupt.__name__.lstrip('_')} is caught", caught))
        out.append((f"{name}: exit code 1 is caught", bool(problems(inv, 1, text))))
        out.append((f"{name}: garbage is caught", bool(problems(inv, 0, text[: len(text) // 2]))))
    return out


def _main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from kcycle import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    results = selftest(run)
    for case, ok in results:
        print(("ok    " if ok else "FAIL  ") + case)
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(_main())
