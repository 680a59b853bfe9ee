"""Command line front end.

Subcommands list orbits, print characteristic cycles, dump the closure
order, and run the verification suites.  Output goes to stdout (or
--out) as plain text, a stable JSON document, or GraphViz source for
the closure diagram.  JSON documents carry a schema version.  Every
format is byte-identical across runs with the same arguments and seed,
and tests/documents.txt pins each command in each of its formats.  Only
this module writes output text; check_entries writes verify's rows.

main builds its parser once per process, on the first call, and is
safe to call repeatedly: each call parses, computes and prints afresh.

Exit codes: 0 on success, 1 when a verify suite reports a failed check,
2 on bad input, a setup too large for memory or an unwritable --out
file, and 3 when the conormal sampler finds no generic covector within
its resample budget, which means a bug, not a failed check.  Codes 2
and 3 leave stdout empty; stderr gets argparse's usage message, or one
``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .ccengine import SUITES, characteristic_cycle, cross_check
from .conormal import NoGenericCovector
from .exactla import SEED_MAX
from .orbits import ClosurePoset, Kind, Setup, enumerate_orbits, format_orbit, parse_orbit

SCHEMA_VERSION = "kcycle/1"


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call.

    It depends only on module constants, and parse_args does not mutate
    it.  argparse reads sys.stdout, sys.stderr and the terminal width
    when it prints, not when it is built, so redirected streams and
    COLUMNS still apply to every call.
    """
    parser = argparse.ArgumentParser(
        prog="kcycle",
        description="orbit closures on Grassmannians and their characteristic cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the setup options, shared through parents=: each add_argument call
    # builds a formatter, which queries the terminal size
    setup_opts = argparse.ArgumentParser(add_help=False)
    setup_opts.add_argument("--kind", required=True, choices=[k.value for k in Kind])
    setup_opts.add_argument("--n", required=True, type=int)
    setup_opts.add_argument("--k", required=True, type=int)
    setup_opts.add_argument("--p", type=int)
    setup_opts.add_argument("--q", type=int)

    def command(name, summary, formats=("text", "json")):
        p = sub.add_parser(name, help=summary, parents=[setup_opts])
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE")
        return p

    command("orbits", "list the orbits with dimensions")
    cc = command("cc", "characteristic cycles of orbit closures")
    cc.add_argument("--orbit", metavar="LABEL",
                    help="only this orbit (default: all)")
    command("poset", "closure order and covers", formats=("text", "json", "dot"))
    verify = command("verify", "run verification suites")
    verify.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    verify.add_argument("--trials", type=_positive_int, default=20,
                        help="samples per check, at least 1 (default 20)")
    verify.add_argument("--seed", type=_seed, default=0,
                        help=f"sampling seed, 0 to {SEED_MAX} (default 0)")
    return parser


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = _int(text)
    if not 0 <= value <= SEED_MAX:
        raise argparse.ArgumentTypeError(f"must be between 0 and {SEED_MAX}, got {value}")
    return value


def _setup_from_args(args) -> Setup:
    kind = Kind(args.kind)
    if kind == Kind.GLPQ:
        if args.p is None or args.q is None:
            raise ValueError("glpq setups need --p and --q")
        return Setup(kind, args.n, args.k, p=args.p, q=args.q)
    if args.p is not None or args.q is not None:
        raise ValueError("--p/--q only apply to glpq setups")
    return Setup(kind, args.n, args.k)


def _setup_payload(setup: Setup) -> dict:
    payload = {"kind": setup.kind.value, "n": setup.n, "k": setup.k}
    if setup.p is not None:
        payload["p"] = setup.p
        payload["q"] = setup.q
    return payload


def _document(command: str, setup: Setup) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "setup": _setup_payload(setup),
    }


def _orbit_rows(poset: ClosurePoset) -> list:
    return [
        {
            "label": format_orbit(poset.setup, orbit),
            "dimension": poset.dimension[orbit],
            "codimension": poset.codim(orbit),
        }
        for orbit in poset.orbits
    ]


def cmd_orbits(setup: Setup) -> dict:
    doc = _document("orbits", setup)
    doc["orbits"] = _orbit_rows(ClosurePoset(setup))
    return doc


def cmd_cc(setup: Setup, orbit_label: str | None) -> dict:
    if orbit_label is None:
        orbits = enumerate_orbits(setup)
    else:
        orbits = [parse_orbit(setup, orbit_label)]
    doc = _document("cc", setup)
    doc["cycles"] = [
        {
            "target": format_orbit(setup, orbit),
            "terms": [
                {"orbit": format_orbit(setup, o), "multiplicity": m}
                for o, m in characteristic_cycle(setup, orbit)
            ],
        }
        for orbit in orbits
    ]
    return doc


def cmd_poset(setup: Setup) -> dict:
    poset = ClosurePoset(setup)
    doc = _document("poset", setup)
    doc["orbits"] = _orbit_rows(poset)
    doc["covers"] = [
        {"lower": format_orbit(setup, lo), "upper": format_orbit(setup, up)}
        for lo, up in poset.covers()
    ]
    return doc


def _cycle_text(terms) -> str:
    """A cycle's (label, multiplicity) terms as text: label or m*label, joined by ' + '."""
    return " + ".join([label if m == 1 else f"{m}*{label}" for label, m in terms])


def check_entries(setup: Setup, rows) -> list:
    """Check rows (see ccengine.CheckRow) as kcycle/1 entries, each label written once."""
    label = {o: format_orbit(setup, o) for o in enumerate_orbits(setup)}
    entries = []
    for row in rows:
        subject, detail = row.subject, row.detail
        if row.check == "cc-agreement":
            stated, pulled = (_cycle_text((label[o], m) for o, m in terms) for terms in detail)
            subject, detail = label[subject[0]], f"stated {stated}; pullback {pulled}"
        elif row.check == "microlocal-empty":
            kind, trials, square, hits, bad, contradicted = detail
            notes = [f"{kind.value}, {trials} trials"]
            if square:
                notes.append("square case, outside the strict regime")
            if hits:
                notes.append("witness found")
            if bad:
                notes.append(f"witness check failed on {bad} of {hits} witnesses")
            if contradicted:
                notes.append(f"block-shape verdict contradicted by {contradicted} of "
                             f"{trials} trials")
            subject, detail = f"{label[subject[0]]}<-{label[subject[1]]}", "; ".join(notes)
        elif row.check == "smallness":
            small, asserted = detail
            subject = f"{subject[0].value} {label[subject[1]]}"
            detail = ("not the applicable side here" if small is None else "small" if small
                      else "not small" if asserted else "not small (recorded, not asserted)")
        else:  # transversality
            subject = "opposite chart" if subject[0] else "standard chart"
            detail = f"{detail[0]} points, {detail[1]} failures"
        entries.append({"check": row.check, "subject": subject, "ok": row.ok, "detail": detail})
    return entries


def cmd_verify(setup: Setup, suite: str, trials: int, seed: int) -> tuple:
    rows = cross_check(setup, suite, trials=trials, seed=seed)
    all_ok = all(r.ok for r in rows)
    doc = _document("verify", setup)
    doc.update(suite=suite, trials=trials, seed=seed)
    doc["checks"] = check_entries(setup, rows)
    doc["all_ok"] = all_ok
    return doc, 0 if all_ok else 1


def _render_text(doc: dict) -> str:
    setup = doc["setup"]
    bits = [f"{setup['kind']} n={setup['n']} k={setup['k']}"]
    if "p" in setup:
        bits.append(f"p={setup['p']} q={setup['q']}")
    lines = [f"# {doc['command']} ({' '.join(bits)})"]
    for row in doc.get("orbits", ()):
        lines.append(f"{row['label']}  dim {row['dimension']}"
                     f"  codim {row['codimension']}")
    for cov in doc.get("covers", ()):
        lines.append(f"{cov['lower']} < {cov['upper']}")
    for cyc in doc.get("cycles", ()):
        terms = _cycle_text((t["orbit"], t["multiplicity"]) for t in cyc["terms"])
        lines.append(f"CC({cyc['target']}) = {terms}")
    if doc["command"] == "verify":
        lines[0] += f" suite={doc['suite']} trials={doc['trials']} seed={doc['seed']}"
        for row in doc["checks"]:
            mark = "ok  " if row["ok"] else "FAIL"
            lines.append(f"{mark}  {row['check']}  {row['subject']}  {row['detail']}")
        failed = sum(1 for row in doc["checks"] if not row["ok"])
        lines.append("all checks passed" if failed == 0
                     else f"{failed} checks failed")
    return "\n".join(lines) + "\n"


def _render_dot(doc: dict) -> str:
    lines = ["digraph closure {", "  rankdir=BT;"]
    for row in doc["orbits"]:
        lines.append(f'  "{row["label"]}";')
    for cov in doc["covers"]:
        lines.append(f'  "{cov["lower"]}" -> "{cov["upper"]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "dot":
        if doc["command"] != "poset":
            raise ValueError("dot output only exists for the closure order")
        return _render_dot(doc)
    return _render_text(doc)


def parse_document(text: str):
    """Read back a JSON document produced by this interface."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("not a kcycle/1 document")
    return doc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    exit_code = 0
    try:
        setup = _setup_from_args(args)
        if args.command == "orbits":
            doc = cmd_orbits(setup)
        elif args.command == "cc":
            doc = cmd_cc(setup, args.orbit)
        elif args.command == "poset":
            doc = cmd_poset(setup)
        else:
            doc, exit_code = cmd_verify(setup, args.suite, args.trials, args.seed)
        text = render(doc, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # verify's draws grow with --trials too
        sizes = f"n={args.n}, trials={args.trials}" if args.command == "verify" else f"n={args.n}"
        print(f"error: out of memory for {sizes}", file=sys.stderr)
        return 2
    except NoGenericCovector as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
