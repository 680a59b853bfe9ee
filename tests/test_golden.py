"""Golden stdout digests.

documents.txt, which the CI loop also reads, is the one list of pinned
documents: a line each, with its name, the SHA-256 of its stdout and
its arguments.  Each renders twice in-process, then all once more in one
child process under python -O.  So a change that should leave the output
alone can show that it did: the bytes, not only their run-to-run
identity, must match.  A digest must not be re-recorded to make a change
pass; update one only for a change that is meant to alter that output,
and say so where the change is described.

Each command pins its text form (the lines without --format) as well
as its JSON, and poset its GraphViz source too; verify pins each
--suite.  No document prints a failing row, so FAILURES pins those
under monkeypatch mutants, one per check.  Provenance:

- the seed-42 verify documents and the glpq52, sp64 and so84 orbits,
  cc and poset documents were taken before the Lie-algebra action
  image was rebuilt on sparse basis elements;
- orbits-so30, orbits-sp24 and orbits-glpq16 were taken with the whole
  action image ranked by one elimination, before orbit dimensions were
  summed over its connected components;
- verify-glpq74-s42, verify-sp82-s42, verify-so72-s42 and poset-glpq7
  pin the relabelled paths, and were taken before the per-kind geometry
  moved into one family table: glpq(7,4,3,4) is swapped and dualized,
  sp(8,2) and so(7,2) are dualized, and glpq(7,3,2,5) is swapped (p < q).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kcycle import ccengine, cli, degeneracy, resolutions
from kcycle.exactla import QMatrix
from kcycle.orbits import INTERSECTION
from kcycle.resolutions import RESOLUTIONS, Witness

DOCUMENTS = [(name, digest, argv) for name, digest, *argv in map(
    str.split, (Path(__file__).resolve().parent / "documents.txt").read_text().splitlines())]


def test_documents_are_one_list():
    # no name or argument list twice, a document for each command and
    # format the parser offers, and one for each choice of each of its other
    # options (--kind, verify's --suite); arguments compare as parsed,
    # defaults included
    parser = cli.build_parser()
    parsed = [vars(parser.parse_args(argv)) for _, _, argv in DOCUMENTS]
    names = [name for name, _, _ in DOCUMENTS]
    assert len(set(names)) == len(names)
    assert len({tuple(sorted(args.items())) for args in parsed}) == len(parsed)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {(command, fmt) for command, sub in commands.choices.items()
               for action in sub._actions if action.dest == "format" for fmt in action.choices}
    assert {(args["command"], args["format"]) for args in parsed} == offered
    choices = {(command, action.dest): set(action.choices)
               for command, sub in commands.choices.items()
               for action in sub._actions if action.choices and action.dest != "format"}
    assert ("verify", "suite") in choices  # the walk sees the suites
    for (command, dest), offered in choices.items():
        assert {args[dest] for args in parsed if args["command"] == command} == offered, dest


@pytest.mark.parametrize("name,digest,argv", DOCUMENTS, ids=[name for name, _, _ in DOCUMENTS])
def test_document_digest(capsys, name, digest, argv):
    # the second rendering runs on the caches that the first one filled
    for _ in range(2):
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


def test_document_digests_under_optimize():
    script = (
        "import contextlib, hashlib, io, sys\n"
        "from kcycle import cli\n"
        "for line in sys.stdin:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(line.split())\n"
        "    print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())\n"
        "print('optimize', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          input="".join(" ".join(argv) + "\n" for _, _, argv in DOCUMENTS),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [f"0 {digest}" for _, digest, _ in DOCUMENTS] + [
        "optimize 1"]


def _member(xi, s, t):
    # membership that always answers yes, with a witness that holds nothing
    return True, Witness(QMatrix(0, 0, ()), QMatrix(0, 0, ()))


# No document prints a failing row, so each check's failing form is pinned
# under a monkeypatch mutant: (name, patches, arguments, one failing text
# line, SHA-256 of the text output, SHA-256 of the JSON output).  A patch
# is (module, attribute, value), or (dict, key, value) to swap a record
# in a table such as RESOLUTIONS, which every module reading it shares.
# The digests were recorded before check rows held values instead of
# text; large-fibers's, when it patched a fiber dimension of 100, which
# its Gr(10, 20) still is.
FAILURES = [
    ("pullback-orbit-alone",
     [(ccengine, "pullback_cc", lambda setup, orbit: ((orbit, 1),))],
     "verify --kind so --n 8 --k 4 --suite crosscheck",
     "FAIL  cc-agreement  rad3  stated rad3 + rad4+ + rad4-; pullback rad3",
     "9b600bbbdafece00759482b821d2c34de649bf00dec360c7f183c65333f85548",
     "b5861ea694bf5481b28de0ae7e09847d800c6be4a81861a80bdded6858b5f0db"),
    ("always-a-member",
     [(resolutions, "kernel_membership_Z", _member),
      (resolutions, "kernel_membership_Ztilde", _member)],
     "verify --kind glpq --n 6 --k 3 --p 3 --q 3 --suite microlocal",
     "FAIL  microlocal-empty  q(0,0)<-q(0,1)  z, 20 trials; square case, outside the strict "
     "regime; witness found; witness check failed on 20 of 20 witnesses; block-shape verdict "
     "contradicted by 20 of 20 trials",
     "efc66f4eee3ee794bf027a0c05c034bdfc3a93dd1ae907a08fd684b99a3de571",
     "44c71d0ecc9e7b98036f77848c7687061bd61c850b2e44bb1eb65caeaa838443"),
    ("large-fibers",
     [(RESOLUTIONS, INTERSECTION, RESOLUTIONS[INTERSECTION]._replace(
         fiber=lambda work, kind, tgt, strat: ((10, 20),)))],
     "verify --kind glpq --n 6 --k 3 --p 3 --q 3 --suite smallness",
     "FAIL  smallness  z q(0,0)  not small",
     "569959216c643a2a818fd05a2c784eba4a448be808ced755f1c29227e79adca8",
     "e3c471f4a92052c461550b4472a1a62e41178c0195ef4577d7f9750c039856cc"),
    ("no-differential",
     [(degeneracy, "_differential_values", lambda *args, **kwargs: [])],
     "verify --kind sp --n 8 --k 4 --suite transversality --trials 100 --seed 0",
     "FAIL  transversality  standard chart  100 points, 1 failures",
     "245127b3e72da95ab033fe283cb9e18b84e33be1d2ea12867a57c1bde30a3e93",
     "350031c98567792e95311070195b8d00c2b5a4abb89d869eeead88d7e257fc64"),
]


@pytest.mark.parametrize("name,patches,args,line,text_digest,json_digest", FAILURES,
                         ids=[name for name, *_ in FAILURES])
def test_failure_digest(capsys, monkeypatch, name, patches, args, line, text_digest,
                        json_digest):
    for target, name, value in patches:
        if isinstance(target, dict):
            monkeypatch.setitem(target, name, value)
        else:
            monkeypatch.setattr(target, name, value)
    assert cli.main(args.split()) == 1
    out = capsys.readouterr().out
    assert line in out.splitlines()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == text_digest
    assert cli.main(args.split() + ["--format", "json"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == json_digest
