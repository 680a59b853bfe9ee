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
as its JSON, and poset its GraphViz source too.  Provenance:

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

from kcycle import cli

DOCUMENTS = [(name, digest, argv) for name, digest, *argv in map(
    str.split, (Path(__file__).resolve().parent / "documents.txt").read_text().splitlines())]


def test_documents_are_one_list():
    # no name or argument list twice, and a document for each command and
    # format the parser offers; arguments compare as parsed, defaults included
    parser = cli.build_parser()
    parsed = [vars(parser.parse_args(argv)) for _, _, argv in DOCUMENTS]
    names = [name for name, _, _ in DOCUMENTS]
    assert len(set(names)) == len(names)
    assert len({tuple(sorted(args.items())) for args in parsed}) == len(parsed)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    offered = {(command, fmt) for command, sub in commands.choices.items()
               for action in sub._actions if action.dest == "format" for fmt in action.choices}
    assert {(args["command"], args["format"]) for args in parsed} == offered


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
