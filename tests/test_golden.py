"""Golden stdout digests.

Each entry pins the SHA-256 of the stdout of one CLI invocation, so a
change that should leave the output alone can show that it did: the
bytes, not only their run-to-run identity, must match.  The digests
were taken before the Lie-algebra action image was rebuilt on sparse
basis elements and must not be re-recorded to make a change pass;
update one only for a change that is meant to alter that output, and
say so where the change is described.

documents.txt, which the CI loop also reads, lists one document a line:
its name, stdout digest and arguments.  Each renders twice in-process,
then all once more in one child process under python -O.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kcycle import cli

GLPQ52 = ["--kind", "glpq", "--n", "5", "--k", "2", "--p", "3", "--q", "2"]
GLPQ63 = ["--kind", "glpq", "--n", "6", "--k", "3", "--p", "4", "--q", "2"]
SP64 = ["--kind", "sp", "--n", "6", "--k", "4"]
SO63 = ["--kind", "so", "--n", "6", "--k", "3"]
SO74 = ["--kind", "so", "--n", "7", "--k", "4"]
SO84 = ["--kind", "so", "--n", "8", "--k", "4"]
SO3015 = ["--kind", "so", "--n", "30", "--k", "15"]
SP2412 = ["--kind", "sp", "--n", "24", "--k", "12"]
GLPQ168 = ["--kind", "glpq", "--n", "16", "--k", "8", "--p", "8", "--q", "8"]
GLPQ74 = ["--kind", "glpq", "--n", "7", "--k", "4", "--p", "3", "--q", "4"]
GLPQ73 = ["--kind", "glpq", "--n", "7", "--k", "3", "--p", "2", "--q", "5"]
SP82 = ["--kind", "sp", "--n", "8", "--k", "2"]
SO72 = ["--kind", "so", "--n", "7", "--k", "2"]
JSON = ["--format", "json"]
DOT = ["--format", "dot"]
VERIFY = ["--suite", "all", "--seed", "42"] + JSON

GOLDEN = [
    (["orbits"] + GLPQ52 + JSON,
     "fac3793273c0b5bf0e953943729a89145f7c937759eb61a3004645ffb7856e38"),
    (["cc"] + GLPQ52 + JSON,
     "8a1fb76135d62d3816cdc491697129d9fb782bcce5b9ea35cbff6053d59d1486"),
    (["poset"] + GLPQ52 + JSON,
     "cd9e68fec16a825ac5d884e820b90330aeae6615583219880701444a522dcbaa"),
    (["poset"] + GLPQ52 + DOT,
     "a07a56bff12b4d928223505d5bfc6b8de7f0b1a129d9e7ee2060138ffefacf3c"),
    (["orbits"] + SP64 + JSON,
     "18f93f94b3f0514fa53a2f300564c85ba677c0a5dd827a79125a0789ff7589b9"),
    (["cc"] + SP64 + JSON,
     "df54a38870aa43e158053ff08a47d6a1c26270a8c5e69c874d36af14f7683047"),
    (["poset"] + SP64 + JSON,
     "3627968e2100397c049cbdeeeff7045a0186d6cc33deafb8536470b72238f45d"),
    (["poset"] + SP64 + DOT,
     "4109a86fc55053b90c2b750ead1c72af8a7e73b594171ba4780d66d163a22171"),
    (["orbits"] + SO84 + JSON,
     "41cedc27da15b87e2640c3bf7c0077ef09f1d0a8e189aa27d544b436d02e154c"),
    (["cc"] + SO84 + JSON,
     "2a9edf56b3ba3696193c69e277a9d01c59c7117e37c973d0c2d0412c34bbacb6"),
    (["poset"] + SO84 + JSON,
     "c6bd1079df25ef21cef6141ef87f15780c7a39167b3a3dfe7e844c763a5ffb5d"),
    (["poset"] + SO84 + DOT,
     "5f5d19d49694875d80613f4946178ee6d6f5b108bcf120605901f760d8353f4c"),
    (["verify"] + GLPQ63 + VERIFY,
     "b95a539b1a56ae2fae05e0dd6f61dbcd3ecd893e25de21b9580ccffd5d0f3e92"),
    (["verify"] + GLPQ52 + VERIFY,
     "30c81c1a18cccc85b4c7b0f1360174198a706b095d4a744f78c9992e00e78e9f"),
    (["verify"] + SP64 + VERIFY,
     "4ba547fd5dcc80ce787878244c6315ddabb574093bf304b5df10a8e78915046b"),
    (["verify"] + SO63 + VERIFY,
     "96aa5543c72b5b040ba5c257acdf8ee70a41ad34b11c6b265c80c50ab81d9ae8"),
    (["verify"] + SO74 + VERIFY,
     "65ce1eefedc4ea418fe29c5770c8f881bf30926b66e6783afcc28fe4afaf203c"),
    # taken with the whole action image ranked by one elimination, before
    # orbit dimensions were summed over its connected components
    (["orbits"] + SO3015 + JSON,
     "e6715d71ae2cda0e7aec0b86c15013e62a52d0c27afb6fa7ad526ac730c086b9"),
    (["orbits"] + SP2412 + JSON,
     "bc7b0455216fc806c773700862142d3acc6028d9f40fa09b6fde69603f383991"),
    (["orbits"] + GLPQ168 + JSON,
     "18ce615042f8956b614320a6bc48f295ce2ebbf8de9d0783409dd88de26a66fc"),
    # the relabelled paths, taken before the per-kind geometry moved into
    # one family table: glpq(7,4,3,4) is swapped and dualized, sp(8,2) and
    # so(7,2) are dualized, and glpq(7,3,2,5) is swapped (p < q)
    (["verify"] + GLPQ74 + VERIFY,
     "4738b9e3dd56308aa511540b48b054a0e33d5cbb6c0bb563bed87c2ee0f1414b"),
    (["verify"] + SP82 + VERIFY,
     "9911faa6eb0494764a5b2fa1adf07e3482c5701e430c61b4402af00dfe3e0f08"),
    (["verify"] + SO72 + VERIFY,
     "8938dede9119702f3c2a4308759b527048d8c8cae9309343809d9365f464e479"),
    (["poset"] + GLPQ73 + JSON,
     "91b97f09dc76d9d2197bb9109588c1cee4f1c4a1809f0cbc5304edc7c2d75d6c"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


DOCUMENTS = [(name, digest, argv) for name, digest, *argv in map(
    str.split, (Path(__file__).resolve().parent / "documents.txt").read_text().splitlines())]


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
