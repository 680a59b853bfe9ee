import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from kcycle import ccengine, cli, conormal
from kcycle.ccengine import CheckRow
from kcycle.orbits import IntersectionOrbit
from kcycle.resolutions import ResolutionKind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = json.loads((ROOT / "schema" / "kcycle-1.json").read_text())

GLPQ = ["--kind", "glpq", "--n", "4", "--k", "2", "--p", "2", "--q", "2"]
SO63 = ["--kind", "so", "--n", "6", "--k", "3"]
SP63 = ["--kind", "sp", "--n", "6", "--k", "3"]


# --help text of the parser and of each subcommand at 80 columns, recorded
# before the shared options moved into a parent parser
HELP = {
    "": (
        "usage: kcycle [-h] {orbits,cc,poset,verify} ...\n"
        "\n"
        "orbit closures on Grassmannians and their characteristic cycles\n"
        "\n"
        "positional arguments:\n"
        "  {orbits,cc,poset,verify}\n"
        "    orbits              list the orbits with dimensions\n"
        "    cc                  characteristic cycles of orbit closures\n"
        "    poset               closure order and covers\n"
        "    verify              run verification suites\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "orbits": (
        "usage: kcycle orbits [-h] --kind {glpq,sp,so} --n N --k K [--p P] [--q Q]\n"
        "                     [--format {text,json}] [--out FILE]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kind {glpq,sp,so}\n"
        "  --n N\n"
        "  --k K\n"
        "  --p P\n"
        "  --q Q\n"
        "  --format {text,json}\n"
        "  --out FILE\n"
    ),
    "cc": (
        "usage: kcycle cc [-h] --kind {glpq,sp,so} --n N --k K [--p P] [--q Q]\n"
        "                 [--format {text,json}] [--out FILE] [--orbit LABEL]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kind {glpq,sp,so}\n"
        "  --n N\n"
        "  --k K\n"
        "  --p P\n"
        "  --q Q\n"
        "  --format {text,json}\n"
        "  --out FILE\n"
        "  --orbit LABEL         only this orbit (default: all)\n"
    ),
    "poset": (
        "usage: kcycle poset [-h] --kind {glpq,sp,so} --n N --k K [--p P] [--q Q]\n"
        "                    [--format {text,json,dot}] [--out FILE]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kind {glpq,sp,so}\n"
        "  --n N\n"
        "  --k K\n"
        "  --p P\n"
        "  --q Q\n"
        "  --format {text,json,dot}\n"
        "  --out FILE\n"
    ),
    "verify": (
        "usage: kcycle verify [-h] --kind {glpq,sp,so} --n N --k K [--p P] [--q Q]\n"
        "                     [--format {text,json}] [--out FILE]\n"
        "                     [--suite {crosscheck,microlocal,smallness,transversality,all}]\n"
        "                     [--trials TRIALS] [--seed SEED]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kind {glpq,sp,so}\n"
        "  --n N\n"
        "  --k K\n"
        "  --p P\n"
        "  --q Q\n"
        "  --format {text,json}\n"
        "  --out FILE\n"
        "  --suite {crosscheck,microlocal,smallness,transversality,all}\n"
        "  --trials TRIALS       samples per check, at least 1 (default 20)\n"
        "  --seed SEED           sampling seed, 0 to 18446744073709551615 (default 0)\n"
    ),
}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_listing(capsys):
    code, out, _ = run(capsys, ["orbits"] + GLPQ)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("# orbits")
    assert "q(0,0)  dim 4  codim 0" in lines
    assert len(lines) == 7


def test_documents_validate_against_schema(capsys):
    battery = [
        ["orbits"] + GLPQ,
        ["orbits"] + SO63,
        ["cc"] + GLPQ,
        ["cc"] + SO63 + ["--orbit", "rad1"],
        ["poset"] + SP63,
        ["verify"] + SP63 + ["--suite", "crosscheck"],
        ["verify"] + GLPQ + ["--suite", "microlocal", "--trials", "2"],
        ["verify"] + SO63 + ["--suite", "transversality", "--trials", "3"],
        ["verify"] + GLPQ + ["--suite", "smallness"],
    ]
    for argv in battery:
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0, argv
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)


def test_schema_matches_the_parser(capsys):
    assert set(SCHEMA["properties"]["suite"]["enum"]) == {*ccengine.SUITES, "all"}
    _, out, _ = run(capsys, ["verify"] + GLPQ + ["--suite", "smallness",
                                                 "--format", "json"])
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    for bad in (0, -3):
        doc["trials"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMA)
    _, out, _ = run(capsys, ["verify"] + GLPQ + ["--suite", "smallness", "--format",
                                                 "json", "--seed", str(cli.SEED_MAX)])
    doc = json.loads(out)
    assert doc["seed"] == cli.SEED_MAX
    jsonschema.validate(doc, SCHEMA)
    for bad in (-1, cli.SEED_MAX + 1):
        doc["seed"] = bad
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMA)


def test_documents_round_trip(capsys):
    for argv in (["cc"] + SO63, ["poset"] + GLPQ):
        _, out, _ = run(capsys, argv + ["--format", "json"])
        doc = cli.parse_document(out)
        assert cli.render(doc, "json") == out
    with pytest.raises(ValueError):
        cli.parse_document('{"schema_version": "other/9"}')


def test_text_and_json_agree(capsys):
    _, text_out, _ = run(capsys, ["cc"] + SO63)
    _, json_out, _ = run(capsys, ["cc"] + SO63 + ["--format", "json"])
    doc = json.loads(json_out)
    body = text_out.strip().splitlines()[1:]
    assert len(body) == len(doc["cycles"])
    for line, cyc in zip(body, doc["cycles"]):
        assert line.startswith(f"CC({cyc['target']}) = ")
        for term in cyc["terms"]:
            assert term["orbit"] in line


def test_cc_reducible_line(capsys):
    _, out, _ = run(capsys, ["cc", "--kind", "so", "--n", "8", "--k", "4",
                             "--orbit", "rad3"])
    assert "CC(rad3) = rad3 + rad4+ + rad4-" in out


def test_dot_output(capsys):
    code, out, _ = run(capsys, ["poset"] + GLPQ + ["--format", "dot"])
    assert code == 0
    assert out.startswith("digraph closure {")
    _, json_out, _ = run(capsys, ["poset"] + GLPQ + ["--format", "json"])
    doc = json.loads(json_out)
    assert out.count(" -> ") == len(doc["covers"])
    for row in doc["orbits"]:
        assert f'"{row["label"]}"' in out


# trials and seed that parse as ints but are out of range: the library
# refuses them, in one error: line with no usage
OUT_OF_RANGE = [
    ["verify"] + GLPQ + ["--trials", "0"],
    ["verify"] + SO63 + ["--suite", "transversality", "--trials", "-3"],
    # a seed outside [0, 2^64) would alias one inside it
    ["verify"] + SO63 + ["--seed", "-1"],
    ["verify"] + SO63 + ["--seed", str(1 << 64)],
]
# Bad input that cli.main meets in-process, each exiting 2 with nothing on
# stdout; test_usage_errors runs them, and so does the call-reachability gate.
BAD_INPUT = [
    ["orbits", "--kind", "glpq", "--n", "4", "--k", "2"],
    ["orbits", "--kind", "sp", "--n", "5", "--k", "2"],
    ["orbits", "--kind", "so", "--n", "6", "--k", "3", "--p", "2"],
    ["orbits"] + GLPQ + ["--format", "dot"],
    ["cc"] + SO63 + ["--orbit", "q(1,1)"],
    ["cc"] + SO63 + ["--orbit", "rad9"],
    # a sign belongs to the maximal isotropics of so(2k, k) alone
    ["cc"] + SO63 + ["--orbit", "rad1+"],
    ["cc", "--kind", "so", "--n", "7", "--k", "3", "--orbit", "rad3+"],
    ["cc", "--kind", "sp", "--n", "8", "--k", "4", "--orbit", "rad4-"],
    ["orbits", "--kind", "xx", "--n", "4", "--k", "2"],
    ["nonsense"],
    ["verify"] + SO63 + ["--seed", "x"],
    *OUT_OF_RANGE,
]
# suites that examine nothing on the setup must not report a pass
VACUOUS = [
    ["verify"] + SO63 + ["--suite", "microlocal"],
    ["verify"] + SP63 + ["--suite", "microlocal", "--format", "json"],
    ["verify"] + GLPQ + ["--suite", "crosscheck"],
    ["verify"] + GLPQ + ["--suite", "transversality"],
]
# an n that no list can index is rejected, not met by an OverflowError
OVERSIZED = [
    ["orbits", "--kind", "so", "--n", "99999999999999999999", "--k", "1"],
    ["orbits", "--kind", "glpq", "--n", "99999999999999999999", "--k", "1",
     "--p", "99999999999999999998", "--q", "1"],
]
# a label spelled with a leading zero or a non-ASCII digit is no label
BAD_LABELS = [["cc"] + GLPQ + ["--orbit", "q(01,1)"], ["cc"] + SO63 + ["--orbit", "rad\u0662"]]


def test_usage_errors(capsys):
    # an n that no length-n list fits in memory: n = 2^62 fails the size
    # check of [0] * n at once, allocating nothing
    unallocatable = [
        ["orbits", "--kind", "so", "--n", str(1 << 62), "--k", "1"],
        ["orbits", "--kind", "sp", "--n", str(1 << 62), "--k", "1"],
        ["orbits", "--kind", "glpq", "--n", str(1 << 62), "--k", "1",
         "--p", str((1 << 62) - 1), "--q", "1"],
    ]
    # trials that no list of draws can hold: a list of 2^62 draws fails
    # its size check at once, and a count past sys.maxsize is refused
    # before any list is made
    huge_trials = [
        ["verify"] + SO63 + ["--suite", "transversality", "--trials", trials]
        for trials in (str(1 << 62), "99999999999999999999")
    ] + [
        ["verify"] + GLPQ + ["--suite", "microlocal", "--trials", trials]
        for trials in (str(1 << 62), "99999999999999999999")
    ]
    for argv in BAD_INPUT + VACUOUS + OVERSIZED + BAD_LABELS:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "", argv
        if not err.startswith("usage: "):  # argparse's errors print the usage first
            assert err.startswith("error: ") and len(err.splitlines()) == 1, argv
        if argv in OUT_OF_RANGE:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, argv
        if argv in BAD_LABELS:
            assert err == f"error: cannot parse orbit label: {argv[-1]!r}\n"
        if argv in VACUOUS:
            assert err.startswith("error: suite ") and len(err.splitlines()) == 1
        if argv in OVERSIZED:
            assert err.startswith("error: need n <= ") and len(err.splitlines()) == 1
    for argv in unallocatable:
        code, out, err, peak_kib = run_capped(argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == f"error: out of memory for n={1 << 62}\n"
        # the first n-sized allocation failed at once; nothing grew towards n
        assert peak_kib < PEAK_BOUND_KIB, (argv, peak_kib)
    for argv in huge_trials:
        code, out, err, peak_kib = run_capped(argv)
        assert code == 2, argv
        assert out == "", argv
        assert err == f"error: out of memory for n={argv[4]}, trials={argv[-1]}\n", argv
        assert peak_kib < PEAK_BOUND_KIB, (argv, peak_kib)


# The unallocatable cases run in their own interpreter under an address
# space cap, so that a path which grows a list towards n stops at the cap
# instead of filling the machine's memory; its peak resident set then
# fails the bound below, which a run that fails its first allocation
# stays far under.
MEMORY_CAP = 1 << 30
PEAK_BOUND_KIB = 256 * 1024


def run_capped(argv):
    """(exit code, stdout, stderr, peak resident KiB) of cli.main(argv) in a capped interpreter."""
    script = (
        "import contextlib, io, json, resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP}))\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from kcycle import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps([code, out.getvalue(), err.getvalue(), peak]))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script, *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout))


def test_out_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "orbits.json"
    code, out, err = run(capsys, ["orbits"] + SO63 + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not target.exists()


def test_empty_out_path_is_no_file(capsys):
    # an empty --out names a file that cannot be opened; it is not stdout
    code, out, err = run(capsys, ["orbits"] + SO63 + ["--out", ""])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ") and len(err.splitlines()) == 1


def test_unwritable_stdout_exits_two_with_one_line():
    # a full disk, and a pipe whose read end is closed: a short document
    # fails when main flushes it, a long one (13 kB) already in the write;
    # nothing is left for the flush at interpreter exit to report
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    commands = [["orbits"] + SO63,
                ["verify", "--kind", "glpq", "--n", "8", "--k", "4", "--p", "4", "--q", "4",
                 "--trials", "1", "--format", "json"]]
    read_end, write_end = os.pipe()
    os.close(read_end)
    sinks = [(write_end, "Broken pipe")]
    if Path("/dev/full").exists():
        sinks.append((os.open("/dev/full", os.O_WRONLY), "No space left on device"))
    try:
        for fd, reason in sinks:
            for argv in commands:
                done = subprocess.run([sys.executable, "-m", "kcycle.cli", *argv], stdout=fd,
                                      stderr=subprocess.PIPE, text=True, env=env, timeout=120)
                assert (done.returncode, done.stderr) == (
                    2, f"error: cannot write stdout: {reason}\n"), argv
    finally:
        for fd, _ in sinks:
            os.close(fd)


def test_failed_check_exits_one(capsys, monkeypatch):
    # one witness found in 20 trials, on the square setup glpq(4,2,2,2)
    bad = [CheckRow("microlocal-empty", (IntersectionOrbit(0, 0), IntersectionOrbit(1, 1)), False,
                    (ResolutionKind.Z, 20, True, 1, 0, 0))]
    monkeypatch.setattr(ccengine, "check_microlocal", lambda *a, **kw: bad)
    code, out, _ = run(capsys, ["verify"] + GLPQ + ["--suite", "microlocal"])
    assert code == 1
    assert "FAIL" in out
    assert "1 checks failed" in out
    assert ("FAIL  microlocal-empty  q(0,0)<-q(1,1)  z, 20 trials; square case, outside the "
            "strict regime; witness found") in out.splitlines()


def test_internal_fault_exits_three(capsys, monkeypatch):
    # a lane certificate that proves nothing, and a rank that never finds a
    # block full, leave the sampler no generic covector
    monkeypatch.setattr(conormal, "_certified_lanes", lambda draws, at, r, c: [False] * len(draws))
    monkeypatch.setattr(conormal, "rank", lambda m: 0)
    code, out, err = run(capsys, ["verify"] + GLPQ + ["--suite", "microlocal"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal: no generic covector within ")
    assert len(err.splitlines()) == 1


def test_other_runtime_errors_keep_their_traceback(monkeypatch):
    # only the sampler's budget fault maps to exit 3; any other bug escapes
    def broken(*args):
        raise RuntimeError("a bug elsewhere")

    monkeypatch.setattr(cli, "characteristic_cycle", broken)
    with pytest.raises(RuntimeError, match="a bug elsewhere"):
        cli.main(["cc"] + SO63)


def test_verify_bytes_are_reproducible(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["verify"] + SO63 + ["--suite", "all", "--trials", "4",
                                "--seed", "42", "--format", "json"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    jsonschema.validate(json.loads(out_a.read_text()), SCHEMA)


def test_out_file_replaces_stdout(capsys, tmp_path):
    target = tmp_path / "orbits.json"
    code, out, _ = run(capsys, ["orbits"] + SO63 + ["--format", "json",
                                                    "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = cli.parse_document(target.read_text())
    assert doc["command"] == "orbits"
    assert [row["label"] for row in doc["orbits"]] == \
        ["rad0", "rad1", "rad2", "rad3+", "rad3-"]


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in HELP.items():
        argv = [command, "--help"] if command else ["--help"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "", argv
        assert out == text, argv
    code, out, err = run(capsys, ["verify"] + SO63 + ["--seed", "x"])
    assert code == 2 and out == ""
    usage = HELP["verify"].split("\n\n")[0] + "\n"
    assert err == usage + "kcycle verify: error: argument --seed: invalid int value: 'x'\n"
    # a seed that parses is the library's to bound, in one line and no usage
    assert run(capsys, ["verify"] + SO63 + ["--seed", "-1"]) == (
        2, "", "error: seed must be between 0 and 18446744073709551615, as an int, got -1\n")


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    argv = ["orbits"] + SO63
    run(capsys, argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("# orbits (so n=6 k=3)")
    assert built == []


def test_repeated_main_calls_are_independent(capsys):
    valid = ["verify"] + SO63 + ["--suite", "all", "--trials", "3", "--seed", "9",
                                 "--format", "json"]
    bad = ["verify"] + SO63 + ["--seed", "x"]
    first = run(capsys, valid)
    error = run(capsys, bad)
    helped = run(capsys, ["verify", "--help"])
    again = run(capsys, valid)
    assert first[0] == 0 and first[1] and first == again
    assert helped[0] == 0 and helped[1].startswith("usage: kcycle verify ")
    # a usage error reads as it does from a parser that never parsed before
    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args(bad)
    fresh = capsys.readouterr()
    assert exc.value.code == 2 and error == (2, "", fresh.err)
    assert "argument --seed: invalid int value: 'x'" in fresh.err


def test_readme_example_prints_what_it_says():
    # each print line of the README's python block ends in a comment that
    # is what it prints
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("  # ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + block
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == expected
