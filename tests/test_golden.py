"""CLI and demo outputs compared byte for byte with the records in tests/golden/.

The records fence refactors: they change only when a change means to alter
an output, and says why.  Each demo runs as its own process, as a user
runs it, under the interpreter's -O level.  To rewrite them from the
current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from syncword.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))
# a relative path, because the reports echo the input as given
NEAR_SYNC = "near-sync.dfa"
INPUTS = ("cerny:3", "cerny:4", "cerny:5", "cerny:6", "cerny:7", "kari",
          "roman", NEAR_SYNC)
EXIT_CODES = GOLDEN / "exit-codes.json"


def cases() -> dict[str, list[str]]:
    """Record file name -> CLI arguments."""
    out = {}
    for name in INPUTS:
        slug = name.replace(":", "").removesuffix(".dfa")
        out[f"verify-{slug}.json"] = ["verify", name, "--json"]
        out[f"reset-word-{slug}.json"] = [
            "reset-word", name, "--json", "--profile", "--show-matrix",
            "--check-lemmas"]
        out[f"profile-{slug}.json"] = ["profile", name, "--json"]
    scans = [(3, 2, []), (3, 2, ["--canonical"]), (4, 2, []),
             (4, 2, ["--canonical"]), (3, 3, []), (3, 3, ["--canonical"]),
             (2, 4, ["--strongly-connected"]),
             (4, 2, ["--strongly-connected"]),
             (4, 2, ["--strongly-connected", "--canonical"])]
    for n, k, flags in scans:
        tag = "".join("-" + flag.removeprefix("--") for flag in flags)
        out[f"scan-n{n}-k{k}{tag}.json"] = [
            "scan", "--n", str(n), "--k", str(k), "--json", *flags]
    return out


def run_in_golden_dir(argv: list[str]) -> tuple[int, str]:
    buf = StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("record", sorted(cases()))
def test_cli_output_matches_record(record):
    code, out = run_in_golden_dir(cases()[record])
    assert out == (GOLDEN / record).read_text()
    assert code == json.loads(EXIT_CODES.read_text())[record]


def run_demo(name: str) -> str:
    argv = [sys.executable, *["-O"] * sys.flags.optimize,
            str(ROOT / "demos" / f"{name}.py")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          check=True).stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_record(name):
    assert run_demo(name) == (GOLDEN / f"demo-{name}.txt").read_text()


if __name__ == "__main__":
    codes = {}
    for record, argv in sorted(cases().items()):
        codes[record], out = run_in_golden_dir(argv)
        (GOLDEN / record).write_text(out)
        print(f"{record}: exit {codes[record]}", file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    for name in DEMOS:
        (GOLDEN / f"demo-{name}.txt").write_text(run_demo(name))
        print(f"demo-{name}.txt", file=sys.stderr)
