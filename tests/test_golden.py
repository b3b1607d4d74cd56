"""CLI outputs compared byte for byte with the records in tests/golden/.

The records fence refactors: they change only when a change means to alter
an output, and says why.  To rewrite them from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from syncword.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    for n in (3, 4):
        for flags in ([], ["--canonical"]):
            tag = "-canonical" if flags else ""
            out[f"scan-n{n}-k2{tag}.json"] = [
                "scan", "--n", str(n), "--k", "2", "--json", *flags]
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


if __name__ == "__main__":
    codes = {}
    for record, argv in sorted(cases().items()):
        codes[record], out = run_in_golden_dir(argv)
        (GOLDEN / record).write_text(out)
        print(f"{record}: exit {codes[record]}", file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
