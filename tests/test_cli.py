import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import syncword
from syncword import Dfa
from syncword.automaton import parse_dfa
from syncword.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reset-word

def test_reset_word_kari(capsys):
    code, out, _ = run(capsys, "reset-word", "kari")
    assert code == 0
    assert "length 25" in out
    assert "baaba babaa bbaba abaab abaab" in out
    assert "target state: 1" in out


def test_reset_word_json(capsys):
    code, out, _ = run(capsys, "reset-word", "cerny:4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["synchronizing"] is True
    assert data["length"] == 9
    assert data["word"] == "baaabaaab"
    assert data["target"] == 1


def test_reset_word_show_matrix_and_checks(capsys):
    code, out, _ = run(capsys, "reset-word", "cerny:4",
                       "--show-matrix", "--check-lemmas")
    assert code == 0
    assert "0 1 0 0" in out
    assert "[PASS] irreducible" in out
    assert "[PASS] near-sync-suffixes" in out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_reset_word_exits_2_when_a_claim_fails(tmp_path, capsys, flags):
    # the near-sync completion claim fails on this table's minimal word aba
    path = tmp_path / "near.dfa"
    path.write_text("4 2\n0 0 0 3\n0 3 3 1\n")
    code, out, _ = run(capsys, "reset-word", str(path), "--check-lemmas", *flags)
    assert code == 2
    if flags:
        assert json.loads(out)["checks"] == [
            {"name": "suffix-space-bound", "passed": True},
            {"name": "irreducible", "passed": True},
            {"name": "suffix-distinct", "passed": True},
            {"name": "near-sync-suffixes", "passed": False}]
    else:
        assert "[FAIL] near-sync-suffixes" in out
        assert "reset-collapse" not in out
    # without the claims the same table is a plain success
    assert run(capsys, "reset-word", str(path), *flags)[0] == 0


def count_calls(monkeypatch, real):
    """Rebind every import of `real` in the package to a call counter."""
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in vars(syncword).values():
        if getattr(mod, "__name__", "").startswith("syncword."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("argv", [["verify", "kari"],
                                  ["reset-word", "cerny:16", "--check-lemmas"]])
def test_one_reset_search_per_command(monkeypatch, capsys, argv):
    calls = count_calls(monkeypatch, syncword.sync.shortest_reset_word)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == 1


def test_check_lemmas_builds_no_extra_word_matrices(monkeypatch, capsys):
    calls = count_calls(monkeypatch, syncword.word_matrix.matrix_of_word)
    assert run(capsys, "reset-word", "kari")[0] == 0
    plain = len(calls)
    assert run(capsys, "reset-word", "kari", "--check-lemmas")[0] == 0
    assert len(calls) - plain <= plain


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_reset_word_computes_profile_and_matrix_once(monkeypatch, capsys, flags):
    profiles = count_calls(monkeypatch, syncword.series.suffix_profile)
    matrices = count_calls(monkeypatch, syncword.word_matrix.matrix_of_word)
    assert run(capsys, "reset-word", "roman", "--profile", "--show-matrix",
               *flags)[0] == 0
    assert len(profiles) == len(matrices) == 1


def test_reset_word_profile_chain(capsys):
    code, out, _ = run(capsys, "reset-word", "roman", "--profile")
    assert code == 0
    assert "suffix_length,value" in out
    assert "16,4" in out


def test_reset_word_not_synchronizing(tmp_path, capsys):
    path = tmp_path / "swap.dfa"
    path.write_text("2 1\n1 0\n")
    code, out, err = run(capsys, "reset-word", str(path))
    assert code == 2
    assert "synchronizing: no" in out
    assert "not synchronizing" in err


def test_reset_word_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.dfa"
    path.write_text("2 1\n5 0\n")
    code, _, err = run(capsys, "reset-word", str(path))
    assert code == 1
    assert "line 2" in err


def test_reset_word_missing_input(capsys):
    code, _, err = run(capsys, "reset-word", "no-such-file.dfa")
    assert code == 1
    assert "neither a built-in" in err


@pytest.mark.parametrize("argv", [["reset-word"], ["profile"], ["verify"],
                                  ["profile", "--word", "ab"]])
def test_empty_input_is_neither_a_builtin_nor_a_file(capsys, argv):
    code, out, err = run(capsys, *argv, "")
    assert code == 1
    assert out == ""
    assert "'' is neither a built-in (" in err
    assert "nor an existing file" in err
    assert "cannot read" not in err


@pytest.mark.parametrize("spec, message", [
    ("cerny:1", "need at least 2 states"),
    ("cerny:x", "bad state count in 'cerny:x'"),
])
def test_bad_builtin_name_reports_the_builtins_error(capsys, spec, message):
    code, out, err = run(capsys, "reset-word", spec)
    assert code == 1
    assert out == ""
    assert message in err
    assert "neither a built-in" not in err


@pytest.mark.parametrize("argv", [["reset-word"], ["reset-word", "--json"],
                                  ["profile"]])
def test_more_than_26_letters_rejected_before_the_search(tmp_path, capsys,
                                                          monkeypatch, argv):
    searched = []
    monkeypatch.setattr(syncword.sync, "shortest_reset_word",
                        lambda *args: searched.append(args))
    path = tmp_path / "wide.dfa"
    path.write_text("2 27\n" + "1 1\n" * 27)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert "27 letters" in err and "abcdefghijklmnopqrstuvwxyz" in err
    assert searched == []


def test_profile_word_on_27_letters_needs_no_search(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(syncword.sync, "shortest_reset_word", None)
    path = tmp_path / "wide.dfa"
    path.write_text("2 27\n" + "1 1\n" * 27)
    code, out, _ = run(capsys, "profile", str(path), "--word", "a", "--csv")
    assert code == 0
    assert out.startswith("suffix_length,value\n")


def test_reset_word_env_capacity(monkeypatch, capsys):
    monkeypatch.setenv("SYNCWORD_SUBSET_LIMIT", "3")
    code, _, err = run(capsys, "reset-word", "cerny:4")
    assert code == 3
    assert "capacity" in err


CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from syncword.cli import entry
entry()
"""


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child under a timeout and a 1 GiB address-space cap."""
    src = str(Path(syncword.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": src})


def test_input_too_large_to_build_exits_3():
    # examples builds any cerny:N, here two rows of 3*10^8 entries
    proc = run_capped("examples", "cerny:300000000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "capacity error: out of memory\n"


@pytest.mark.parametrize("argv", [["reset-word"], ["verify"], ["profile"]],
                         ids=lambda argv: argv[0])
def test_cerny_over_the_subset_cap_exits_3_before_it_is_built(argv):
    proc = run_capped(*argv, "cerny:300000000")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("capacity error: subset BFS over 2^300000000 "
                           "states exceeds cap 24\n")


def test_reset_word_reads_json_file(tmp_path, capsys):
    d = Dfa(2, 2, ((1, 1), (0, 1)))
    path = tmp_path / "auto.json"
    path.write_text('{"n": 2, "k": 2, "delta": [[1, 1], [0, 1]]}')
    code, out, _ = run(capsys, "reset-word", str(path))
    assert code == 0
    assert "length 1" in out


@pytest.mark.parametrize("text, bad", [
    ('{"n": "x", "k": 1, "delta": [[0]]}', '"x"'),
    ('{"n": 2, "k": 1, "delta": 5}', "delta"),
    ('{"n": 2, "k": 1, "delta": [[0, 1.7]]}', "1.7"),
    ('{"n": 2, "k": true, "delta": [[0, 1]]}', "true"),
    ('{"n": 2, "k": 1, "delta": ["01"]}', "delta"),
])
def test_reset_word_rejects_non_integer_json(tmp_path, capsys, text, bad):
    path = tmp_path / "auto.json"
    path.write_text(text)
    code, out, err = run(capsys, "reset-word", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error:") and bad in err


# ---------------------------------------------------------------------------
# profile

def test_profile_default_word(capsys):
    code, out, _ = run(capsys, "profile", "kari")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suffix_length,value"
    assert "25,5" in lines
    assert "bound,count" in lines
    assert "4,6" in lines


def test_profile_csv_only(capsys):
    code, out, _ = run(capsys, "profile", "kari", "--csv")
    assert code == 0
    assert "bound,count" not in out
    assert len(out.splitlines()) == 27  # header + 26 suffix rows


def test_profile_explicit_word_and_q(capsys):
    code, out, _ = run(capsys, "profile", "cerny:4", "--word", "baaab", "--q", "1")
    assert code == 0
    assert out.splitlines()[1] == "0,0"


def test_profile_json(capsys):
    code, out, _ = run(capsys, "profile", "roman", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 4
    assert data["threshold_counts"]["1"] == 16
    assert len(data["profile"]) == 17


def test_profile_needs_q_for_non_reset_word(capsys):
    code, _, err = run(capsys, "profile", "cerny:4", "--word", "ab")
    assert code == 1
    assert "--q" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_cerny5_json(capsys):
    code, out, _ = run(capsys, "verify", "cerny:5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(check["passed"] for check in data["checks"])
    assert any(check["name"] == "reset-length" for check in data["checks"])


def test_verify_text_summary(capsys):
    code, out, _ = run(capsys, "verify", "cerny:3")
    assert code == 0
    assert "[PASS]" in out
    assert "summary:" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_verdict_survives_optimize_flag(tmp_path, flags):
    # the near-sync completion claim fails here; -O strips asserts, not checks
    path = tmp_path / "near.dfa"
    path.write_text("4 2\n0 0 0 3\n0 3 3 1\n")
    src = str(Path(syncword.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "syncword.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src})
    assert proc.returncode == 2
    assert "[FAIL] near-sync-suffixes: no letter completes" in proc.stdout
    assert proc.stdout.endswith("summary: 23/24 passed\n")


@pytest.mark.parametrize("table", [
    "1 1\n0\n",
    "1 2\n0\n0\n",
    "2 3\n0 1\n0 0\n1 0\n",
    "3 4\n1 2 0\n1 1 2\n0 0 1\n2 0 1\n",
])
def test_verify_one_state_and_more_letters_than_states(tmp_path, capsys, table):
    path = tmp_path / "small.dfa"
    path.write_text(table)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "FAIL" not in out


def test_verify_rejects_nine_letters_before_any_work(tmp_path, capsys,
                                                    monkeypatch):
    searched = []
    monkeypatch.setattr(syncword.sync, "shortest_reset_word",
                        lambda *args: searched.append(args))
    path = tmp_path / "wide.dfa"
    path.write_text("2 9\n" + "0 0\n" * 9)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "capacity error" in err
    assert out == ""
    assert searched == []


@pytest.mark.parametrize("text, expected", [
    # 25 states: past the default subset cap of 24
    ("25 2\n" + " ".join(str((p + 1) % 25) for p in range(25)) + "\n"
     + "1 " + " ".join(str(p) for p in range(1, 25)) + "\n", 3),
    # two permutations: no reset word
    ("3 2\n1 2 0\n1 0 2\n", 2),
], ids=["past-subset-cap", "not-synchronizing"])
def test_verify_builds_no_word_pool_before_the_search_succeeds(
        tmp_path, capsys, monkeypatch, text, expected):
    pools = []
    real = syncword.enumeration._word_pool
    monkeypatch.setattr(syncword.enumeration, "_word_pool",
                        lambda dfa: pools.append(dfa) or real(dfa))
    path = tmp_path / "auto.dfa"
    path.write_text(text)
    code, _, _ = run(capsys, "verify", str(path))
    assert code == expected
    assert pools == []
    # a synchronizing table does build it
    assert run(capsys, "verify", "cerny:3")[0] == 0
    assert len(pools) == 1


@st.composite
def small_tables(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return f"{n} {k}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_verify_exit_code_matches_verdict(table):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "t.dfa", Path(tmp) / "out.json"
        path.write_text(table)
        code = main(["verify", str(path), "--json", "--out", str(out)])
        assert code in (0, 2)
        assert (code == 0) == json.loads(out.read_text())["passed"]


# ---------------------------------------------------------------------------
# scan

def test_scan_text_summary(capsys):
    code, out, _ = run(capsys, "scan", "--n", "2", "--k", "2")
    assert code == 0
    assert "scanned: 16 tables" in out
    assert "max shortest reset length: 1" in out


def test_scan_json_stable_across_workers(capsys):
    code, out1, _ = run(capsys, "scan", "--n", "3", "--k", "2", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--n", "3", "--k", "2", "--json",
                        "--workers", "2")
    assert code == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["total"] == 729
    assert data["histogram"]["4"] == 24


def test_scan_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "scan", "--n", "2", "--k", "1",
                       "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["total"] == 4


def test_scan_out_file_with_json_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "scan", "--n", "2", "--k", "1",
                       "--out", str(path), "--json")
    assert code == 0
    assert json.loads(path.read_text())["total"] == 4
    assert out.encode() == path.read_bytes()


def test_scan_guard(capsys):
    code, _, err = run(capsys, "scan", "--n", "7", "--k", "3")
    assert code == 3
    assert "capacity" in err


def test_scan_guard_on_a_power_too_large_to_print(capsys):
    # 2000^4000 has far more digits than int-to-str conversion allows
    code, _, err = run(capsys, "scan", "--n", "2000", "--k", "2")
    assert code == 3
    assert "capacity error" in err


def test_scan_guard_on_one_state_and_a_long_alphabet(capsys):
    # a single table, but its scan would allocate O(k) before any output
    code, out, err = run(capsys, "scan", "--n", "1", "--k", "1000000000")
    assert code == 3 and out == ""
    assert err.startswith("capacity error: ")


# ---------------------------------------------------------------------------
# examples

def test_examples_dump_reparses(capsys):
    code, out, _ = run(capsys, "examples", "kari")
    assert code == 0
    from syncword import kari_automaton
    assert parse_dfa(out) == kari_automaton()


def test_examples_all(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("# cerny:4", "# kari", "# roman"):
        assert name in out


def test_examples_out_file(tmp_path, capsys):
    path = tmp_path / "roman.dfa"
    code, _, _ = run(capsys, "examples", "roman", "--out", str(path))
    assert code == 0
    from syncword import roman_automaton
    assert parse_dfa(path.read_text()) == roman_automaton()


# ---------------------------------------------------------------------------
# file errors end in exit 1 and one line on stderr, never a traceback

def assert_one_line_error(code, out, err, kind):
    assert code == 1 and out == ""
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1


def test_verify_on_a_directory(tmp_path, capsys):
    assert_one_line_error(*run(capsys, "verify", str(tmp_path)), "parse")


def test_input_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.dfa"
    path.write_bytes(b"# \xe9tat\n2 1\n0 0\n")
    assert_one_line_error(*run(capsys, "reset-word", str(path)), "parse")


def test_out_in_a_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert_one_line_error(*run(capsys, "reset-word", "kari", "--out", str(path)),
                          "usage")


def test_scan_out_to_a_directory(tmp_path, capsys):
    assert_one_line_error(*run(capsys, "scan", "--n", "2", "--k", "1",
                               "--out", str(tmp_path)), "usage")


def test_scan_out_is_checked_before_the_scan(tmp_path, capsys, monkeypatch):
    def no_scan(cfg):
        raise AssertionError("scanned before checking --out")

    monkeypatch.setattr(syncword.enumeration, "extremal_scan", no_scan)
    assert_one_line_error(*run(capsys, "scan", "--n", "4", "--k", "2",
                               "--out", str(tmp_path)), "usage")


def test_scan_capacity_error_writes_no_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, err = run(capsys, "scan", "--n", "7", "--k", "3", "--out", str(path))
    assert code == 3 and err.startswith("capacity error: ")
    assert not path.exists()


@pytest.mark.parametrize("error", [
    cls for cls in vars(syncword.errors).values()
    if isinstance(cls, type) and cls.__module__ == syncword.errors.__name__],
    ids=lambda cls: cls.__name__)
def test_every_error_type_ends_in_an_exit_code_and_one_line(monkeypatch, capsys,
                                                             error):
    def failing(spec):
        raise error("boom")

    monkeypatch.setattr(syncword.cli, "load_input", failing)
    code, out, err = run(capsys, "verify", "kari")
    assert code in (1, 3) and out == ""
    assert err.endswith("boom\n") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# usage errors

def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "scan", "--n", "3")
    assert code == 1
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
