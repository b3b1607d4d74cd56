"""The benchmark's workloads: seeded inputs, op lists and output checks.

Each op is one `syncword.cli.main(argv)` call.  Inputs are generated from
the seed and written as text-format DFA files before anything is timed.
Every output is checked: against facts computed here from the raw tables,
against `sync.is_synchronizing` (pair merging, a different algorithm from
the subset search under test), and against golden outputs recorded from the
seed commit (`golden/<workload>.json`, keyed by input, so they apply to
whichever seed produces that input).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
LETTERS = "abcdefghijklmnopqrstuvwxyz"

WHY = {
    "reset": "reset-word on cerny:15..18, kari, roman and 540 seeded random "
             "n=16..24 DFAs: the Cerny ops set wall_s and peak_rss_mib through "
             "the exponential subset BFS, the short random ops set op_p50_ms "
             "through CLI, parsing and per-search set-up",
    "verify": "verify on kari, roman, cerny:5..7, a pinned near-sync "
              "counterexample and 104 seeded random n=3..6 DFAs: nearly all "
              "time is in the lemma battery (exact elimination and word-matrix "
              "composition); no scan runs and the BFS is negligible",
    "scan": "scan over the full n=4 k=2 space (plain, --strongly-connected, "
            "--canonical), n=3 k=3, and n=3 k=4 on 2 fork workers: nearly all "
            "time is in enumeration, the per-table BFS and canonical_flat; no "
            "linspace work and no sync search",
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Recorded with every result.
LAYER_MAP = {
    "cli.main.self_s": ["reset.op_p50_ms"],
    "automaton.calls": ["reset.op_p50_ms", "verify.wall_s"],
    "automaton.self_s": ["reset.op_p50_ms", "verify.wall_s"],
    "sync.shortest_reset_word.self_s": ["reset.wall_s", "reset.op_p50_ms"],
    "sync.subsets_expanded": ["reset.wall_s", "reset.peak_rss_mib"],
    "sync.us_per_subset": ["reset.wall_s", "reset.op_p50_ms"],
    "sync.checks.self_s": ["verify.wall_s"],
    "word_matrix.self_s": ["verify.wall_s"],
    "word_matrix.matrix_of_word.self_s": ["verify.wall_s"],
    "word_matrix.multiply.self_s": ["verify.wall_s"],
    "linspace.self_s": ["verify.wall_s", "verify.op_p90_ms"],
    "linspace.RowEchelon.add.self_s": ["verify.wall_s", "verify.op_p90_ms"],
    "linspace.RowEchelon.contains.self_s": ["verify.wall_s"],
    "linspace.SpanSolver.solve.self_s": ["verify.wall_s"],
    "linspace.SpanSolver.factor_s": ["verify.wall_s"],
    "linspace.add_useful_ratio": ["verify.wall_s"],
    "series.self_s": ["verify.wall_s"],
    "enumeration.extremal_scan.self_s": ["scan.wall_s", "scan.work_per_s"],
    "enumeration.canonical_flat.self_s": ["scan.wall_s", "scan.work_per_s"],
    "enumeration.us_per_table": ["scan.wall_s", "scan.work_per_s"],
    "enumeration.searched_ratio": ["scan.work_per_s"],
    "enumeration.verify_automaton.self_s": ["verify.wall_s"],
}

# Work units behind work_per_s, read from each op's output.
WORK_UNIT = {
    "reset": "subsets expanded (states_expanded of each synchronizing op)",
    "verify": "battery checks run",
    "scan": "raw tables covered, n^(nk) per scan",
}

OUT_OF_SCOPE = [
    "scan n=5 k=2: ~315 s in full; a slice needs the private _scan_chunk "
    "(waits for ROADMAP item 3)",
    "the profile command: trivial cost",
    "spans and per-check timing inside the program (ROADMAP item 5)",
]

# Checks of the battery on a synchronizing automaton with no pinned
# expectations, in output order; "last-letter" stands for one
# "last-letter-dimension-<c>" per letter that is not a permutation.
BATTERY = ["synchronizing", "reset-word-valid", "upper-bound", "image-monotone",
           "reset-matrix", "rank-by-columns", "basis-dimension",
           "basis-independence", "word-space-dimension", "last-letter",
           "coefficient-sum", "series-linearity", "constant-level-span",
           "letter-closure", "span-word-stability", "suffix-space-bound",
           "irreducible", "suffix-distinct", "near-sync-suffixes",
           "suffix-independence", "left-stability", "reset-collapse",
           "zero-class-composition"]

# Shortest reset lengths the paper gives for the named automata; the Cerny
# automaton with n states needs (n-1)^2.
KNOWN_LENGTHS = {"kari": 25, "roman": 16}

# A 4-state table on which near-sync completion fails (ROADMAP item 4).
PINNED_FAILING = "4 2\n0 0 0 3\n0 3 3 1\n"


@dataclass
class Op:
    argv: list[str]
    key: str                    # golden key: built-in name, table text or scan args
    delta: tuple | None = None  # raw table, letter-major
    synchronizing: bool = True  # verdict of sync.is_synchronizing
    length: int | None = None   # shortest reset length, computed here


def serialize(n: int, delta) -> str:
    return f"{n} {len(delta)}\n" + "".join(" ".join(map(str, row)) + "\n"
                                           for row in delta)


def random_table(rng: random.Random, n: int, k: int) -> tuple:
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))


def two_sink_table(rng: random.Random, n: int, k: int) -> tuple:
    """Random table in which states 0 and 1 are fixed by every letter.

    Never synchronizing, and its subset search stays small."""
    return tuple((0, 1) + tuple(rng.randrange(n) for _ in range(n - 2))
                 for _ in range(k))


def reset_search(delta, n: int) -> tuple[int | None, int]:
    """Shortest reset length (None if there is none) and the number of state
    sets seen, by a level-by-level search.

    Images of state sets are looked up a byte at a time: table[c][b][x] is
    the image under letter c of the states 8b + i for the set bits i of x."""
    chunks = range((n + 7) // 8)
    table = [[[0] * 256 for _ in chunks] for _ in delta]
    for row, per_letter in zip(delta, table):
        for b in chunks:
            lookup = per_letter[b]
            for x in range(1, 256):
                low = x & -x
                p = 8 * b + low.bit_length() - 1
                lookup[x] = lookup[x ^ low] | (1 << row[p] if p < n else 0)
    level = [(1 << n) - 1]
    seen = set(level)
    length = 0
    while level:
        if any(s & (s - 1) == 0 for s in level):
            return length, len(seen)
        length += 1
        nxt = []
        for s in level:
            for per_letter in table:
                t = 0
                for b in chunks:
                    t |= per_letter[b][s >> (8 * b) & 255]
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        level = nxt
    return None, len(seen)


def _builtin_table(name: str) -> tuple:
    from syncword.automaton import builtin_automaton
    return builtin_automaton(name).delta


def _random_ops(rng, workdir: Path, command: str, sizes, letters,
                sync_per: int, sink_per: int, oversample: int = 1) -> list[Op]:
    """Per (n, k): `sync_per` random synchronizing tables, `sink_per` two-sink ones.

    With `oversample` > 1, `oversample` times as many synchronizing tables
    are drawn, sorted by the size of their subset search (reset_search), and
    the middle one of each run of `oversample` is kept.  Every seed then gets
    the same spread of search sizes, so the per-op latency percentiles
    depend less on the seed."""
    from syncword.automaton import Dfa
    from syncword.sync import is_synchronizing
    ops = []
    for n in sizes:
        for k in letters:
            drawn = []
            while len(drawn) < sync_per * oversample:
                delta = random_table(rng, n, k)
                # non-synchronizing draws are rare and their subset search
                # can be huge; two-sink tables stand in for them
                if is_synchronizing(Dfa(n, k, delta)):
                    drawn.append(delta)
            if oversample > 1:
                sizes_seen = {delta: reset_search(delta, n)[1] for delta in drawn}
                drawn.sort(key=sizes_seen.__getitem__)
            tables = drawn[oversample // 2::oversample]
            tables += [two_sink_table(rng, n, k) for _ in range(sink_per)]
            for delta in tables:
                text = serialize(n, delta)
                path = workdir / f"dfa{len(ops):03d}_{n}_{k}.txt"
                path.write_text(text)
                ops.append(Op([command, str(path), "--json"], "table:" + text, delta))
    return ops


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The op list of one workload, in a seeded order."""
    from syncword.automaton import Dfa
    from syncword.sync import is_synchronizing
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "reset":
        for name in ("cerny:15", "cerny:16", "cerny:17", "cerny:18", "kari", "roman"):
            ops.append(Op(["reset-word", name, "--json"], name, _builtin_table(name)))
        ops += _random_ops(rng, workdir, "reset-word", range(16, 25), (2, 3), 27, 3,
                           oversample=8)
    elif workload == "verify":
        for name in ("kari", "roman", "cerny:5", "cerny:6", "cerny:7"):
            ops.append(Op(["verify", name, "--json"], name, _builtin_table(name)))
        path = workdir / "pinned_near_sync.txt"
        path.write_text(PINNED_FAILING)
        ops.append(Op(["verify", str(path), "--json"], "table:" + PINNED_FAILING,
                      ((0, 0, 0, 3), (0, 3, 3, 1))))
        ops += _random_ops(rng, workdir, "verify", range(3, 7), (2, 3), 11, 2)
    elif workload == "scan":
        for args, workers in ((["--n", "4", "--k", "2"], 1),
                              (["--n", "4", "--k", "2", "--strongly-connected"], 1),
                              (["--n", "4", "--k", "2", "--canonical"], 1),
                              (["--n", "3", "--k", "3"], 1),
                              (["--n", "3", "--k", "4"], 2)):
            argv = ["scan", *args, "--workers", str(workers), "--json"]
            ops.append(Op(argv, " ".join(["scan", *args])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        if op.delta is None:
            continue
        n = len(op.delta[0])
        op.synchronizing = is_synchronizing(Dfa(n, len(op.delta), op.delta))
        if workload == "reset" and op.synchronizing:
            op.length = KNOWN_LENGTHS.get(op.key) or (
                (n - 1) ** 2 if op.key.startswith("cerny:")
                else reset_search(op.delta, n)[0])
    rng.shuffle(ops)
    return ops


def input_digest(ops: list[Op]) -> str:
    """Digest of the inputs: each op's golden key (the table text for files)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.key.encode() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks

class CheckError(Exception):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None


def summarize_output(workload: str, rc, out: str) -> dict:
    """The part of an op's output that goldens pin down."""
    if workload == "scan":
        return {"rc": rc, "stdout": out}
    payload = _json(out)
    if workload == "reset":
        keys = ("synchronizing", "length", "word", "target")
        return {"rc": rc, **{k: payload[k] for k in keys if k in payload}}
    return {"rc": rc, "checks": [[c["name"], c["passed"]]
                                 for c in payload.get("checks", [])]}


def _check_reset(op: Op, rc, payload: dict):
    _expect(payload.get("synchronizing") is op.synchronizing,
            f"synchronizing={payload.get('synchronizing')}, "
            f"is_synchronizing says {op.synchronizing}")
    if not op.synchronizing:
        _expect(rc == 2, f"exit code {rc}, expected 2")
        return
    _expect(rc == 0, f"exit code {rc}, expected 0")
    word = [LETTERS.index(ch) for ch in payload["word"]]
    ends = set()
    for p in range(len(op.delta[0])):
        for c in word:
            p = op.delta[c][p]
        ends.add(p)
    _expect(ends == {payload["target"]},
            f"word {payload['word']} sends the states to {sorted(ends)}, "
            f"target {payload['target']}")
    _expect(payload["length"] == len(word) == op.length,
            f"length {payload['length']} (word {len(word)}), expected {op.length}")


def _check_verify(op: Op, rc, payload: dict):
    checks = payload["checks"]
    names = [c["name"] for c in checks]
    passed = [c["passed"] for c in checks]
    _expect(rc in (0, 2), f"exit code {rc}")
    _expect((rc == 0) == all(passed) == payload["passed"],
            f"exit code {rc} vs passed={payload['passed']}")
    _expect(names[:1] == ["synchronizing"] and passed[0] is op.synchronizing,
            f"synchronizing verdict {passed[:1]}, is_synchronizing says "
            f"{op.synchronizing}")
    if not op.synchronizing:
        _expect(names == ["synchronizing"], f"checks after a failed search: {names}")
    elif op.key.startswith("table:"):
        expected = []
        for name in BATTERY:
            if name == "last-letter":
                expected += [f"last-letter-dimension-{LETTERS[c]}"
                             for c, row in enumerate(op.delta)
                             if len(set(row)) < len(row)]
            else:
                expected.append(name)
        _expect(names == expected, f"check names {names}")


def check_output(workload: str, op: Op, rc, out: str, golden: dict) -> None:
    """Raise CheckError when an op's output is wrong."""
    _expect(isinstance(rc, int), f"raised {rc}")
    if workload == "reset":
        _check_reset(op, rc, _json(out))
    elif workload == "verify":
        _check_verify(op, rc, _json(out))
    else:
        _expect(rc == 0, f"exit code {rc}")
    if op.key in golden:
        got = summarize_output(workload, rc, out)
        _expect(got == golden[op.key], f"differs from golden: {got}")
    elif workload == "scan":
        raise CheckError("no golden report for this scan")


def work_units(workload: str, out: str) -> int:
    """Work done by one op, read from its output (see WORK_UNIT)."""
    payload = json.loads(out)
    if workload == "reset":
        return payload.get("states_expanded", 0)
    if workload == "verify":
        return len(payload["checks"])
    return payload["n"] ** (payload["n"] * payload["k"])


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}
