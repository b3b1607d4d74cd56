"""Exhaustive scans over small complete DFAs and the assertion battery.

Transition tables are flattened letter-major (flat[c*n + p] = delta(p, c))
and identified with base-n numerals in [0, n^(nk)), their table index.
Reordering the letters changes neither the reset length nor strong
connectivity, so a scan walks the multisets of k letter maps, searches
each once, and counts it for every table it stands for.  The multisets
are dealt round-robin to forked workers, and the merged report is
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import marshal
import os
import random
from functools import cache
from itertools import combinations_with_replacement, islice, permutations, product
from math import comb
from typing import BinaryIO, Callable, Iterator, Sequence

from . import linspace, series, sync
from .automaton import (Dfa, Word, image, KARI_WORD, ROMAN_WORD, suffix_maps,
                        table_strongly_connected, word_to_str, _image_table,
                        _strongly_connected)
from .errors import CapacityError, DfaError
from .word_matrix import (WordMatrix, dense, matrix_of_word, matrices_of_letters,
                          multiply, nonzero_columns, rank)

ENUMERATION_GUARD = 10 ** 9
CANONICAL_MAX_N = 5
# image-monotone looks up ordered pairs of pool words of length <= 3, at
# most (k^3+k^2+k+1)^2 of them: 342,225 at k = 8
VERIFY_MAX_K = 8


class ScanConfig:
    """Parameters of an exhaustive scan over all n-state, k-letter tables;
    building one runs the capacity guard, so every config is small enough."""

    __slots__ = ("n", "k", "require_strongly_connected", "worker_count",
                 "canonicalize")

    def __init__(self, n: int, k: int, require_strongly_connected: bool = False,
                 worker_count: int = 1, canonicalize: bool = False):
        # as in Dfa: bool is an int subclass, and a float or a str would
        # pass these tests or fail inside the scan
        if type(n) is not int or type(k) is not int or n < 1 or k < 1:
            raise DfaError(f"n and k must be positive integers, got {n!r} {k!r}")
        if type(worker_count) is not int or worker_count < 1:
            raise DfaError(f"worker_count must be a positive integer, got {worker_count!r}")
        # a truthy int or str would scan, but be echoed as is in the report
        if (type(require_strongly_connected) is not bool
                or type(canonicalize) is not bool):
            raise DfaError("require_strongly_connected and canonicalize must be "
                           f"bool, got {require_strongly_connected!r} {canonicalize!r}")
        nk = n * k
        # from this exponent on, n > 1 gives n^nk >= 2^nk tables, and n = 1
        # one table whose scan still costs O(k); the power is never built
        if nk >= ENUMERATION_GUARD.bit_length() or n ** nk > ENUMERATION_GUARD:
            raise CapacityError(f"{n}^{nk} tables: the enumeration guard needs "
                                f"n*k < 30 and at most {ENUMERATION_GUARD} tables")
        if canonicalize and n > CANONICAL_MAX_N:
            raise CapacityError(
                f"canonicalization is O(n!) per table; capped at n <= {CANONICAL_MAX_N}")
        self.n = n
        self.k = k
        self.require_strongly_connected = require_strongly_connected
        self.worker_count = worker_count
        self.canonicalize = canonicalize


def flat_to_dfa(flat: Sequence[int], n: int, k: int) -> Dfa:
    return Dfa(n, k, tuple(tuple(flat[c * n:(c + 1) * n]) for c in range(k)))


# (perm, src): entry j of the relabeled table is perm[flat[src[j]]]
Relabeling = tuple[tuple[int, ...], tuple[int, ...]]


@cache
def _relabelings(n: int, k: int) -> tuple[Relabeling, ...]:
    """Every relabeling but the identity, as (perm, src) pairs."""
    out = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        out.append((perm, tuple(c * n + inv[q] for c in range(k) for q in range(n))))
    return tuple(out)


def canonical_flat(flat: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """Lexicographically least table over all state relabelings.

    Each relabeling is compared with the least table so far only up to
    their first differing entry, and built in full only when it is smaller.
    """
    best = tuple(flat)
    for perm, src in _relabelings(n, k):
        for j, s in enumerate(src):
            t = perm[flat[s]]
            if t != best[j]:
                if t < best[j]:
                    best = tuple([perm[flat[s]] for s in src])
                break
    return best


def _is_canonical(flat: Sequence[int], relabelings: Sequence[Relabeling]) -> bool:
    """Is the table no greater than any of its relabelings?

    Equivalent to tuple(flat) == canonical_flat(flat, n, k), but stops at
    the first relabeling smaller than the table.
    """
    for perm, src in relabelings:
        for j, s in enumerate(src):
            t = perm[flat[s]]
            if t != flat[j]:
                if t < flat[j]:
                    return False
                break
    return True


def _multiset_walk(n: int, k: int) -> tuple[Iterator[tuple[int, ...]],
                                            Callable[[int], Sequence[int]]]:
    """Each multiset of k letter maps once, and the map of a value.

    A multiset is a non-decreasing tuple of map values, base-n numerals in
    [0, n^n), and the multisets come in lexicographic order.  For k >= 2,
    n <= 5 under the enumeration guard, so the maps are read from a list
    of at most 3,125.  For k = 1 each value is decoded instead: n^n maps
    may not fit in memory, and combinations_with_replacement copies its
    whole pool.
    """
    if k > 1:
        return (combinations_with_replacement(range(n ** n), k),
                list(product(range(n), repeat=n)).__getitem__)

    def letter_map(value: int) -> list[int]:
        m = []
        for _ in range(n):
            value, t = divmod(value, n)
            m.append(t)
        m.reverse()
        return m

    return zip(range(n ** n)), letter_map


def _arrangement_count(values: Sequence[int]) -> int:
    """Distinct orders of a non-decreasing list: k!/prod(m_i!) over its runs."""
    count = run = 1
    for i in range(1, len(values)):
        run = run + 1 if values[i] == values[i - 1] else 1
        count = count * (i + 1) // run
    return count


def _counted_tables(values: Sequence[int], letter_map: Callable[[int], Sequence[int]],
                    fixers: dict[int, list[Relabeling]] | None) -> Iterator[list[int]]:
    """The tables a multiset stands for, in index order.

    values and letter_map are as _multiset_walk gives them.  The tables are
    the distinct letter orders of the multiset's maps; in a canonical scan
    (fixers given) only those that pass _is_canonical.  Relabeling acts on
    each letter's map alone, so a canonical table starts with a canonical
    one-letter table, and only the relabelings that fix that first map can
    make the table smaller: fixers maps each canonical map to those
    relabelings.
    """
    blocks = {v: letter_map(v) for v in values}
    order = list(values)
    k = len(order)
    while True:
        if fixers is None:
            yield [t for v in order for t in blocks[v]]
        elif order[0] in fixers:
            table = [t for v in order for t in blocks[v]]
            if _is_canonical(table, fixers[order[0]]):
                yield table
        # the next distinct order, in lexicographic order
        i = k - 2
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = k - 1
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1:] = order[:i:-1]


def _canonical_map_fixers(n: int, k: int) -> dict[int, list[Relabeling]]:
    """Each canonical one-letter map, by value, with the k-letter
    relabelings that leave it unchanged."""
    one_letter = _relabelings(n, 1)
    relabelings = _relabelings(n, k)
    out = {}
    for value, m in enumerate(product(range(n), repeat=n)):
        if _is_canonical(m, one_letter):
            out[value] = [(perm, src) for perm, src in relabelings
                          if all(perm[m[s]] == m[j] for j, s in enumerate(src[:n]))]
    return out


def _map_masks(n: int) -> tuple[list[int], list[int], list[int]]:
    """Each one-letter map m, by value: its forward and reversed edge masks
    and its relation mask.

    The edge masks have bit p*n + m[p] and bit m[p]*n + p; ORed over the
    letters, they are the table's adjacency as
    automaton._strongly_connected takes it.  The relation mask keeps only
    the edges p -> t with t != p, as bit p*(n-1) + (t if t < p else t-1),
    so n(n-1) bits in all.  Self-loops never change strong connectivity,
    so tables whose letters OR to the same relation mask share it.
    """
    forward, backward, moves = [], [], []
    for m in product(range(n), repeat=n):
        fwd = bwd = move = 0
        for p, t in enumerate(m):
            if t != p:
                move |= 1 << p * (n - 1) + (t if t < p else t - 1)
            fwd |= 1 << p * n + t
            bwd |= 1 << t * n + p
        forward.append(fwd)
        backward.append(bwd)
        moves.append(move)
    return forward, backward, moves


def _reset_length(images: list[list[int]], n: int) -> int | None:
    """Minimal reset length by subset BFS over per-letter image rows.

    The answer does not depend on the order of the rows, so one search
    serves every letter order of a table.  The queue is a plain list that
    the loop walks while it grows, first in, first out.
    """
    full = (1 << n) - 1
    if full & (full - 1) == 0:
        return 0
    dist = [-1] * (full + 1)
    dist[full] = 0
    queue = [full]
    for s in queue:
        d = dist[s] + 1
        for row in images:
            t = row[s]
            if dist[t] < 0:
                if t & (t - 1) == 0:
                    return d
                dist[t] = d
                queue.append(t)
    return None


class ScanReport:
    """Aggregate of one enumeration run; serializes to stable JSON."""

    __slots__ = ("n", "k", "require_strongly_connected", "canonicalize", "total",
                 "synchronizing", "histogram", "max_length", "max_length_count",
                 "witnesses", "upper_bound_violations", "conjecture_counterexamples")

    def __init__(self, n: int, k: int, require_strongly_connected: bool,
                 canonicalize: bool):
        self.n = n
        self.k = k
        self.require_strongly_connected = require_strongly_connected
        self.canonicalize = canonicalize
        self.total = 0
        self.synchronizing = 0
        self.histogram: dict[int, int] = {}
        self.max_length = 0
        self.max_length_count = 0
        self.witnesses: list[tuple[int, ...]] = []
        self.upper_bound_violations: list[tuple[int, ...]] = []
        self.conjecture_counterexamples: list[tuple[int, ...]] = []

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["histogram"] = {str(length): count
                            for length, count in sorted(self.histogram.items())}
        for name in ("witnesses", "upper_bound_violations", "conjecture_counterexamples"):
            out[name] = [list(t) for t in out[name]]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# entries of _scan_chunk's verdict table; 0 is unknown
_CONNECTED = 1
_DISCONNECTED = 2
# exit status of a forked scan worker that ran out of memory
_OUT_OF_MEMORY = 3


def _scan_chunk(n: int, k: int, require_sc: bool, canonical: bool,
                worker: int, workers: int) -> dict:
    """Scan the letter-map multisets whose rank is worker modulo workers.

    One BFS per multiset, weighted by the number of tables it stands for;
    a letter's image row is rebuilt only when its map value changes.
    Each multiset is checked cheapest test first: a canonical scan skips
    those with no canonical first map, then a strongly connected scan
    looks the multiset up by its letters' relation masks ORed in a verdict
    table of 2^(n(n-1)) bytes (unknown, connected or not), and only on a
    miss ORs their edge masks and runs the reachability sweep; then comes
    the weight, then the BFS.  The masks and the verdict table are built
    only for k >= 2, where n <= 5 under the enumeration guard, so never
    for more than 3,125 maps or 1 MiB of verdicts; with one letter each
    map is tested alone.  They are local to the call: workers share
    nothing.
    The maximal multisets are canonicalized once, after the maximum is
    known, and the violation lists hold each counted table.
    """
    cube = (n ** 3 - n) // 6
    cerny_bound = (n - 1) ** 2
    fixers = _canonical_map_fixers(n, k) if canonical else None
    hist: dict[int, int] = {}
    total = 0
    max_len = 0
    max_count = 0
    maximal: list[tuple[int, ...]] = []
    too_long: list[tuple[int, ...]] = []
    beyond_conjecture: list[tuple[int, ...]] = []
    multisets, letter_map = _multiset_walk(n, k)
    # images[c] is the image table of built[c], the value of letter c's map
    images: list[list[int]] = [[]] * k
    built = [-1] * k
    verdicts = None
    if require_sc and k > 1:
        forward, backward, moves = _map_masks(n)
        verdicts = bytearray(1 << n * (n - 1))
    for values in islice(multisets, worker, None, workers):
        if fixers is not None and fixers.keys().isdisjoint(values):
            continue
        if verdicts is not None:
            relation = 0
            for v in values:
                relation |= moves[v]
            verdict = verdicts[relation]
            if not verdict:
                fwd = bwd = 0
                for v in values:
                    fwd |= forward[v]
                    bwd |= backward[v]
                verdict = verdicts[relation] = (
                    _CONNECTED if _strongly_connected(fwd, bwd, n) else _DISCONNECTED)
            if verdict != _CONNECTED:
                continue
        elif require_sc and not table_strongly_connected(
                [t for v in values for t in letter_map(v)], n):
            continue
        weight = (_arrangement_count(values) if fixers is None else
                  sum(1 for _ in _counted_tables(values, letter_map, fixers)))
        if not weight:
            continue
        total += weight
        for c, v in enumerate(values):
            if built[c] != v:
                built[c] = v
                images[c] = _image_table(letter_map(v))
        length = _reset_length(images, n)
        if length is None:
            continue
        hist[length] = hist.get(length, 0) + weight
        if length > max_len:
            max_len, max_count, maximal = length, 0, []
        if length == max_len:
            max_count += weight
            maximal.append(values)
        if length > cerny_bound:  # the cube bound is never below it
            tables = [tuple(t) for t in _counted_tables(values, letter_map, fixers)]
            beyond_conjecture += tables
            if length > cube:
                too_long += tables
    witnesses = {canonical_flat(t, n, k) for values in maximal
                 for t in _counted_tables(values, letter_map, fixers)}
    return {
        "total": total,
        "histogram": hist,
        "max_length": max_len,
        "max_length_count": max_count,
        "witnesses": witnesses,
        "upper_bound_violations": too_long,
        "conjecture_counterexamples": beyond_conjecture,
    }


def _fork_chunk(task: tuple) -> tuple[int, BinaryIO]:
    """Fork a child that scans one chunk: (its pid, the pipe it writes to).

    The child sends its partial through the pipe with marshal and leaves
    through os._exit, with status _OUT_OF_MEMORY and no traceback if the
    scan ran out of memory, and status 1 if it raised anything else.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                marshal.dump(_scan_chunk(*task), pipe)
            status = 0
        except MemoryError:
            status = _OUT_OF_MEMORY
        except BaseException:
            import traceback
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _forked_chunks(tasks: list[tuple]) -> list[dict]:
    """Partials of the tasks, in task order, each scanned in a forked child.

    Every child is reaped, also when one fails or the parent is
    interrupted; then the children still running are killed first.  A
    child that ran out of memory raises MemoryError, any other failure
    RuntimeError.
    """
    import signal  # here, not at the top: only forking scans pay its import
    children: list[tuple[int, BinaryIO]] = []
    statuses = []
    done = False
    try:
        for task in tasks:
            children.append(_fork_chunk(task))
        data = [pipe.read() for _, pipe in children]
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if _OUT_OF_MEMORY in statuses:
        raise MemoryError
    for status in statuses:
        if status:
            raise RuntimeError(f"a scan worker failed with exit status {status}")
    return [marshal.loads(d) for d in data]


def extremal_scan(cfg: ScanConfig) -> ScanReport:
    """Scan every table, collect the reset-length histogram and extremes.

    Tables that differ only in the order of their letters share a reset
    length and strong connectivity, so each multiset of letter maps is
    searched once.  Deterministic for a given (n, k, filters) regardless of
    worker_count: multisets are dealt to workers round-robin by rank, the
    partials are summed, and witnesses and violations are reported sorted,
    which is table-index order.  At most os.cpu_count() workers are forked,
    and no more than there are multisets.
    """
    n, k = cfg.n, cfg.k
    workers = min(cfg.worker_count, comb(n ** n + k - 1, k), os.cpu_count() or 1)
    tasks = [(n, k, cfg.require_strongly_connected, cfg.canonicalize, i, workers)
             for i in range(workers)]
    partials = ([_scan_chunk(*tasks[0])] if workers == 1
                else _forked_chunks(tasks))

    report = ScanReport(n=n, k=k,
                        require_strongly_connected=cfg.require_strongly_connected,
                        canonicalize=cfg.canonicalize)
    report.max_length = max(p["max_length"] for p in partials)
    witnesses: set[tuple[int, ...]] = set()
    for p in partials:
        report.total += p["total"]
        for length, c in p["histogram"].items():
            report.histogram[length] = report.histogram.get(length, 0) + c
        if p["max_length"] == report.max_length:
            report.max_length_count += p["max_length_count"]
            witnesses |= p["witnesses"]
        report.upper_bound_violations += p["upper_bound_violations"]
        report.conjecture_counterexamples += p["conjecture_counterexamples"]
    report.synchronizing = sum(report.histogram.values())
    report.witnesses = sorted(witnesses)
    report.upper_bound_violations.sort()
    report.conjecture_counterexamples.sort()
    return report


# ---------------------------------------------------------------------------
# the assertion battery

class CheckResult:
    """One check's verdict, with a counterexample or diagnostic as detail."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __eq__(self, other):
        if type(other) is not CheckResult:
            return NotImplemented
        return (self.name, self.passed, self.detail) == (other.name, other.passed,
                                                         other.detail)

    def __repr__(self):
        return (f"CheckResult(name={self.name!r}, passed={self.passed!r}, "
                f"detail={self.detail!r})")

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def claim_checks(dfa: Dfa, best: sync.ResetResult) -> list[CheckResult]:
    """The paper's claims about the minimal reset word of a search result.

    The suffix-space bound, irreducibility, distinct suffix q-columns and
    the near-synchronizing suffixes, in the battery's order; shared by
    `verify` and `reset-word --check-lemmas`.
    """
    s, q, n = best.word, best.target, dfa.n
    dims = series.suffix_space_dimensions(dfa, s, q)
    # level i has dimension at most (i-1)n+1; the first level above it fails
    over = next((i for i, dim in enumerate(dims, 1) if dim > (i - 1) * n + 1), None)
    found, failure = sync.near_sync_suffixes(dfa, best)
    return [CheckResult("suffix-space-bound", over is None,
                        f"dims {dims}" if over is None
                        else f"i={over}: {(dims[over - 1], over, n)}"),
            CheckResult("irreducible", sync.is_irreducible(dfa, s, q)),
            CheckResult("suffix-distinct", sync.suffix_distinctness_check(dfa, s, q)),
            CheckResult("near-sync-suffixes", failure is None,
                        failure or f"{len(found)} suffixes")]


def _word_pool(dfa: Dfa) -> list[Word]:
    """Deterministic sample: all words up to length 3 plus seeded longer ones."""
    pool: list[Word] = []
    for length in range(4):
        pool.extend(product(range(dfa.k), repeat=length))
    rng = random.Random(20240 + dfa.n * 31 + dfa.k)
    for _ in range(30):
        length = rng.randint(4, max(4, 2 * dfa.n))
        pool.append(tuple(rng.randrange(dfa.k) for _ in range(length)))
    return pool


def _image_lookup(M: WordMatrix) -> Callable[[int], int]:
    """The map from a set of rows (a bitmask) to the set of columns M sends
    it to, so that im(M_u·M) is the lookup of im(M_u).  Three lookups in
    M's chunk tables, chunks of ceil(n/3) rows as in the reset search; no
    2^n-entry table is built.
    """
    width = -(-M.n // 3)
    low, high = (1 << width) - 1, 2 * width
    t0, t1, t2 = sync._chunk_tables(M.rows, width)
    return lambda m: t0[m & low] | t1[m >> width & low] | t2[m >> high]


def _left_combination(M: WordMatrix, coeffs: Sequence[int],
                      flats: Sequence[Sequence[int]]) -> list[int]:
    """flatten(M·C) for C = sum(c_i G_i) over the flattened G_i, composing
    M with no G_i: row p of M·C is row M.rows[p] of C."""
    n = M.n
    C = [sum(c * f[i] for c, f in zip(coeffs, flats)) for i in range(n * n)]
    return [x for r in M.rows for x in C[r * n:r * n + n]]


def verify_automaton(dfa: Dfa, expect: dict | None = None) -> list[CheckResult]:
    """Run the whole lemma battery against one automaton.

    Failures are data, not errors: each check lands in the result list with
    a counterexample description.  `expect` may pin reset_length and
    threshold_counts {bound: count} for the known automata.  Raises
    CapacityError, before any work, when k exceeds VERIFY_MAX_K.
    """
    if dfa.k > VERIFY_MAX_K:
        raise CapacityError(f"the battery's word pairs grow as k^6; "
                            f"{dfa.k} letters exceed the cap {VERIFY_MAX_K}")
    expect = expect or {}
    results: list[CheckResult] = []
    n = dfa.n

    def check(check_name: str, passed: bool, detail: str = ""):
        results.append(CheckResult(check_name, bool(passed), detail))

    def counterexample(w: Word | None) -> str:
        return "" if w is None else f"counterexample {word_to_str(w) or 'ε'}"

    # reset word and basic facts
    best = sync.shortest_reset_word(dfa)
    check("synchronizing", best is not None,
          "" if best else "no reset word exists")
    if best is None:
        return results
    s_min, q = best.word, best.target
    check("reset-word-valid", image(dfa, dfa.full_set, s_min) == 1 << q,
          word_to_str(s_min))
    if "reset_length" in expect:
        check("reset-length", best.length == expect["reset_length"],
              f"got {best.length}, expected {expect['reset_length']}")
    cube = (n ** 3 - n) // 6
    check("upper-bound", best.length <= cube,
          f"length {best.length} vs bound {cube}")
    # built only now: the search's subset cap fires first, and a table that
    # does not synchronize needs no pool
    pool = _word_pool(dfa)

    # each pool word's matrix and series value, built once.  Every per-word
    # check reads a word's matrix, or its matrix and its value, so it runs
    # over the first pool word of each (matrix, value) pair, in pool order,
    # and still reports the pool's first counterexample.  The value stays in
    # the key: series-linearity tests that it is a function of the matrix.
    mat = {w: matrix_of_word(dfa, w) for w in dict.fromkeys(pool)}
    val = {w: series.series_value(dfa, w, q) for w in mat}
    first: dict[tuple, Word] = {}
    for w in pool:
        first.setdefault((mat[w].rows, val[w]), w)
    words = list(first.values())
    vec = {w: linspace.flatten(mat[w]) for w in words}

    # image monotonicity: columns of a longer word sit inside its suffix's;
    # the words of length <= 3 come first in the pool.  The lookups are
    # made one s at a time, s outermost, so the first failing pair in
    # u-major order is the one with the least u, and after a failure only
    # lesser u are read.
    short = [w for w in words if len(w) <= 3]
    imgs = [nonzero_columns(mat[w]) for w in short]
    bad, bad_at = None, len(short)
    for s, img_s in zip(short, imgs):
        image_of, outside = _image_lookup(mat[s]), ~img_s
        i = next((i for i in range(bad_at) if image_of(imgs[i]) & outside), None)
        if i is not None:
            bad, bad_at = (short[i], s), i
    check("image-monotone", bad is None, f"counterexample {bad}" if bad else "")

    # reset matrix shape and rank-by-columns
    M_min = matrix_of_word(dfa, s_min)
    check("reset-matrix", nonzero_columns(M_min) == 1 << q and rank(M_min) == 1)
    bad = next((w for w in words
                if rank(mat[w]) != linspace.span_dimension(dense(mat[w]))), None)
    check("rank-by-columns", bad is None, counterexample(bad))

    # matrix space dimensions; with k >= n letters the n support columns
    # span every row-functional matrix, n(n-1)+1 dimensions
    support = min(dfa.k, n)
    basis = linspace.standard_basis(n, support)
    dim = linspace.span_dimension(basis)
    check("basis-dimension", dim == n * (support - 1) + 1,
          f"got {dim}, expected {n * (support - 1) + 1}")
    check("basis-independence", dim == len(basis))
    ech, witnesses = linspace.word_matrix_span(dfa)
    check("word-space-dimension", ech.dimension <= n * (n - 1) + 1,
          f"dim {ech.dimension}")
    for c, Mc in enumerate(matrices_of_letters(dfa)):
        if nonzero_columns(Mc) != dfa.full_set:
            dim = linspace.span_dimension(
                [linspace.flatten(multiply(g, Mc)) for _, g in witnesses])
            check(f"last-letter-dimension-{word_to_str((c,))}",
                  dim <= (n - 1) ** 2, f"dim {dim} vs {(n - 1) ** 2}")

    # decomposition coefficient sums and series linearity: the witnesses are
    # independent, so when M_u = sum(lam_i M_wi), reducing [M_u | 1 | value(u)]
    # by the rows [M_wi | 1 | value(wi)] leaves
    # [0 | 1 - sum(lam_i) | value(u) - sum(lam_i value(wi))]
    flats = [linspace.flatten(g) for _, g in witnesses]
    span = linspace.RowEchelon(n * n, tail=2)
    for (w, _), f in zip(witnesses, flats):
        span.add(f + (1, series.series_value(dfa, w, q)))
    bad_sum = bad_lin = None
    for w in words:
        *res, lin = span.residual(vec[w] + (1, val[w]))
        if any(res):
            if bad_sum is None:
                bad_sum = w
        elif lin and bad_lin is None:
            bad_lin = w
    check("coefficient-sum", bad_sum is None, counterexample(bad_sum))
    check("series-linearity", bad_lin is None, counterexample(bad_lin))

    # constant-level spans: a word matrix inside a level's span has that
    # value; the minimal word's suffix matrices are flattened once, by
    # length, the empty suffix first
    profile = series.suffix_profile(dfa, s_min, q)
    suffix_vecs = [linspace.flatten(WordMatrix(tuple(f)))
                   for f in reversed(suffix_maps(dfa, s_min))]
    ok, detail = True, ""
    for level in range(0, n - 1):
        members = [v for (_, value), v in zip(profile, suffix_vecs) if value == level]
        if len(members) < 2:
            continue
        lech = linspace.RowEchelon(n * n)
        for v in members:
            lech.add(v)
        bad = next((w for w in words if val[w] != level and lech.contains(vec[w])),
                   None)
        if bad is not None:
            ok, detail = False, f"{word_to_str(bad) or 'ε'} at level {level}"
    check("constant-level-span", ok, detail)

    # letter closure of the saturated span, with a randomized membership probe
    closed, witness = linspace.letter_closure_check(
        dfa, ech, [g for _, g in witnesses])
    check("letter-closure", closed, str(witness) if witness else "")
    rng = random.Random(7 * n + dfa.k)
    ok = True
    for _ in range(10):
        coeffs = [rng.randint(-2, 2) for _ in flats]
        t = pool[rng.randrange(len(pool))]
        # left multiplication is linear: M_t . sum(c_i G_i) = sum(c_i M_t G_i)
        if not ech.contains(_left_combination(mat[t], coeffs, flats)):
            ok = False
            break
    check("span-word-stability", ok)

    # the paper's claims about the minimal word
    results += claim_checks(dfa, best)
    # the suffix matrices span as many dimensions as there are of them, up
    # to the first that adds none
    sech = linspace.RowEchelon(n * n)
    i = next((i for i, v in enumerate(suffix_vecs) if not sech.add(v)), len(suffix_vecs))
    check("suffix-independence", linspace.span_dimension(suffix_vecs[:i]) == i)

    # left stability and reset collapse over sampled triples, on the
    # q-columns of M_u, M_v, M_a·M_u and M_a·M_v.  The columns of each
    # matrix and the product of each pair of matrices are built once, for
    # both checks.
    rng = random.Random(13 * n + dfa.k)
    triples = [(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))],
                pool[rng.randrange(len(pool))]) for _ in range(200)]
    cols: dict[tuple[int, ...], list[int]] = {}
    prods: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}

    def columns(rows: tuple[int, ...]) -> list[int]:
        if rows not in cols:
            cols[rows] = sync._columns(rows)
        return cols[rows]

    def product_columns(A: WordMatrix, B: WordMatrix) -> list[int]:
        key = A.rows, B.rows
        if key not in prods:
            prods[key] = columns(multiply(A, B).rows)
        return prods[key]

    quads = [(columns(mat[u].rows), columns(mat[v].rows),
              product_columns(mat[a], mat[u]), product_columns(mat[a], mat[v]))
             for a, u, v in triples]
    for check_name, first_failure in (("left-stability", sync.left_stability_check),
                                      ("reset-collapse", sync.reset_collapse_check)):
        bad = next(((a, u, v, qq) for (a, u, v), quad in zip(triples, quads)
                    if (qq := first_failure(*quad)) is not None),
                   None)
        check(check_name, bad is None, str(bad) if bad else "")

    # diagnostic only, never failed: composition of the value-0 q-class of
    # the identity (invertible members vs. singular members of rank > 1)
    zero_class = [w for w in pool if val[w] == 0 and sync.q_column(mat[w], q) == 1 << q]
    invertible = sum(1 for w in zero_class if nonzero_columns(mat[w]) == dfa.full_set)
    singular_big = sum(1 for w in zero_class if 1 < rank(mat[w]) < n)
    check("zero-class-composition", True,
          f"{len(zero_class)} sampled words: {invertible} invertible, "
          f"{singular_big} singular of rank > 1")

    # expected threshold counts, when pinned
    if "threshold_counts" in expect:
        got = {bound: series.threshold_count(profile, bound)
               for bound in expect["threshold_counts"]}
        check("threshold-counts", got == expect["threshold_counts"],
              f"got {got}, expected {expect['threshold_counts']}")
    if "paper_word" in expect:
        w = expect["paper_word"]
        img = image(dfa, dfa.full_set, w)
        check("known-word-synchronizes",
              img & (img - 1) == 0 and len(w) == best.length,
              word_to_str(w, group=5))
    return results


EXAMPLE_EXPECTATIONS = {
    "cerny:3": {"reset_length": 4},
    "cerny:4": {"reset_length": 9},
    "cerny:5": {"reset_length": 16},
    "cerny:6": {"reset_length": 25},
    "kari": {"reset_length": 25,
             "threshold_counts": {1: 25, 2: 17, 3: 11, 4: 6},
             "paper_word": KARI_WORD},
    "roman": {"reset_length": 16,
              "threshold_counts": {1: 16, 2: 10, 3: 4},
              "paper_word": ROMAN_WORD},
}
