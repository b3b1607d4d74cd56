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
from collections import deque
from functools import cache
from itertools import islice, permutations, product
from math import comb
from typing import BinaryIO, Iterator, Sequence

from . import linspace, series, sync
from .automaton import (Dfa, Word, image, KARI_WORD, ROMAN_WORD, suffix_maps,
                        table_strongly_connected, word_to_str)
from .errors import CapacityError, DfaError
from .word_matrix import (WordMatrix, dense, identity, matrix_of_word,
                          matrices_of_letters, multiply, nonzero_columns, rank)

ENUMERATION_GUARD = 10 ** 9
CANONICAL_MAX_N = 5
# image-monotone composes every ordered pair of pool words of length <= 3,
# (k^3+k^2+k+1)^2 of them: 342,225 at k = 8
VERIFY_MAX_K = 8


class ScanConfig:
    """Parameters of an exhaustive scan over all n-state, k-letter tables."""

    __slots__ = ("n", "k", "require_strongly_connected", "worker_count",
                 "canonicalize")

    def __init__(self, n: int, k: int, require_strongly_connected: bool = False,
                 worker_count: int = 1, canonicalize: bool = False):
        if n < 1 or k < 1:
            raise DfaError("n and k must be positive")
        if worker_count < 1:
            raise DfaError("worker_count must be positive")
        self.n = n
        self.k = k
        self.require_strongly_connected = require_strongly_connected
        self.worker_count = worker_count
        self.canonicalize = canonicalize

    @property
    def table_count(self) -> int:
        return self.n ** (self.n * self.k)

    def check_guard(self):
        nk = self.n * self.k
        # from this exponent on, n > 1 gives n^nk >= 2^nk tables, and n = 1
        # one table whose scan still costs O(k); the power is never built
        if nk >= ENUMERATION_GUARD.bit_length() or self.table_count > ENUMERATION_GUARD:
            raise CapacityError(f"{self.n}^{nk} tables: the enumeration guard needs "
                                f"n*k < 30 and at most {ENUMERATION_GUARD} tables")
        if self.canonicalize and self.n > CANONICAL_MAX_N:
            raise CapacityError(
                f"canonicalization is O(n!) per table; capped at n <= {CANONICAL_MAX_N}")


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


def _letter_multisets(n: int, k: int) -> Iterator[tuple[list[int], list[int]]]:
    """Each multiset of k letter maps once, as (values, flat).

    values holds the maps as base-n numerals in [0, n^n), non-decreasing,
    and flat is the table with those maps as its letters, in that order.
    Both lists are updated in place and yielded each time; only the k
    current maps are held, never a list of all n^n.
    """
    top = n ** n - 1
    values = [0] * k
    flat = [0] * (n * k)
    while True:
        yield values, flat
        c = k - 1
        while c >= 0 and values[c] == top:
            c -= 1
        if c < 0:
            return
        values[c] += 1
        pos = (c + 1) * n - 1
        while flat[pos] == n - 1:
            flat[pos] = 0
            pos -= 1
        flat[pos] += 1
        if c < k - 1:
            block = flat[c * n:(c + 1) * n]
            for j in range(c + 1, k):
                values[j] = values[c]
                flat[j * n:(j + 1) * n] = block


def _arrangement_count(values: Sequence[int]) -> int:
    """Distinct orders of a non-decreasing list: k!/prod(m_i!) over its runs."""
    count = run = 1
    for i in range(1, len(values)):
        run = run + 1 if values[i] == values[i - 1] else 1
        count = count * (i + 1) // run
    return count


def _counted_tables(values: Sequence[int], flat: Sequence[int], n: int,
                    fixers: dict[int, list[Relabeling]] | None) -> Iterator[list[int]]:
    """The tables a multiset stands for, in index order.

    values and flat are as _letter_multisets yields them.  The tables are
    the distinct letter orders of flat; in a canonical scan (fixers given)
    only those that pass _is_canonical.  Relabeling acts on each letter's
    map alone, so a canonical table starts with a canonical one-letter
    table, and only the relabelings that fix that first map can make the
    table smaller: fixers maps each canonical map to those relabelings.
    """
    blocks = {v: flat[c * n:(c + 1) * n] for c, v in enumerate(values)}
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


def _degree_masks(n: int) -> list[int]:
    """Each one-letter map, by value: bit p if it moves state p, and bit
    n + t if it sends another state to t.

    In a strongly connected table with n >= 2 every state leaves for
    another and is entered from another, so the masks of its letters OR
    to all 2n bits.
    """
    out = []
    for m in product(range(n), repeat=n):
        mask = 0
        for p, t in enumerate(m):
            if t != p:
                mask |= 1 << p | 1 << n + t
        out.append(mask)
    return out


def _fill_images(images: list[list[int]], flat: Sequence[int], n: int,
                 built: list[int]) -> None:
    """Bring the per-letter subset-image rows up to date with a flat table.

    built is the table the rows were last built from (-1 entries for rows
    never built), and is updated.  The subsets whose top state is p are
    those below 1 << p with p added, so each row is rebuilt only from its
    first changed state on; row entry 0 stays 0.
    """
    for c, t in enumerate(images):
        base = c * n
        if flat[base:base + n] == built[base:base + n]:
            continue
        first = 0
        while flat[base + first] == built[base + first]:
            first += 1
        for p in range(first, n):
            image_p = 1 << flat[base + p]
            bit = 1 << p
            t[bit:2 * bit] = [s | image_p for s in t[:bit]]
        built[base + first:base + n] = flat[base + first:base + n]


def _reset_length(images: list[list[int]], n: int) -> int | None:
    """Minimal reset length by subset BFS over per-letter image rows.

    The answer does not depend on the order of the rows, so one search
    serves every letter order of a table.
    """
    full = (1 << n) - 1
    if full & (full - 1) == 0:
        return 0
    dist = [-1] * (full + 1)
    dist[full] = 0
    queue = deque([full])
    while queue:
        s = queue.popleft()
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
        return {
            "n": self.n,
            "k": self.k,
            "require_strongly_connected": self.require_strongly_connected,
            "canonicalize": self.canonicalize,
            "total": self.total,
            "synchronizing": self.synchronizing,
            "histogram": {str(length): count
                          for length, count in sorted(self.histogram.items())},
            "max_length": self.max_length,
            "max_length_count": self.max_length_count,
            "witnesses": [list(w) for w in self.witnesses],
            "upper_bound_violations": [list(w) for w in self.upper_bound_violations],
            "conjecture_counterexamples": [list(w)
                                           for w in self.conjecture_counterexamples],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _scan_chunk(n: int, k: int, require_sc: bool, canonical: bool,
                worker: int, workers: int) -> dict:
    """Scan the letter-map multisets whose rank is worker modulo workers.

    One BFS per multiset, weighted by the number of tables it stands for.
    A strongly connected scan first rules out, by _degree_masks, the
    multisets whose letters leave some state unmoved or unentered.  The
    masks are built only for k >= 2, where n <= 5 under the enumeration
    guard, so never for more than 3,125 maps.
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
    maximal: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    too_long: list[tuple[int, ...]] = []
    beyond_conjecture: list[tuple[int, ...]] = []
    images = [[0] * (1 << n) for _ in range(k)]
    built = [-1] * (n * k)
    degrees = _degree_masks(n) if require_sc and k > 1 and n > 1 else None
    all_degrees = (1 << 2 * n) - 1
    for values, flat in islice(_letter_multisets(n, k), worker, None, workers):
        if degrees is not None:
            seen = 0
            for v in values:
                seen |= degrees[v]
            if seen != all_degrees:
                continue
        if fixers is not None:
            weight = (0 if fixers.keys().isdisjoint(values) else
                      sum(1 for _ in _counted_tables(values, flat, n, fixers)))
        else:
            weight = _arrangement_count(values)
        if not weight or require_sc and not table_strongly_connected(flat, n):
            continue
        total += weight
        _fill_images(images, flat, n, built)
        length = _reset_length(images, n)
        if length is None:
            continue
        hist[length] = hist.get(length, 0) + weight
        if length > max_len:
            max_len, max_count, maximal = length, 0, []
        if length == max_len:
            max_count += weight
            maximal.append((tuple(values), tuple(flat)))
        if length > cerny_bound:  # the cube bound is never below it
            tables = [tuple(t) for t in _counted_tables(values, flat, n, fixers)]
            beyond_conjecture += tables
            if length > cube:
                too_long += tables
    witnesses = {canonical_flat(t, n, k) for values, flat in maximal
                 for t in _counted_tables(values, flat, n, fixers)}
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
    through os._exit, with status 1 if the scan raised.
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
    interrupted; then the children still running are killed first.
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
    cfg.check_guard()
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
# suffix independence

def independent_suffix_length(dfa: Dfa, s: Sequence[int]) -> int:
    """Length of the largest suffix whose suffix-matrix set is independent.

    Suffix matrices are added by increasing length, the empty suffix (the
    identity) included; independence, once broken, never returns, so the
    first dependent length stops the growth.
    """
    ech = linspace.RowEchelon(dfa.n * dfa.n)
    for f in reversed(suffix_maps(dfa, s)):
        if not ech.add(linspace.flatten(WordMatrix(tuple(f)))):
            break
    return ech.dimension - 1


def suffix_closed_dimension_check(dfa: Dfa, s: Sequence[int]) -> bool:
    """Dimension equals the member count on the largest independent suffix set.

    For the largest suffix u of s whose matrices {M_t : t a suffix of u}
    are independent, the span dimension must equal the number of those
    matrices, |u|+1 counting the empty suffix.
    """
    length = independent_suffix_length(dfa, s)
    u = s[len(s) - length:]
    vecs = [linspace.flatten(WordMatrix(tuple(f))) for f in suffix_maps(dfa, u)]
    return linspace.span_dimension(vecs) == length + 1


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
    pool = _word_pool(dfa)
    n = dfa.n

    def check(check_name: str, passed: bool, detail: str = ""):
        results.append(CheckResult(check_name, bool(passed), detail))

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

    # each pool word's matrix and series value, built once; many words share
    # a matrix, so what reads only the matrix (or the matrix and the value)
    # is computed once per distinct input, and the loops over the pool still
    # report the first counterexample in pool order
    mat = {w: matrix_of_word(dfa, w) for w in dict.fromkeys(pool)}
    val = {w: series.series_value(dfa, w, q) for w in mat}
    distinct = {M.rows: M for M in mat.values()}
    vec = {rows: linspace.flatten(M) for rows, M in distinct.items()}

    # image monotonicity: columns of a longer word sit inside its suffix's
    short = [w for w in pool if len(w) <= 3]
    short_mats = {mat[w].rows: mat[w] for w in short}
    grows = {(a, b) for a, A in short_mats.items() for b, B in short_mats.items()
             if nonzero_columns(multiply(A, B)) & ~nonzero_columns(B)}
    bad = next(((u, s) for u in short for s in short
                if (mat[u].rows, mat[s].rows) in grows), None) if grows else None
    check("image-monotone", bad is None, f"counterexample {bad}" if bad else "")

    # reset matrix shape and rank-by-columns
    M_min = matrix_of_word(dfa, s_min)
    check("reset-matrix", nonzero_columns(M_min) == 1 << q and rank(M_min) == 1)
    rank_ok = {rows: rank(M) == linspace.span_dimension(dense(M))
               for rows, M in distinct.items()}
    bad = next((w for w in pool if not rank_ok[mat[w].rows]), None)
    check("rank-by-columns", bad is None,
          f"counterexample {word_to_str(bad)}" if bad else "")

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
    tails = {}
    bad_sum = bad_lin = None
    for w in pool:
        key = mat[w].rows, val[w]
        if key not in tails:
            tails[key] = span.residual(vec[key[0]] + (1, val[w]))
        *res, lin = tails[key]
        if any(res):
            bad_sum = bad_sum or w
        elif lin:
            bad_lin = bad_lin or w
    check("coefficient-sum", bad_sum is None,
          f"counterexample {word_to_str(bad_sum)}" if bad_sum else "")
    check("series-linearity", bad_lin is None,
          f"counterexample {word_to_str(bad_lin)}" if bad_lin else "")

    # constant-level spans: a word matrix inside a level's span has that value
    profile = series.suffix_profile(dfa, s_min, q)
    suffixes = list(zip(profile, reversed(suffix_maps(dfa, s_min))))
    ok, detail = True, ""
    for level in range(0, n - 1):
        members = [f for (_, value), f in suffixes if value == level]
        if len(members) < 2:
            continue
        lech = linspace.RowEchelon(n * n)
        for f in members:
            lech.add(linspace.flatten(WordMatrix(tuple(f))))
        inside = {rows: lech.contains(v) for rows, v in vec.items()}
        for w in pool:
            if inside[mat[w].rows]:
                if val[w] != level:
                    ok, detail = False, f"{word_to_str(w)} at level {level}"
                    break
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
        prods = [linspace.flatten(multiply(mat[t], g)) for _, g in witnesses]
        combo = [sum(c * f[i] for c, f in zip(coeffs, prods))
                 for i in range(n * n)]
        if not ech.contains(combo):
            ok = False
            break
    check("span-word-stability", ok)

    # the paper's claims about the minimal word
    results += claim_checks(dfa, best)
    check("suffix-independence", suffix_closed_dimension_check(dfa, s_min))

    # left stability and reset collapse over sampled triples
    rng = random.Random(13 * n + dfa.k)
    triples = [(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))],
                pool[rng.randrange(len(pool))]) for _ in range(200)]
    for check_name, first_failure in (("left-stability", sync.left_stability_check),
                                      ("reset-collapse", sync.reset_collapse_check)):
        bad = next(((a, u, v, qq) for a, u, v in triples
                    if (qq := first_failure(mat[a], mat[u], mat[v])) is not None),
                   None)
        check(check_name, bad is None, str(bad) if bad else "")

    # diagnostic only, never failed: composition of the value-0 q-class of
    # the identity (invertible members vs. singular members of rank > 1)
    E = identity(n)
    zero_class = [w for w in pool if val[w] == 0 and sync.q_equivalent(mat[w], E, q)]
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
