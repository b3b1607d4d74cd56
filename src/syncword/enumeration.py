"""Exhaustive scans over small complete DFAs and the assertion battery.

Transition tables are flattened letter-major (flat[c*n + p] = delta(p, c))
and identified with base-n numerals, so the whole space [0, n^(nk)) can be
chunked deterministically across workers; partial results merge in chunk
order, making reports byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Sequence

from . import linspace, series, sync
from .automaton import (Dfa, Word, builtin_automaton, cerny_word, image,
                        KARI_WORD, ROMAN_WORD, suffix_maps,
                        table_strongly_connected, word_to_str)
from .errors import CapacityError, CheckFailure, DfaError
from .word_matrix import (WordMatrix, dense, identity, matrix_of_word,
                          matrices_of_letters, multiply, nonzero_columns, rank)

ENUMERATION_GUARD = 10 ** 9
CANONICAL_MAX_N = 5
# image-monotone composes every ordered pair of pool words of length <= 3,
# (k^3+k^2+k+1)^2 of them: 342,225 at k = 8
VERIFY_MAX_K = 8


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of an exhaustive scan over all n-state, k-letter tables."""

    n: int
    k: int
    require_strongly_connected: bool = False
    worker_count: int = 1
    canonicalize: bool = False

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise DfaError("n and k must be positive")
        if self.worker_count < 1:
            raise DfaError("worker_count must be positive")

    @property
    def table_count(self) -> int:
        return self.n ** (self.n * self.k)

    def check_guard(self):
        nk = self.n * self.k
        # n > 1 gives n^nk >= 2^nk, which exceeds the guard from this
        # exponent on; rejecting here never builds the power itself
        if (self.n > 1 and nk >= ENUMERATION_GUARD.bit_length()
                or self.table_count > ENUMERATION_GUARD):
            raise CapacityError(f"{self.n}^{nk} tables exceed the "
                                f"enumeration guard {ENUMERATION_GUARD}")
        if self.canonicalize and self.n > CANONICAL_MAX_N:
            raise CapacityError(
                f"canonicalization is O(n!) per table; capped at n <= {CANONICAL_MAX_N}")


def index_to_flat(idx: int, n: int, k: int) -> list[int]:
    """Digits of idx base n, most significant first; length nk."""
    flat = [0] * (n * k)
    for pos in range(n * k - 1, -1, -1):
        flat[pos] = idx % n
        idx //= n
    return flat


def flat_to_dfa(flat: Sequence[int], n: int, k: int) -> Dfa:
    return Dfa(n, k, tuple(tuple(flat[c * n:(c + 1) * n]) for c in range(k)))


def dfa_to_flat(dfa: Dfa) -> tuple[int, ...]:
    return tuple(t for row in dfa.delta for t in row)


def relabel_flat(flat: Sequence[int], n: int, k: int,
                 perm: Sequence[int]) -> tuple[int, ...]:
    """Apply a state relabeling (perm[old] = new) to a flat table."""
    out = [0] * (n * k)
    for c in range(k):
        base = c * n
        for p in range(n):
            out[base + perm[p]] = perm[flat[base + p]]
    return tuple(out)


def canonical_flat(flat: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """Lexicographically least table over all state relabelings."""
    return min(relabel_flat(flat, n, k, perm) for perm in permutations(range(n)))


# (perm, src): entry j of the relabeled table is perm[flat[src[j]]]
Relabeling = tuple[tuple[int, ...], list[int]]


def _relabelings(n: int, k: int) -> list[Relabeling]:
    """Every relabeling but the identity, as (perm, src) pairs."""
    out = []
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        out.append((perm, [c * n + inv[q] for c in range(k) for q in range(n)]))
    return out


def _is_canonical(flat: Sequence[int], relabelings: list[Relabeling]) -> bool:
    """Is the table no greater than any of its relabelings?

    Equivalent to tuple(flat) == canonical_flat(flat, n, k), but each
    relabeling is compared entry by entry only up to its first difference.
    """
    for perm, src in relabelings:
        for j, s in enumerate(src):
            t = perm[flat[s]]
            if t != flat[j]:
                if t < flat[j]:
                    return False
                break
    return True


def _filtered_tables(n: int, k: int, require_sc: bool, canonical: bool,
                     start: int, end: int) -> Iterator[list[int]]:
    """Flat tables of indices [start, end) that pass the filters, in index order.

    One list is incremented in place as a base-n numeral and yielded each
    time; a caller that keeps a table must copy it.
    """
    relabelings = _relabelings(n, k) if canonical else []
    flat = index_to_flat(start, n, k)
    for _ in range(start, end):
        if ((not canonical or _is_canonical(flat, relabelings))
                and (not require_sc or table_strongly_connected(flat, n))):
            yield flat
        pos = n * k - 1
        while pos >= 0:
            flat[pos] += 1
            if flat[pos] < n:
                break
            flat[pos] = 0
            pos -= 1


def enumerate_dfas(cfg: ScanConfig) -> Iterator[Dfa]:
    """Yield every transition table, in index order, honoring the filters.

    With canonicalize, only tables equal to their canonical form are
    yielded: exactly one representative (the least) per relabeling class.
    """
    cfg.check_guard()
    n, k = cfg.n, cfg.k
    for flat in _filtered_tables(n, k, cfg.require_strongly_connected,
                                 cfg.canonicalize, 0, cfg.table_count):
        yield flat_to_dfa(flat, n, k)


def _flat_shortest_reset_length(flat: Sequence[int], n: int, k: int,
                                subset_images: list[list[int]]) -> int | None:
    """Minimal reset length via subset BFS with per-letter image tables.

    subset_images is scratch storage of k rows, each 2^n long, rebuilt here.
    """
    full = (1 << n) - 1
    for c in range(k):
        t = subset_images[c]
        base = c * n
        for p in range(n):
            t[1 << p] = 1 << flat[base + p]
        for s in range(3, full + 1):
            low = s & (-s)
            if s != low:
                t[s] = t[low] | t[s & (s - 1)]
    dist = [-1] * (full + 1)
    dist[full] = 0
    if full & (full - 1) == 0:
        return 0
    queue = deque([full])
    while queue:
        s = queue.popleft()
        d = dist[s] + 1
        for c in range(k):
            t = subset_images[c][s]
            if dist[t] < 0:
                if t & (t - 1) == 0:
                    return d
                dist[t] = d
                queue.append(t)
    return None


@dataclass
class ScanReport:
    """Aggregate of one enumeration run; serializes to stable JSON."""

    n: int
    k: int
    require_strongly_connected: bool
    canonicalize: bool
    total: int = 0
    synchronizing: int = 0
    histogram: dict[int, int] = field(default_factory=dict)
    max_length: int = 0
    max_length_count: int = 0
    witnesses: list[tuple[int, ...]] = field(default_factory=list)
    upper_bound_violations: list[tuple[int, ...]] = field(default_factory=list)
    conjecture_counterexamples: list[tuple[int, ...]] = field(default_factory=list)

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


def _scan_chunk(args) -> dict:
    """Worker: scan table indices [start, end); top-level for multiprocessing."""
    n, k, require_sc, canonical, start, end = args
    cube = (n ** 3 - n) // 6
    cerny_bound = (n - 1) ** 2
    hist: dict[int, int] = {}
    total = 0
    max_len = 0
    max_count = 0
    max_witnesses: set[tuple[int, ...]] = set()
    too_long: list[tuple[int, ...]] = []
    beyond_conjecture: list[tuple[int, ...]] = []
    subset_images = [[0] * (1 << n) for _ in range(k)]
    for flat in _filtered_tables(n, k, require_sc, canonical, start, end):
        total += 1
        length = _flat_shortest_reset_length(flat, n, k, subset_images)
        if length is not None:
            hist[length] = hist.get(length, 0) + 1
            if length > max_len:
                max_len = length
                max_count = 1
                max_witnesses = {canonical_flat(flat, n, k)}
            elif length == max_len:
                max_count += 1
                max_witnesses.add(canonical_flat(flat, n, k))
            if length > cube:
                too_long.append(tuple(flat))
            if length > cerny_bound:
                beyond_conjecture.append(tuple(flat))
    return {
        "total": total,
        "histogram": hist,
        "max_length": max_len,
        "max_length_count": max_count,
        "witnesses": max_witnesses,
        "upper_bound_violations": too_long,
        "conjecture_counterexamples": beyond_conjecture,
    }


def extremal_scan(cfg: ScanConfig) -> ScanReport:
    """Scan every table, collect the reset-length histogram and extremes.

    Deterministic for a given (n, k, filters) regardless of worker_count:
    chunks are merged in index order and witnesses are reported as a sorted
    set of canonical tables.  At most os.cpu_count() workers are started.
    """
    cfg.check_guard()
    n, k = cfg.n, cfg.k
    count = cfg.table_count
    workers = min(cfg.worker_count, count, os.cpu_count() or 1)
    bounds = [count * i // workers for i in range(workers + 1)]
    tasks = [(n, k, cfg.require_strongly_connected, cfg.canonicalize,
              bounds[i], bounds[i + 1]) for i in range(workers)]
    if workers == 1:
        partials = [_scan_chunk(tasks[0])]
    else:
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            partials = pool.map(_scan_chunk, tasks)

    report = ScanReport(n=n, k=k,
                        require_strongly_connected=cfg.require_strongly_connected,
                        canonicalize=cfg.canonicalize)
    report.max_length = max((p["max_length"] for p in partials), default=0)
    witnesses: set[tuple[int, ...]] = set()
    for p in partials:
        report.total += p["total"]
        for length, c in p["histogram"].items():
            report.histogram[length] = report.histogram.get(length, 0) + c
        if p["max_length"] == report.max_length:
            report.max_length_count += p["max_length_count"]
            witnesses |= p["witnesses"]
        report.upper_bound_violations.extend(p["upper_bound_violations"])
        report.conjecture_counterexamples.extend(p["conjecture_counterexamples"])
    report.synchronizing = sum(report.histogram.values())
    report.witnesses = sorted(witnesses)
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

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def claim_checks(dfa: Dfa, best: sync.ResetResult) -> list[CheckResult]:
    """The paper's claims about the minimal reset word of a search result.

    The suffix-space bound, irreducibility, distinct suffix q-columns and
    the near-synchronizing suffixes, in the battery's order; shared by
    `verify` and `reset-word --check-lemmas`.
    """
    s, q = best.word, best.target
    ctx = series.SeriesContext.for_state(dfa, q)
    try:
        space = True, f"dims {series.suffix_space_dimensions(ctx, s)}"
    except CheckFailure as e:
        space = False, f"i={e.args[0][1]}: {e}"
    try:
        near = True, f"{len(sync.near_sync_suffixes(dfa, best))} suffixes"
    except CheckFailure as e:
        near = False, str(e)
    return [CheckResult("suffix-space-bound", *space),
            CheckResult("irreducible", sync.is_irreducible(dfa, s, q)),
            CheckResult("suffix-distinct", sync.suffix_distinctness_check(dfa, s, q)),
            CheckResult("near-sync-suffixes", *near)]


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
        results.append(CheckResult(f"{check_name}", bool(passed), detail))

    # reset word and basic facts
    best = sync.shortest_reset_word(dfa)
    check("synchronizing", best is not None,
          "" if best else "no reset word exists")
    if best is None:
        return results
    s_min, q = best.word, best.target
    ctx = series.SeriesContext.for_state(dfa, q)
    check("reset-word-valid", image(dfa, dfa.full_set, s_min) == 1 << q,
          word_to_str(s_min))
    if "reset_length" in expect:
        check("reset-length", best.length == expect["reset_length"],
              f"got {best.length}, expected {expect['reset_length']}")
    cube = (n ** 3 - n) // 6
    check("upper-bound", best.length <= cube,
          f"length {best.length} vs bound {cube}")

    # each pool word's matrix, flat vector and series value, built once
    mat = {w: matrix_of_word(dfa, w) for w in dict.fromkeys(pool)}
    vec = {w: linspace.flatten(M) for w, M in mat.items()}
    val = {w: series.series_value(ctx, w) for w in mat}

    # image monotonicity: columns of a longer word sit inside its suffix's
    short = [w for w in pool if len(w) <= 3]
    bad = next(((u, s) for u in short for s in short
                if nonzero_columns(multiply(mat[u], mat[s]))
                & ~nonzero_columns(mat[s])), None)
    check("image-monotone", bad is None, f"counterexample {bad}" if bad else "")

    # reset matrix shape and rank-by-columns
    M_min = matrix_of_word(dfa, s_min)
    check("reset-matrix", nonzero_columns(M_min) == 1 << q and rank(M_min) == 1)
    bad = next((w for w in pool
                if rank(mat[w]) != linspace.span_dimension(dense(mat[w]))), None)
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
        span.add(f + (1, series.series_value(ctx, w)))
    bad_sum = bad_lin = None
    for w in pool:
        *res, lin = span.residual(vec[w] + (1, val[w]))
        if any(res):
            bad_sum = bad_sum or w
        elif lin:
            bad_lin = bad_lin or w
    check("coefficient-sum", bad_sum is None,
          f"counterexample {word_to_str(bad_sum)}" if bad_sum else "")
    check("series-linearity", bad_lin is None,
          f"counterexample {word_to_str(bad_lin)}" if bad_lin else "")

    # constant-level spans: a word matrix inside a level's span has that value
    profile = series.suffix_profile(ctx, s_min)
    suffixes = list(zip(profile, reversed(suffix_maps(dfa, s_min))))
    ok, detail = True, ""
    for level in range(0, n - 1):
        members = [f for (_, value), f in suffixes if value == level]
        if len(members) < 2:
            continue
        lech = linspace.RowEchelon(n * n)
        for f in members:
            lech.add(linspace.flatten(WordMatrix(tuple(f))))
        for w in pool:
            if lech.contains(vec[w]):
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
        combo = [sum(c * f[i] for c, f in zip(coeffs, flats))
                 for i in range(n * n)]
        t = pool[rng.randrange(len(pool))]
        if not ech.contains(linspace.left_multiply_flat(mat[t], combo)):
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
    bad = next(((a, u, v, qq) for a, u, v in triples for qq in range(n)
                if not sync.left_stability_check(mat[a], mat[u], mat[v], qq)),
               None)
    check("left-stability", bad is None, str(bad) if bad else "")
    bad = next(((t, u, v, qq) for t, u, v in triples for qq in range(n)
                if not sync.reset_collapse_check(mat[t], mat[u], mat[v], qq)),
               None)
    check("reset-collapse", bad is None, str(bad) if bad else "")

    # diagnostic only, never failed: composition of the value-0 q-class of
    # the identity (invertible members vs. singular members of rank > 1)
    zero_class = [w for w in pool
                  if val[w] == 0 and sync.q_equivalent(mat[w], identity(n), q)]
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


def verify_example_suite() -> dict[str, list[CheckResult]]:
    """The assertion battery over the built-in automata."""
    out = {}
    for name, expect in EXAMPLE_EXPECTATIONS.items():
        dfa = builtin_automaton(name)
        if name.startswith("cerny:"):
            expect = dict(expect, paper_word=cerny_word(dfa.n))
        out[name] = verify_automaton(dfa, expect)
    return out
