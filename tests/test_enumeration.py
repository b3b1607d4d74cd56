import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from syncword import (CapacityError, Dfa, DfaError, ResetResult, ScanConfig,
                      cerny_automaton, cerny_word, extremal_scan,
                      shortest_reset_word)
import syncword
from syncword import (automaton, cli, enumeration, linspace, series, sync,
                      word_matrix)
from syncword.enumeration import (EXAMPLE_EXPECTATIONS, CheckResult,
                                  _canonical_map_fixers, _counted_tables,
                                  _image_lookup, _is_canonical,
                                  _left_combination, _map_masks, _multiset_walk,
                                  _relabelings, _reset_length, _word_pool,
                                  canonical_flat, claim_checks, flat_to_dfa,
                                  verify_automaton)

from oracles import (all_pairs_reachable, dfa_to_flat, frozenset_minimal_reset,
                     image_monotone_by_products, index_to_flat,
                     left_combination_by_products, near_sync_by_search,
                     reference_scan, relabel_flat, strongly_connected_class_count)


# ---------------------------------------------------------------------------
# table indexing and canonical forms

def test_index_round_trip():
    n, k = 3, 2
    for idx in (0, 1, 500, 728):
        flat = index_to_flat(idx, n, k)
        value = 0
        for digit in flat:
            value = value * n + digit
        assert value == idx


def test_flat_dfa_round_trip():
    d = cerny_automaton(3)
    assert flat_to_dfa(dfa_to_flat(d), 3, 2) == d


def test_relabel_preserves_behavior():
    d = cerny_automaton(3)
    flat = dfa_to_flat(d)
    for perm in permutations(range(3)):
        relabeled = flat_to_dfa(relabel_flat(flat, 3, 2, perm), 3, 2)
        assert shortest_reset_word(relabeled).length == 4


def test_canonical_is_invariant_and_minimal():
    d = cerny_automaton(3)
    flat = dfa_to_flat(d)
    canon = canonical_flat(flat, 3, 2)
    for perm in permutations(range(3)):
        assert canonical_flat(relabel_flat(flat, 3, 2, perm), 3, 2) == canon
        assert canon <= relabel_flat(flat, 3, 2, perm)


def test_canonical_filter_matches_canonical_flat_on_every_small_table():
    relabelings = _relabelings(3, 2)
    for idx in range(3 ** 6):
        flat = index_to_flat(idx, 3, 2)
        assert _is_canonical(flat, relabelings) == (
            tuple(flat) == canonical_flat(flat, 3, 2))


@st.composite
def flat_tables(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return n, k, draw(st.lists(st.integers(0, n - 1), min_size=n * k,
                               max_size=n * k))


@settings(max_examples=200)
@given(flat_tables())
def test_canonical_filter_matches_canonical_flat(case):
    n, k, flat = case
    # the least relabeling is itself a table that must pass
    for table in (flat, list(canonical_flat(flat, n, k))):
        assert _is_canonical(table, _relabelings(n, k)) == (
            tuple(table) == canonical_flat(table, n, k))


@settings(max_examples=200)
@given(flat_tables())
def test_canonical_flat_is_the_least_relabeling(case):
    n, k, flat = case
    assert canonical_flat(flat, n, k) == min(
        relabel_flat(flat, n, k, perm) for perm in permutations(range(n)))


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]
                         + [(4, 2)])
def test_canonical_enumeration_matches_canonical_flat(n, k):
    # the tables a canonical scan counts, over every multiset of letter maps
    tables = (tuple(index_to_flat(i, n, k)) for i in range(n ** (n * k)))
    expected = [t for t in tables if t == canonical_flat(t, n, k)]
    fixers = _canonical_map_fixers(n, k)
    multisets, letter_map = _multiset_walk(n, k)
    got = sorted(tuple(t) for values in multisets
                 for t in _counted_tables(values, letter_map, fixers))
    assert got == expected


def test_enumerate_strongly_connected_canonical_matches_oracle():
    cfg = ScanConfig(3, 2, require_strongly_connected=True, canonicalize=True)
    assert extremal_scan(cfg).total == strongly_connected_class_count(3, 2)


@pytest.mark.parametrize("args", [(2.0, 2), (2, 2.0), ("3", 2), (True, 2), (2, True),
                                  (0, 2), (2, 0), (2, 2, False, 1.5),
                                  (2, 2, False, True), (2, 2, False, 0),
                                  (2, 2, 1), (2, 2, False, 1, "yes"),
                                  (2, 2, None), (2, 2, False, 1, 0)])
def test_scan_config_rejects_what_is_not_a_positive_int(args):
    # a float or a str used to fail inside the scan, True to scan n = 1, and
    # a filter that is not a bool to be echoed as is in the report
    with pytest.raises(DfaError):
        ScanConfig(*args)


def test_guard_rejects_oversized_spaces():
    # n = 1 has one table, but scanning it still costs O(k)
    ScanConfig(1, 29)
    for args in ((7, 3), (1, 30), (1, 10 ** 9), (6, 2, False, 1, True)):
        with pytest.raises(CapacityError, match="the enumeration guard needs"):
            ScanConfig(*args)
    # 6^6 tables pass the table count, not the canonicalization cap
    with pytest.raises(CapacityError, match="capped at n <= 5"):
        ScanConfig(6, 1, canonicalize=True)


# ---------------------------------------------------------------------------
# scans

def test_scan_two_states():
    report = extremal_scan(ScanConfig(2, 2))
    assert report.total == 16
    assert report.max_length == 1
    assert sum(report.histogram.values()) == report.synchronizing
    assert report.upper_bound_violations == []
    assert report.conjecture_counterexamples == []


def test_scan_three_states_histogram_and_witnesses():
    report = extremal_scan(ScanConfig(3, 2))
    assert report.total == 729
    assert report.histogram == {1: 153, 2: 324, 3: 48, 4: 24}
    assert report.max_length == 4 == (3 - 1) ** 2
    assert report.max_length_count == 24
    for flat in report.witnesses:
        d = flat_to_dfa(flat, 3, 2)
        assert shortest_reset_word(d).length == 4


def test_scan_deterministic_across_workers_and_runs(monkeypatch):
    # eight CPUs, so that eight children really run
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    # the strongly connected cases fill one verdict table per worker
    for n, k, sc, canon in ((3, 2, False, False), (3, 3, False, True),
                            (3, 3, True, False), (3, 3, True, True)):
        cfg = ScanConfig(n, k, require_strongly_connected=sc, canonicalize=canon)
        base = extremal_scan(cfg).to_json()
        assert extremal_scan(cfg).to_json() == base
        for workers in (2, 5, 8):
            cfg = ScanConfig(n, k, require_strongly_connected=sc,
                             worker_count=workers, canonicalize=canon)
            assert extremal_scan(cfg).to_json() == base


def no_fork():
    raise AssertionError("a worker was forked")


def test_scan_workers_clamped_to_cpu_count(monkeypatch):
    base = extremal_scan(ScanConfig(3, 2)).to_json()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert extremal_scan(ScanConfig(3, 2, worker_count=10_000)).to_json() == base


def test_scan_workers_clamped_to_multiset_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    # one state: a single multiset of letter maps, so no worker at all
    monkeypatch.setattr(os, "fork", no_fork)
    assert extremal_scan(ScanConfig(1, 3, worker_count=8)).total == 1
    # two states, one letter: four maps, four workers
    monkeypatch.setattr(os, "fork", counting_fork)
    assert extremal_scan(ScanConfig(2, 1, worker_count=8)).total == 4
    assert len(forks) == 4


def test_failing_worker_raises_and_leaves_no_child(monkeypatch, capfd):
    # a worker out of memory exits quietly and the parent raises
    # MemoryError; any other failure prints its traceback
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for error, raised, match in ((ValueError("chunk failed"), RuntimeError, "exit status 1"),
                                 (MemoryError(), MemoryError, None)):
        def broken(*args):
            raise error

        monkeypatch.setattr(enumeration, "_scan_chunk", broken)
        with pytest.raises(raised, match=match):
            extremal_scan(ScanConfig(3, 2, worker_count=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert ("Traceback" in capfd.readouterr().err) == (raised is RuntimeError)


def test_failed_fork_kills_and_reaps_the_running_children(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(enumeration, "_scan_chunk", lambda *args: time.sleep(30))
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError("no more processes")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    start = time.perf_counter()
    with pytest.raises(OSError, match="no more processes"):
        extremal_scan(ScanConfig(3, 2, worker_count=2))
    # the first child was killed, not waited for
    assert time.perf_counter() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_multiset_walk_maps_each_value_to_its_table_index():
    # the k = 1 walk decodes a value, the k >= 2 walk reads it from a list
    # of every map; the canonical map fixers are keyed in the same order
    for n in (1, 2, 3, 4):
        singles, decode = _multiset_walk(n, 1)
        pairs, lookup = _multiset_walk(n, 2)
        assert list(singles) == [(v,) for v in range(n ** n)]
        for v in range(n ** n):
            assert list(decode(v)) == list(lookup(v)) == index_to_flat(v, n, 1)
        pairs = list(pairs)
        assert pairs == sorted(set(pairs))
        assert len(pairs) == comb(n ** n + 1, 2)
        assert all(a <= b for a, b in pairs)


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_image_table_is_the_image_of_each_subset(targets):
    n = len(targets)
    dfa = Dfa(n, 1, [targets])
    table = automaton._image_table(targets)
    assert table == [automaton.image(dfa, b, (0,)) for b in range(1 << n)]
    assert automaton._image_table([]) == [0]


def _reset_length_cases():
    """Every table with n <= 3 and k <= 2, every two-state table with
    k <= 4, and 300 seeded random tables for each of four wider sizes."""
    for n, k in [(n, k) for n in (1, 2, 3) for k in (1, 2)] + [(2, 3), (2, 4)]:
        for flat in product(range(n), repeat=n * k):
            yield flat_to_dfa(flat, n, k)
    rng = random.Random(2013)
    for n, k in ((4, 2), (4, 3), (5, 2), (5, 3)):
        for _ in range(300):
            yield Dfa(n, k, [[rng.randrange(n) for _ in range(n)]
                             for _ in range(k)])


def test_scan_bfs_matches_a_frozenset_search():
    # reference_scan runs _reset_length itself, so the scan fences leave
    # this kernel to the golden histograms; here it meets its own oracle
    for d in _reset_length_cases():
        images = [automaton._image_table(row) for row in d.delta]
        word = frozenset_minimal_reset(d)
        assert _reset_length(images, d.n) == (None if word is None else len(word)), d


# every n <= 3 with k <= 3, and the widest two-state alphabets in the range
FENCE_SIZES = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)] + [(2, 4), (2, 5)]
FILTERS = [(sc, canon) for sc in (False, True) for canon in (False, True)]


@pytest.mark.parametrize("n,k", FENCE_SIZES)
def test_scan_matches_the_reference_walk(monkeypatch, n, k):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for sc, canon in FILTERS:
        expected = reference_scan(ScanConfig(n, k, sc, 1, canon)).to_json()
        for workers in (1, 2):
            cfg = ScanConfig(n, k, sc, workers, canon)
            assert extremal_scan(cfg).to_json() == expected


@pytest.mark.parametrize("n,k", [(2, 3), (3, 2), (3, 3), (2, 5)])
def test_scan_lists_violations_in_table_order(monkeypatch, n, k):
    # real tables never break the bounds, so lengthen the search result of
    # the tables whose letters' full images sum to a multiple of 3; the sum
    # does not depend on the letter order
    real = enumeration._reset_length

    def lengthened(images, n):
        length = real(images, n)
        if length is not None and sum(row[-1] for row in images) % 3 == 0:
            length += (n ** 3 - n) // 6 + 1
        return length

    monkeypatch.setattr(enumeration, "_reset_length", lengthened)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for sc, canon in FILTERS:
        expected = reference_scan(ScanConfig(n, k, sc, 1, canon))
        assert expected.upper_bound_violations
        assert expected.conjecture_counterexamples
        for workers in (1, 2):
            got = extremal_scan(ScanConfig(n, k, sc, workers, canon))
            assert got.to_json() == expected.to_json()


def test_witnesses_are_canonicalized_once_per_counted_table(monkeypatch):
    real = enumeration.canonical_flat
    calls = []

    def counting(flat, n, k):
        calls.append(tuple(flat))
        return real(flat, n, k)

    monkeypatch.setattr(enumeration, "canonical_flat", counting)
    for cfg, count in ((ScanConfig(4, 2), 96), (ScanConfig(3, 4), 3840),
                       (ScanConfig(4, 2, canonicalize=True), 4)):
        calls.clear()
        report = extremal_scan(cfg)
        assert report.max_length_count == count
        assert len(calls) == len(set(calls)) == count


def test_strongly_connected_scan_decides_by_the_relation_verdict_table(monkeypatch):
    # the 32,896 multisets of two 4-state maps have 2,401 distinct relation
    # masks, one sweep each, and 651 of those relations are strongly
    # connected
    real = enumeration._strongly_connected
    calls = []

    def counting(forward, backward, n):
        calls.append((forward, backward, n))
        return real(forward, backward, n)

    monkeypatch.setattr(enumeration, "_strongly_connected", counting)
    report = extremal_scan(ScanConfig(4, 2, require_strongly_connected=True))
    assert report.total == 20958
    assert len(calls) == 2401
    assert sum(real(*call) for call in calls) == 651


@pytest.mark.parametrize("k", [2, 3])
def test_one_state_scan_is_decided_by_the_verdict_table(monkeypatch, k):
    # at n = 1 the single map has relation mask 0, and one state is
    # strongly connected; only one-letter scans test each table alone
    def unexpected(flat, n):
        raise AssertionError("table_strongly_connected called")

    monkeypatch.setattr(enumeration, "table_strongly_connected", unexpected)
    assert extremal_scan(ScanConfig(1, k, require_strongly_connected=True)).total == 1


@pytest.mark.parametrize("n", [2, 3])
def test_map_edge_masks_ored_decide_strong_connectivity(n):
    # every multiset of two and of three n-state maps, against a separate
    # search; the relation masks OR to one verdict per value, inside the
    # 2^(n(n-1)) entries of the scan's verdict table
    forward, backward, moves = _map_masks(n)
    for k in (2, 3):
        verdicts = {}
        multisets, letter_map = _multiset_walk(n, k)
        for values in multisets:
            fwd = bwd = relation = 0
            for v in values:
                fwd |= forward[v]
                bwd |= backward[v]
                relation |= moves[v]
            flat = [t for v in values for t in letter_map(v)]
            expected = all_pairs_reachable(flat_to_dfa(flat, n, k))
            assert enumeration._strongly_connected(fwd, bwd, n) == expected
            assert relation >> n * (n - 1) == 0
            assert verdicts.setdefault(relation, expected) == expected


def test_scan_holds_no_list_of_all_letter_maps():
    # 6^6 = 46,656 one-letter tables, of which the 5! = 120 six-cycles are
    # strongly connected; with one letter no masks and no verdict table
    # (2^30 bytes at n = 6) are built
    for require_sc, total in ((False, 6 ** 6), (True, 120)):
        tracemalloc.start()
        try:
            report = extremal_scan(ScanConfig(6, 1, require_strongly_connected=require_sc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total == total
        assert peak < 1 << 20


def test_scan_canonical_counts_classes_once():
    full = extremal_scan(ScanConfig(2, 1))
    canon = extremal_scan(ScanConfig(2, 1, canonicalize=True))
    assert full.total == 4 and canon.total == 3


def test_scan_strongly_connected_subset():
    filtered = extremal_scan(ScanConfig(3, 2, require_strongly_connected=True))
    everything = extremal_scan(ScanConfig(3, 2))
    assert filtered.total < everything.total
    assert filtered.max_length == 4
    for length, count in filtered.histogram.items():
        assert count <= everything.histogram[length]


def test_report_json_shape():
    report = extremal_scan(ScanConfig(2, 2))
    data = report.to_dict()
    assert set(data) == {"n", "k", "require_strongly_connected", "canonicalize",
                         "total", "synchronizing", "histogram", "max_length",
                         "max_length_count", "witnesses",
                         "upper_bound_violations", "conjecture_counterexamples"}
    assert all(isinstance(key, str) for key in data["histogram"])


# ---------------------------------------------------------------------------
# the verification battery

def test_verify_automaton_passes_on_cerny3():
    results = verify_automaton(cerny_automaton(3), EXAMPLE_EXPECTATIONS["cerny:3"])
    failed = [r for r in results if not r.passed]
    assert failed == []
    names = {r.name for r in results}
    assert {"synchronizing", "coefficient-sum", "series-linearity",
            "irreducible", "left-stability", "reset-collapse"} <= names


def test_verify_builds_each_pool_word_matrix_once(monkeypatch):
    dfa = cerny_automaton(4)
    s = shortest_reset_word(dfa).word
    calls = Counter()
    real = word_matrix.matrix_of_word

    def counting(d, w):
        calls[tuple(w)] += 1
        return real(d, w)

    # rebind every import of it, so a call from any layer counts; the
    # defining module keeps its own name for matrices_of_letters
    for mod in (syncword, automaton, cli, enumeration, linspace, series, sync):
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    verify_automaton(dfa)
    # suffix checks read one suffix_maps pass; only the reset matrix is extra
    pool = set(_word_pool(dfa))
    assert {calls[w] for w in pool} == {1}
    assert calls[s] == 1 and sum(calls.values()) == len(pool | {s})


def test_verify_reduces_each_distinct_matrix_and_value_once(monkeypatch):
    dfa = cerny_automaton(4)
    reductions = []
    real = linspace.RowEchelon.residual

    def counting(self, vec):
        if self.tail == 2:
            reductions.append(tuple(vec))
        return real(self, vec)

    monkeypatch.setattr(linspace.RowEchelon, "residual", counting)
    verify_automaton(dfa)
    q = shortest_reset_word(dfa).target
    pool = _word_pool(dfa)
    keys = {(word_matrix.matrix_of_word(dfa, w).rows, series.series_value(dfa, w, q))
            for w in pool}
    assert len(keys) < len(pool)  # the pool repeats (matrix, value) pairs
    # each witness row is reduced as it is added, then each distinct key once
    witnesses = linspace.word_matrix_span(dfa)[1]
    assert len(reductions) == len(witnesses) + len(keys)


def test_suffix_space_check_adds_each_suffix_once(monkeypatch):
    kari = automaton.kari_automaton()
    echelons = []
    real = linspace.RowEchelon.add

    def counting(self, vec):
        echelons.append(self)
        return real(self, vec)

    monkeypatch.setattr(linspace.RowEchelon, "add", counting)
    best = ResetResult(automaton.KARI_WORD, 25, 1, 0)
    assert claim_checks(kari, best)[0] == CheckResult(
        "suffix-space-bound", True, "dims [1, 6, 9, 13, 19]")
    profile = series.suffix_profile(kari, automaton.KARI_WORD, 1)
    # one echelon grows through every level: one add per suffix of value >= 1
    assert len(echelons) == sum(value >= 1 for _, value in profile) == 25
    assert len({id(e) for e in echelons}) == 1


def test_suffix_space_check_names_the_first_level_over_the_bound(monkeypatch):
    # count every added suffix matrix as independent: the doubled kari word
    # has 26 suffixes of value n-1 against a level-1 bound of 1
    monkeypatch.setattr(linspace.RowEchelon, "add",
                        lambda self, vec: self.pivot_rows.append((0, vec)))
    best = ResetResult(automaton.KARI_WORD * 2, 50, 1, 0)
    assert claim_checks(automaton.kari_automaton(), best)[0] == CheckResult(
        "suffix-space-bound", False, "i=1: (26, 1, 6)")


def test_claim_checks_are_the_battery_entries():
    for name in ("cerny:4", "kari", "near-sync"):
        dfa = (Dfa(4, 2, ((0, 0, 0, 3), (0, 3, 3, 1))) if name == "near-sync"
               else automaton.builtin_automaton(name))
        claims = claim_checks(dfa, shortest_reset_word(dfa))
        assert [r.name for r in claims] == [
            "suffix-space-bound", "irreducible", "suffix-distinct",
            "near-sync-suffixes"]
        battery = verify_automaton(dfa, EXAMPLE_EXPECTATIONS.get(name))
        at = [r.name for r in battery].index("suffix-space-bound")
        assert battery[at:at + 4] == claims


# the canonical synchronizing n=4 k=2 tables whose minimal reset word has
# near-synchronizing suffixes that no letter completes
NEAR_SYNC_FAILURES = [
    (0, 0, 0, 3, 0, 3, 3, 1), (0, 0, 0, 3, 1, 3, 3, 0),
    (0, 0, 0, 3, 1, 3, 3, 2), (0, 0, 0, 3, 3, 0, 0, 1),
    (0, 0, 2, 2, 2, 0, 1, 0), (0, 2, 1, 1, 0, 1, 0, 0),
    (0, 2, 1, 1, 1, 0, 1, 1), (1, 0, 0, 0, 1, 2, 0, 0),
    (1, 0, 0, 0, 2, 0, 1, 1), (1, 0, 0, 0, 2, 1, 0, 0),
    (1, 0, 0, 0, 2, 3, 0, 0), (1, 0, 0, 1, 1, 3, 0, 0),
    (1, 2, 0, 0, 0, 1, 0, 0), (1, 2, 0, 0, 0, 1, 0, 1),
    (1, 2, 0, 0, 0, 1, 1, 1), (1, 2, 0, 0, 1, 0, 0, 0),
    (1, 2, 0, 0, 1, 0, 1, 0), (1, 2, 0, 0, 1, 0, 1, 1),
]


def test_claims_over_every_canonical_four_state_two_letter_class():
    synchronizing = 0
    failures = []
    for i in range(4 ** 8):
        flat = tuple(index_to_flat(i, 4, 2))
        if flat != canonical_flat(flat, 4, 2):
            continue
        dfa = flat_to_dfa(flat, 4, 2)
        best = shortest_reset_word(dfa)
        if best is None:
            continue
        synchronizing += 1
        found, failure = sync.near_sync_suffixes(dfa, best)
        want, fault = near_sync_by_search(dfa, best)
        assert found == want and (failure is None) == (fault is None), flat
        failed = [r for r in claim_checks(dfa, best) if not r.passed]
        if failed:
            value = series.series_value(dfa, best.word[1:], best.target)
            assert [(r.name, r.detail) for r in failed] == [
                ("near-sync-suffixes",
                 "no letter completes a near-synchronizing suffix: "
                 f"s[1:] has value {value}, not n-2 = 2")]
            failures.append(flat)
    assert synchronizing == 2185
    assert failures == NEAR_SYNC_FAILURES


def test_verify_flags_unsynchronizable_automaton():
    swap = Dfa(2, 1, ((1, 0),))
    results = verify_automaton(swap)
    assert [r.name for r in results] == ["synchronizing"]
    assert not results[0].passed


BROKEN_ECHELON = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from syncword import cerny_automaton, linspace
from syncword.enumeration import verify_automaton
real = linspace.RowEchelon.add
linspace.RowEchelon.add = lambda self, vec: real(self, vec) or True
print(*[r.name for r in verify_automaton(cerny_automaton(4)) if not r.passed])
"""


def test_verify_ends_when_the_echelon_always_reports_growth():
    # add inserts as usual but always returns True, so word_matrix_span
    # never sees a round that adds nothing; the child process runs under a
    # timeout and an address-space cap, so a regression cannot hang the suite
    src = str(Path(enumeration.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", BROKEN_ECHELON],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "coefficient-sum", "letter-closure", "span-word-stability"]


def test_verify_flags_a_dependent_basis(monkeypatch):
    real = linspace.standard_basis

    def with_a_repeat(*args):
        basis = real(*args)
        return basis + basis[:1]

    monkeypatch.setattr(linspace, "standard_basis", with_a_repeat)
    results = {r.name: r for r in verify_automaton(cerny_automaton(3))}
    assert results["basis-dimension"].passed
    assert not results["basis-independence"].passed


def test_verify_flags_a_word_outside_a_short_witness_list(monkeypatch):
    real = linspace.word_matrix_span

    def without_last(dfa):
        ech, witnesses = real(dfa)
        return ech, witnesses[:-1]

    monkeypatch.setattr(linspace, "word_matrix_span", without_last)
    results = {r.name: r for r in verify_automaton(cerny_automaton(4))}
    assert results["coefficient-sum"] == CheckResult(
        "coefficient-sum", False, "counterexample aabaaa")
    assert results["series-linearity"].passed


def test_verify_flags_a_series_that_is_not_linear(monkeypatch):
    real = series.series_value
    monkeypatch.setattr(series, "series_value",
                        lambda dfa, w, q: real(dfa, w, q) + (len(w) == 3))
    results = {r.name: r for r in verify_automaton(cerny_automaton(4))}
    assert results["series-linearity"] == CheckResult(
        "series-linearity", False, "counterexample abb")
    assert results["coefficient-sum"].passed


def test_verify_names_the_empty_word_as_a_counterexample(monkeypatch):
    # the empty word comes first in the pool.  Without the identity in the
    # witness list, and with every invertible matrix counted one rank
    # short, it is the first counterexample of both checks
    real_span = linspace.word_matrix_span

    def without_identity(dfa):
        ech, witnesses = real_span(dfa)
        return ech, witnesses[1:]

    monkeypatch.setattr(linspace, "word_matrix_span", without_identity)
    real_rank = word_matrix.rank
    monkeypatch.setattr(enumeration, "rank", lambda M: real_rank(M) - (real_rank(M) == M.n))
    for name in ("cerny:4", "kari", "roman"):
        results = {r.name: r for r in verify_automaton(
            automaton.builtin_automaton(name))}
        for check in ("coefficient-sum", "rank-by-columns"):
            assert results[check] == CheckResult(check, False, "counterexample ε")


def test_verify_flags_a_composition_that_reads_its_factors_in_reverse(monkeypatch):
    # the battery composes only the q-relation products (and the
    # last-letter ones); image-monotone looks images up and composes none
    real = word_matrix.multiply
    monkeypatch.setattr(enumeration, "multiply", lambda A, B: real(B, A))
    for name, detail in (
            ("cerny:4", "((0, 0, 1), (0, 1, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 1, 0, 1), 2)"),
            ("roman", "((2, 0, 2), (2, 2, 1, 1, 0, 2), (1, 1, 2, 1, 2, 0, 2, 1, 1), 0)")):
        results = {r.name: r for r in verify_automaton(
            automaton.builtin_automaton(name))}
        assert results["left-stability"] == CheckResult("left-stability", False, detail)
        assert results["image-monotone"].passed


def test_verify_flags_a_wrong_rank(monkeypatch):
    # every rank-2 matrix counted as rank 1: kari's pool words have none
    real = word_matrix.rank
    monkeypatch.setattr(enumeration, "rank", lambda M: real(M) - (real(M) == 2))
    for name, detail in (("cerny:3", "counterexample b"),
                         ("cerny:4", "counterexample bbabaab"), ("kari", "")):
        results = {r.name: r for r in verify_automaton(
            automaton.builtin_automaton(name))}
        assert results["rank-by-columns"] == CheckResult(
            "rank-by-columns", not detail, detail)
        assert results["reset-matrix"].passed


def test_verify_flags_a_value_that_is_not_constant_on_a_level_span(monkeypatch):
    # a word of length > 1 starting with b gains 1; the words inside a
    # level's span are tested level by level, and the last failing level
    # names its first word in pool order
    real = series.series_value
    monkeypatch.setattr(series, "series_value", lambda dfa, w, q: real(dfa, w, q)
                        + (len(w) > 1 and w[0] == 1))
    for name, detail in (("kari", "bbb at level 1"),
                         ("cerny:4", "babaaabb at level 2")):
        results = {r.name: r for r in verify_automaton(
            automaton.builtin_automaton(name))}
        assert results["constant-level-span"] == CheckResult(
            "constant-level-span", False, detail)


def test_verify_flags_an_echelon_that_drops_its_first_vector(monkeypatch):
    # the suffix matrices are added by length, the empty suffix first; an
    # echelon that reports its first vector added but keeps no row for it
    # spans one dimension fewer than the suffixes it accepted
    real = linspace.RowEchelon.add

    def drops_first(self, vec):
        if not hasattr(self, "dropped"):
            self.dropped = True
            return True
        return real(self, vec)

    monkeypatch.setattr(linspace.RowEchelon, "add", drops_first)
    for name in ("cerny:4", "kari", "roman"):
        results = {r.name: r for r in verify_automaton(
            automaton.builtin_automaton(name))}
        assert results["suffix-independence"] == CheckResult(
            "suffix-independence", False)


def test_q_relation_failures_name_the_first_triple_and_its_least_state(monkeypatch):
    # each check tests every state of a triple at once; the detail must
    # still be the first failing triple in sample order, with its least q
    monkeypatch.setattr(enumeration, "multiply", lambda A, B: word_matrix.WordMatrix(
        tuple(A.rows[j] for j in B.rows)))
    results = {r.name: r for r in verify_automaton(cerny_automaton(4))}
    assert results["left-stability"].detail == (
        "((0, 0, 1), (0, 1, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 1, 0, 1), 2)")
    assert results["reset-collapse"].detail == (
        "((1, 0, 0, 0, 1, 1, 1), (0, 0), (1, 1, 0, 0, 1, 1, 0), 1)")


@settings(max_examples=300)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.integers(0, (1 << n) - 1))))
def test_image_lookup_is_the_image_of_the_product(case):
    # image-monotone reads im(M_u·M_s) as the lookup of im(M_u) in M_s's
    # chunk tables; any row set, not only an image, maps to its image
    u, s, rows = case
    Mu, Ms = word_matrix.WordMatrix(tuple(u)), word_matrix.WordMatrix(tuple(s))
    lookup = _image_lookup(Ms)
    assert lookup(word_matrix.nonzero_columns(Mu)) == word_matrix.nonzero_columns(
        word_matrix.multiply(Mu, Ms))
    assert lookup(rows) == sum({1 << t for p, t in enumerate(s) if rows >> p & 1})


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(-2, 2),
                       st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
             min_size=1, max_size=8))))
def test_left_combination_is_the_sum_of_the_flattened_products(case):
    t, terms = case
    Mt = word_matrix.WordMatrix(tuple(t))
    coeffs = [c for c, _ in terms]
    generators = [word_matrix.WordMatrix(tuple(g)) for _, g in terms]
    flats = [linspace.flatten(g) for g in generators]
    assert _left_combination(Mt, coeffs, flats) == left_combination_by_products(
        Mt, coeffs, generators)


@settings(max_examples=40, deadline=None)
@given(flat_tables(), st.integers(2, 9))
def test_image_monotone_names_the_first_pair_of_the_product_loop(table, modulus):
    # under a fault that makes some pairs fail, the lookups (s outermost)
    # still name the first failing pair of the u-major product loop.  The
    # fault picks pairs by a hash of (im(M_u), M_s), so it is the same
    # fault whether the image is looked up or composed: a picked pair's
    # image is full, the image of the identity.  Failure depends on the
    # matrices alone, so the first failing pair over the pool's short words
    # is also the first over the battery's deduplicated ones.
    n, k, flat = table
    dfa = flat_to_dfa(flat, n, k)
    assume(sync.is_synchronizing(dfa))
    picked = lambda m, M: hash((m, M.rows)) % modulus == 0
    real = _image_lookup

    def faulty_lookup(M):
        lookup = real(M)
        return lambda m: dfa.full_set if picked(m, M) else lookup(m)

    def faulty_compose(A, B):
        if picked(word_matrix.nonzero_columns(A), B):
            return word_matrix.identity(n)
        return word_matrix.multiply(A, B)

    short = [w for w in dict.fromkeys(_word_pool(dfa)) if len(w) <= 3]
    mat = {w: word_matrix.matrix_of_word(dfa, w) for w in short}
    bad = image_monotone_by_products(short, mat, faulty_compose)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_image_lookup", faulty_lookup)
        results = {r.name: r for r in verify_automaton(dfa)}
    assert results["image-monotone"] == CheckResult(
        "image-monotone", bad is None, f"counterexample {bad}" if bad else "")
    assert image_monotone_by_products(short, mat) is None


def test_verify_builds_no_subset_image_table_per_word():
    # image-monotone looks images up in chunk tables of at most 2^ceil(n/3)
    # entries; one table of 2^n entries per short word takes cerny:16's
    # peak past 29 MiB
    tracemalloc.start()
    try:
        results = verify_automaton(cerny_automaton(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 4 << 20


def test_check_result_to_dict():
    results = verify_automaton(cerny_automaton(3))
    d = results[0].to_dict()
    assert set(d) == {"name", "passed", "detail"}
