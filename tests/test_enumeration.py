import multiprocessing
import os
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from syncword import (CapacityError, CheckResult, Dfa, ResetResult,
                      ScanConfig, canonical_flat, claim_checks,
                      cerny_automaton, cerny_word, enumerate_dfas,
                      extremal_scan, independent_suffix_length,
                      is_strongly_connected, shortest_reset_word,
                      suffix_closed_dimension_check, verify_automaton,
                      verify_example_suite)
import syncword
from syncword import (automaton, cli, enumeration, linspace, series, sync,
                      word_matrix)
from syncword.enumeration import (EXAMPLE_EXPECTATIONS, _is_canonical,
                                  _relabelings, _word_pool, dfa_to_flat,
                                  flat_to_dfa, index_to_flat, relabel_flat)

from oracles import all_pairs_reachable, strongly_connected_class_count


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


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_counts_two_states_one_letter():
    assert sum(1 for _ in enumerate_dfas(ScanConfig(2, 1))) == 4
    reps = list(enumerate_dfas(ScanConfig(2, 1, canonicalize=True)))
    assert len(reps) == 3
    for d in reps:
        flat = dfa_to_flat(d)
        assert flat == canonical_flat(flat, 2, 1)


def test_enumerate_count_three_states_two_letters():
    assert sum(1 for _ in enumerate_dfas(ScanConfig(3, 2))) == 729


def test_enumerate_strongly_connected_filter():
    kept = list(enumerate_dfas(ScanConfig(2, 2, require_strongly_connected=True)))
    assert all(is_strongly_connected(d) for d in kept)
    # a table where no letter leaves state 0 must be excluded
    stuck = Dfa(2, 2, ((0, 0), (0, 1)))
    assert stuck not in kept
    total = sum(1 for _ in enumerate_dfas(ScanConfig(2, 2)))
    assert len(kept) < total == 16


def test_enumerate_strongly_connected_canonical_matches_oracle():
    cfg = ScanConfig(3, 2, require_strongly_connected=True, canonicalize=True)
    kept = list(enumerate_dfas(cfg))
    assert len(kept) == strongly_connected_class_count(3, 2)
    assert all(all_pairs_reachable(d) for d in kept)


def test_guard_rejects_oversized_spaces():
    with pytest.raises(CapacityError):
        list(enumerate_dfas(ScanConfig(7, 3)))
    with pytest.raises(CapacityError):
        extremal_scan(ScanConfig(6, 2, canonicalize=True))


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


def test_scan_deterministic_across_workers_and_runs():
    base = extremal_scan(ScanConfig(3, 2)).to_json()
    assert extremal_scan(ScanConfig(3, 2)).to_json() == base
    assert extremal_scan(ScanConfig(3, 2, worker_count=2)).to_json() == base
    assert extremal_scan(ScanConfig(3, 2, worker_count=5)).to_json() == base


def test_scan_workers_clamped_to_cpu_count(monkeypatch):
    base = extremal_scan(ScanConfig(3, 2)).to_json()

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert extremal_scan(ScanConfig(3, 2, worker_count=10_000)).to_json() == base


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
# suffix independence

def test_suffix_independence_on_minimal_words():
    d = cerny_automaton(4)
    assert independent_suffix_length(d, cerny_word(4)) == 9
    assert suffix_closed_dimension_check(d, cerny_word(4))


def test_suffix_independence_breaks_at_repeat():
    d = cerny_automaton(4)
    s = cerny_word(4)
    assert independent_suffix_length(d, s + s) == len(s)
    assert suffix_closed_dimension_check(d, s + s)


def test_identity_letter_gives_empty_suffix_only():
    ident = Dfa(2, 1, ((0, 1),))
    assert independent_suffix_length(ident, (0, 0, 0)) == 0
    assert suffix_closed_dimension_check(ident, (0, 0, 0))


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


def test_suffix_space_check_adds_each_suffix_once(monkeypatch):
    kari = automaton.kari_automaton()
    ctx = series.SeriesContext.for_state(kari, 1)
    echelons = []
    real = linspace.RowEchelon.add

    def counting(self, vec):
        echelons.append(self)
        return real(self, vec)

    monkeypatch.setattr(linspace.RowEchelon, "add", counting)
    best = ResetResult(automaton.KARI_WORD, 25, 1, 0)
    assert claim_checks(kari, best)[0] == CheckResult(
        "suffix-space-bound", True, "dims [1, 6, 9, 13, 19]")
    profile = series.suffix_profile(ctx, automaton.KARI_WORD)
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
    for dfa in enumerate_dfas(ScanConfig(4, 2, canonicalize=True)):
        best = shortest_reset_word(dfa)
        if best is None:
            continue
        synchronizing += 1
        failed = [r for r in claim_checks(dfa, best) if not r.passed]
        if failed:
            assert [(r.name, r.detail) for r in failed] == [
                ("near-sync-suffixes",
                 "no letter completes a near-synchronizing suffix")]
            failures.append(dfa_to_flat(dfa))
    assert synchronizing == 2185
    assert failures == NEAR_SYNC_FAILURES


def test_verify_flags_unsynchronizable_automaton():
    swap = Dfa(2, 1, ((1, 0),))
    results = verify_automaton(swap)
    assert [r.name for r in results] == ["synchronizing"]
    assert not results[0].passed


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
                        lambda ctx, w: real(ctx, w) + (len(w) == 3))
    results = {r.name: r for r in verify_automaton(cerny_automaton(4))}
    assert results["series-linearity"] == CheckResult(
        "series-linearity", False, "counterexample abb")
    assert results["coefficient-sum"].passed


def test_verify_example_suite_all_green():
    suite = verify_example_suite()
    assert set(suite) == set(EXAMPLE_EXPECTATIONS)
    for name, results in suite.items():
        for r in results:
            assert r.passed, f"{name}: {r.name} failed: {r.detail}"


def test_check_result_to_dict():
    results = verify_automaton(cerny_automaton(3))
    d = results[0].to_dict()
    assert set(d) == {"name", "passed", "detail"}
