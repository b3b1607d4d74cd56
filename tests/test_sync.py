import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from syncword import (CapacityError, Dfa, DfaError, KARI_WORD,
                      ROMAN_WORD, ResetResult,
                      WordMatrix, cerny_automaton, cerny_word, identity, image,
                      is_irreducible, kari_automaton, matrix_of_word, multiply,
                      roman_automaton, shortest_reset_word)
from syncword import sync
from syncword.automaton import word_from_str
from syncword.sync import (is_synchronizing, left_stability_check,
                           near_sync_suffixes, q_column,
                           reset_collapse_check, suffix_distinctness_check)

from oracles import (brute_minimal_reset, brute_removable_split,
                     frozenset_minimal_reset, near_sync_by_search)


# ---------------------------------------------------------------------------
# synchronization detection

def test_is_synchronizing_examples():
    assert is_synchronizing(cerny_automaton(3))
    assert is_synchronizing(kari_automaton())
    assert is_synchronizing(roman_automaton())


def test_permutation_automaton_is_not_synchronizing():
    cycle = (1, 2, 3, 0)
    back = (3, 0, 1, 2)
    assert not is_synchronizing(Dfa(4, 2, (cycle, back)))


def test_single_state_is_synchronizing():
    assert is_synchronizing(Dfa(1, 1, ((0,),)))


@given(st.integers(2, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=1, max_size=3).map(lambda d: Dfa(n, len(d), tuple(map(tuple, d))))))
def test_pair_criterion_agrees_with_subset_search(d):
    assert is_synchronizing(d) == (shortest_reset_word(d) is not None)


# ---------------------------------------------------------------------------
# shortest reset words

def test_shortest_reset_lengths():
    assert shortest_reset_word(cerny_automaton(4)).length == 9
    assert shortest_reset_word(kari_automaton()).length == 25
    assert shortest_reset_word(roman_automaton()).length == 16


def test_shortest_word_is_lexicographically_least():
    for n in (2, 3, 4):
        d = cerny_automaton(n)
        result = shortest_reset_word(d)
        oracle = brute_minimal_reset(d, (n - 1) ** 2)
        assert result.word == oracle
        assert result.length == len(oracle)


def test_result_invariants():
    for d in (cerny_automaton(5), kari_automaton(), roman_automaton()):
        r = shortest_reset_word(d)
        assert image(d, d.full_set, r.word) == 1 << r.target
        assert r.length == len(r.word)
        assert r.states_expanded > 0


def test_known_minimal_words_reproduced():
    assert shortest_reset_word(kari_automaton()).word == KARI_WORD
    assert shortest_reset_word(roman_automaton()).word == ROMAN_WORD
    assert shortest_reset_word(cerny_automaton(4)).word == cerny_word(4)


@st.composite
def chunked_tables(draw):
    """Tables on chunks of one to six states, with an empty third chunk at
    n = 2 and 4; some two-sink.  A synchronizing search switches to the
    visited map and its two half tables per letter (equal at even n, one
    state apart at odd n) after a few levels at n <= 8, mid-search in about
    a third of the random tables at n = 12, and rarely at n >= 15."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                              15, 16, 17]))
    k = draw(st.integers(1, 3))
    delta = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=k, max_size=k))
    two_sinks = n >= 2 and draw(st.booleans())
    if two_sinks:
        for row in delta:
            row[0], row[1] = 0, 1
    return Dfa(n, k, tuple(map(tuple, delta))), two_sinks


@settings(max_examples=150, deadline=None)
@given(chunked_tables())
def test_search_matches_frozenset_oracle(case):
    d, two_sinks = case
    expected = frozenset_minimal_reset(d)
    result = shortest_reset_word(d)
    if expected is None:
        assert result is None
        return
    assert not two_sinks
    assert result.word == expected
    assert result.length == len(expected)
    assert image(d, d.full_set, expected) == 1 << result.target


def test_states_expanded_pinned():
    # reported by `reset-word --json`; the search order must not drift.  At
    # odd n the half tables of the visited-map phase differ in size.
    for n, expanded in (16, 65_519), (17, 131_054), (18, 262_125), (19, 524_268):
        result = shortest_reset_word(cerny_automaton(n))
        assert result.states_expanded == expanded
        assert result.word == cerny_word(n)


def test_search_beyond_byte_chunks(monkeypatch):
    # above 24 states the three chunks widen past a byte
    rng = Random(31)
    d = Dfa(30, 2, tuple(tuple(rng.randrange(30) for _ in range(30))
                         for _ in range(2)))
    with pytest.raises(CapacityError):
        shortest_reset_word(d)
    monkeypatch.setenv("SYNCWORD_SUBSET_LIMIT", "30")
    result = shortest_reset_word(d)
    assert result.length == 12
    assert result.word == frozenset_minimal_reset(d)


def traced_peak_mib(d):
    """The search's result and its peak traced allocation in MiB."""
    tracemalloc.start()
    try:
        result = shortest_reset_word(d)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_long_search_memory_stays_below_a_subset_set():
    # 65,519 visited subsets: a set of them alone takes about 4.6 MiB
    result, peak = traced_peak_mib(cerny_automaton(16))
    assert result.states_expanded == 65_519
    assert peak < 1


def test_short_search_allocates_no_visited_map():
    # a map for 24 states is 16 MiB.  The half tables built with it, 2 * 2
    # * 2^12 entries, take 0.6 MiB: the search peaks at 0.26 MiB without
    # them and at 0.89 MiB if they are built before the switch.
    rng = Random(0)
    d = Dfa(24, 2, tuple(tuple(rng.randrange(24) for _ in range(24))
                         for _ in range(2)))
    result, peak = traced_peak_mib(d)
    assert result.length == 13
    assert peak < 0.5


def test_eight_byte_predecessor_codes():
    # 2^24 * 128 = 2^31: parent_index * k + letter may not fit 4 bytes
    rng = Random(0)
    delta = [tuple(range(24))] * 128
    for c in (5, 64, 127):
        delta[c] = tuple(rng.randrange(24) for _ in range(24))
    d = Dfa(24, 128, tuple(delta))
    assert shortest_reset_word(d).word == frozenset_minimal_reset(d)


@pytest.mark.parametrize("name, limit, code", [
    # a set of the 1,048,555 visited subsets takes the run to 88 MiB
    ("cerny:20", 48, 0),
    # the interpreter alone passes 1 MiB: the gate must be able to fail
    ("cerny:5", 1, 1),
])
def test_cli_peak_rss(name, limit, code):
    src = str(Path(sync.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child_rss.py")), str(limit),
         "reset-word", name, "--json"],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src})
    assert proc.returncode == code, proc.stdout
    assert proc.stdout.startswith(f"reset-word {name} --json: peak RSS ")


def test_not_synchronizing_returns_none():
    d = Dfa(2, 1, ((1, 0),))
    assert shortest_reset_word(d) is None


def test_non_synchronizing_search_ends_at_the_pair_test(monkeypatch):
    # cerny:20 plus a state every letter fixes: the sink stays in every
    # image, so without the pair test the search walks about 2^20 subsets
    calls = []
    real = sync.is_synchronizing
    monkeypatch.setattr(sync, "is_synchronizing",
                        lambda d: calls.append(d) or real(d))
    c = cerny_automaton(20)
    d = Dfa(21, 2, tuple(row + (20,) for row in c.delta))
    assert shortest_reset_word(d) is None
    assert calls == [d]
    # a synchronizing search that reaches the map runs the test once as well
    calls.clear()
    c = cerny_automaton(16)
    assert shortest_reset_word(c).length == 15 ** 2
    assert calls == [c]


def test_capacity_cap(monkeypatch):
    big = Dfa(25, 1, (tuple((i + 1) % 25 for i in range(25)),))
    with pytest.raises(CapacityError):
        shortest_reset_word(big)
    monkeypatch.setenv("SYNCWORD_SUBSET_LIMIT", "3")
    with pytest.raises(CapacityError):
        shortest_reset_word(cerny_automaton(4))
    monkeypatch.setenv("SYNCWORD_SUBSET_LIMIT", "not-a-number")
    with pytest.raises(DfaError):
        shortest_reset_word(cerny_automaton(4))
    monkeypatch.setenv("SYNCWORD_SUBSET_LIMIT", "4")
    assert shortest_reset_word(cerny_automaton(4)) is not None


# ---------------------------------------------------------------------------
# q-columns and relations

PAPER_MA = WordMatrix((1, 1, 1, 2, 2))
PAPER_V1 = WordMatrix((3, 4, 4, 2, 0))
PAPER_V2 = WordMatrix((2, 4, 4, 0, 3))


def test_q_column_is_preimage():
    d = cerny_automaton(4)
    M = matrix_of_word(d, (1,))
    assert q_column(M, 1) == 0b0011
    assert q_column(M, 0) == 0
    with pytest.raises(DfaError):
        q_column(M, 4)


def test_reference_five_state_matrices():
    q = 4  # the last column
    assert q_column(PAPER_V1, q) == q_column(PAPER_V2, q)
    prod1 = multiply(PAPER_MA, PAPER_V1)
    prod2 = multiply(PAPER_MA, PAPER_V2)
    assert prod1 == prod2 == WordMatrix((4, 4, 4, 4, 4))


def test_q_equivalent_cases():
    d = cerny_automaton(4)
    E = matrix_of_word(d, ())
    reset = matrix_of_word(d, cerny_word(4))
    # M ~q N when their q-columns are equal
    assert q_column(E, 2) == 0b0100
    assert q_column(reset, 1) == d.full_set != q_column(E, 1)


def test_left_stability_trivial_and_exhaustive_small():
    d = kari_automaton()
    M = {w: matrix_of_word(d, w) for L in range(3)
         for w in product(range(2), repeat=L)}
    assert left_stability_check(M[(0,)], M[(1, 0)], M[(1, 0)]) is None
    for a in M:
        for u in M:
            for v in M:
                assert left_stability_check(M[a], M[u], M[v]) is None


def test_reset_collapse_nonvacuous_instance():
    d = cerny_automaton(4)
    t, u, v, q = cerny_word(4), (0, 1), (0,), 2
    Mu, Mv = matrix_of_word(d, u), matrix_of_word(d, v)
    Mt = matrix_of_word(d, t)
    assert Mu != Mv and q_column(Mu, q) == q_column(Mv, q)
    assert q_column(multiply(Mt, Mv), q) == d.full_set  # premises really hold
    assert reset_collapse_check(Mt, Mu, Mv) is None
    assert multiply(Mt, Mu) == multiply(Mt, Mv)


def test_reset_collapse_vacuous_cases():
    d = roman_automaton()
    assert reset_collapse_check(*(matrix_of_word(d, (c,)) for c in range(3))) is None


def _reversed_composition(A, B):
    # row i of A·B is B.rows[A.rows[i]]; this reads the factors the other way
    return WordMatrix(tuple(A.rows[j] for j in B.rows))


def test_left_stability_fails_under_a_wrong_composition(monkeypatch):
    d = cerny_automaton(3)
    Ma, Mu, Mv = (matrix_of_word(d, word_from_str(w)) for w in ("a", "", "b"))
    assert q_column(Mu, 2) == q_column(Mv, 2)  # the premise holds
    assert left_stability_check(Ma, Mu, Mv) is None
    monkeypatch.setattr(sync, "multiply", _reversed_composition)
    assert left_stability_check(Ma, Mu, Mv) == 2


def test_reset_collapse_fails_under_a_wrong_composition(monkeypatch):
    d = cerny_automaton(3)
    Mt, Mu, Mv = (matrix_of_word(d, word_from_str(w))
                  for w in ("a", "", "baab"))
    assert q_column(Mv, 2) & ~q_column(Mu, 2) == 0  # the premise holds
    assert reset_collapse_check(Mt, Mu, Mv) is None
    monkeypatch.setattr(sync, "multiply", _reversed_composition)
    assert reset_collapse_check(Mt, Mu, Mv) == 2


def test_q_relation_checks_reject_bad_q_and_sizes():
    E3, E4 = identity(3), identity(4)
    with pytest.raises(DfaError):
        q_column(E3, 3)
    for check in (left_stability_check, reset_collapse_check):
        for sizes, listed in (((E3, E3, E4), "[3, 3, 4]"),
                              ((E3, E4, E3), "[3, 4, 3]"),
                              ((E4, E3, E3), "[4, 3, 3]")):
            with pytest.raises(DfaError) as err:
                check(*sizes)
            assert str(err.value) == f"dimension mismatch: {listed}"


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.integers(0, n - 1))))
def test_q_column_of_a_product_is_a_preimage(case):
    # both q-relation checks rest on this: col_q(A·B) = {p : A.rows[p] in col_q(B)}
    a, b, q = case
    A, B = WordMatrix(tuple(a)), WordMatrix(tuple(b))
    col = q_column(B, q)
    expected = sum(1 << p for p, t in enumerate(a) if col >> t & 1)
    assert q_column(multiply(A, B), q) == expected


# ---------------------------------------------------------------------------
# irreducibility

def test_minimal_words_are_irreducible():
    assert is_irreducible(cerny_automaton(4), cerny_word(4), 1)
    assert is_irreducible(kari_automaton(), KARI_WORD, 1)
    assert is_irreducible(roman_automaton(), ROMAN_WORD, 4)


def test_doubled_word_is_reducible():
    d = cerny_automaton(4)
    s = cerny_word(4)
    assert not is_irreducible(d, s + s, 1)


def test_irreducibility_precondition():
    d = cerny_automaton(4)
    with pytest.raises(DfaError):
        is_irreducible(d, (0, 1), 1)
    with pytest.raises(DfaError):
        is_irreducible(d, cerny_word(4), 2)  # resets to 1, not 2


@st.composite
def padded_reset_words(draw):
    """A synchronizing table with n <= 6 and a reset word u s v, where s is
    its shortest reset word and u, v are arbitrary padding."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    delta = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=k, max_size=k))
    d = Dfa(n, k, tuple(map(tuple, delta)))
    best = shortest_reset_word(d)
    assume(best is not None)
    pad = st.lists(st.integers(0, k - 1), max_size=6).map(tuple)
    w = draw(pad) + best.word + draw(pad)
    return d, w, image(d, d.full_set, w).bit_length() - 1


@settings(max_examples=150, deadline=None)
@given(padded_reset_words())
def test_reduction_matches_brute_force_split_oracle(case):
    d, w, q = case
    assert is_irreducible(d, w, q) == (brute_removable_split(d, w, q) is None)


# ---------------------------------------------------------------------------
# suffix distinctness and near-synchronizing suffixes

def test_suffix_distinctness_on_examples():
    assert suffix_distinctness_check(kari_automaton(), KARI_WORD, 1)
    assert suffix_distinctness_check(roman_automaton(), ROMAN_WORD, 4)
    for n in (3, 4, 5):
        assert suffix_distinctness_check(cerny_automaton(n), cerny_word(n), 1)


def test_suffix_distinctness_fails_with_repeat():
    d = cerny_automaton(4)
    s = cerny_word(4)
    assert not suffix_distinctness_check(d, s + s, 1)
    assert not is_irreducible(d, s + s, 1)


def test_near_sync_suffixes_cerny4():
    d = cerny_automaton(4)
    out, failure = near_sync_suffixes(d, shortest_reset_word(d))
    assert [len(u) for u in out] == [5, 6, 7, 8]
    assert failure is None


def test_near_sync_suffixes_kari_roman():
    out = near_sync_suffixes(kari_automaton(), ResetResult(KARI_WORD, 25, 1, 0))
    assert [len(u) for u in out[0]] == [18, 19, 22, 23, 24] and out[1] is None
    out = near_sync_suffixes(roman_automaton(), ResetResult(ROMAN_WORD, 16, 4, 0))
    assert [len(u) for u in out[0]] == [13, 14, 15] and out[1] is None


def test_near_sync_letter_completion():
    d = cerny_automaton(4)
    out, _ = near_sync_suffixes(d, shortest_reset_word(d))
    completions = [(c,) + u for c in range(d.k) for u in out]
    assert any(image(d, d.full_set, w).bit_count() == 1 for w in completions)


def test_near_sync_rejects_a_result_that_does_not_reset_to_its_target():
    d = cerny_automaton(4)
    best = shortest_reset_word(d)
    for wrong in (ResetResult(best.word, best.length, 0, 0),
                  ResetResult(best.word[1:], best.length - 1, best.target, 0),
                  ResetResult(best.word, best.length, d.n, 0)):
        with pytest.raises(DfaError):
            near_sync_suffixes(d, wrong)


def test_near_sync_completion_failure_is_returned():
    # a 4-state counterexample to the completion postcondition (minimal word aba)
    d = Dfa(4, 2, ((0, 0, 0, 3), (0, 3, 3, 1)))
    r = shortest_reset_word(d)
    assert r.word == word_from_str("aba")
    assert near_sync_suffixes(d, r) == (
        [word_from_str("a")], "no letter completes a near-synchronizing suffix: "
                              "s[1:] has value 1, not n-2 = 2")


def test_two_state_degenerate_case():
    d = cerny_automaton(2)
    r = shortest_reset_word(d)
    assert r.word == word_from_str("b") and r.target == 1
    assert near_sync_suffixes(d, r) == ([()], None)


def test_near_sync_and_pair_test_agree_with_the_searches_on_every_small_table():
    # every table with n <= 3 and k <= 3: near_sync_suffixes against the
    # letters x suffixes search it replaces, is_synchronizing against the
    # subset search; no minimal word here fails the completion clause
    synchronizing = 0
    for n, k in product((1, 2, 3), repeat=2):
        for flat in product(range(n), repeat=n * k):
            d = Dfa(n, k, tuple(flat[c * n:(c + 1) * n] for c in range(k)))
            best = shortest_reset_word(d)
            assert is_synchronizing(d) == (best is not None), flat
            if best is None:
                continue
            synchronizing += 1
            found, failure = near_sync_suffixes(d, best)
            assert (found, failure) == near_sync_by_search(d, best), flat
            assert failure is None, flat
    assert synchronizing == 19006
