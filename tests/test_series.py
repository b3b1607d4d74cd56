from itertools import product

import pytest
from hypothesis import given, strategies as st

from syncword import (DfaError, KARI_WORD, ROMAN_WORD, cerny_automaton,
                      cerny_word, kari_automaton, matrix_of_word,
                      roman_automaton, suffix_profile,
                      suffix_space_dimensions, threshold_count)
from syncword import series
from syncword.series import series_value
from syncword.sync import is_irreducible, q_column

from oracles import preimage_count

KARI_TARGET = 1
ROMAN_TARGET = 4


def test_state_validation():
    d = cerny_automaton(3)
    for q in (-1, 3):
        message = rf"state {q} out of range \[0, 3\)"
        with pytest.raises(DfaError, match=message):
            series_value(d, (), q)
        with pytest.raises(DfaError, match=message):
            suffix_profile(d, cerny_word(3), q)
        with pytest.raises(DfaError, match=message):
            suffix_space_dimensions(d, cerny_word(3), q)


def test_empty_word_value_zero():
    assert series_value(kari_automaton(), (), KARI_TARGET) == 0


def test_reset_word_value_is_n_minus_one():
    assert series_value(cerny_automaton(4), cerny_word(4), 1) == 3


def test_value_equals_preimage_count_minus_one():
    d = kari_automaton()
    for w in [(), (0,), (1,), (0, 1, 0), KARI_WORD[5:]]:
        assert series_value(d, w, KARI_TARGET) == preimage_count(d, w, KARI_TARGET) - 1


@given(st.lists(st.integers(0, 1), max_size=8).map(tuple))
def test_value_range_on_kari(w):
    v = series_value(kari_automaton(), w, KARI_TARGET)
    assert -1 <= v <= 5


def test_profile_of_empty_word():
    assert suffix_profile(kari_automaton(), (), KARI_TARGET) == [(0, 0)]


def test_profile_matches_pointwise_values():
    d = roman_automaton()
    s = ROMAN_WORD
    prof = suffix_profile(d, s, ROMAN_TARGET)
    assert [length for length, _ in prof] == list(range(len(s) + 1))
    for length, value in prof:
        assert value == series_value(d, s[len(s) - length:], ROMAN_TARGET)


def test_kari_threshold_counts():
    prof = suffix_profile(kari_automaton(), KARI_WORD, KARI_TARGET)
    assert threshold_count(prof, 1) == 25
    assert threshold_count(prof, 2) == 17
    assert threshold_count(prof, 3) == 11
    assert threshold_count(prof, 4) == 6
    assert threshold_count(prof, 6) == 0  # past n-1


def test_roman_threshold_counts():
    prof = suffix_profile(roman_automaton(), ROMAN_WORD, ROMAN_TARGET)
    assert threshold_count(prof, 1) == 16
    assert threshold_count(prof, 2) == 10
    assert threshold_count(prof, 3) == 4
    assert threshold_count(prof, 5) == 0


def test_cerny_profiles_have_n_consecutive_suffixes_per_level():
    for n in (4, 5, 6):
        d = cerny_automaton(n)
        s = cerny_word(n)
        prof = suffix_profile(d, s, 1)
        values = {length: value for length, value in prof}
        for level in range(1, n - 1):
            lengths = [L for L in range(1, len(s) + 1) if values[L] == level]
            assert len(lengths) == n
            assert lengths == list(range(min(lengths), min(lengths) + n))


def test_suffix_space_dimensions_frozen():
    assert suffix_space_dimensions(
        kari_automaton(), KARI_WORD, KARI_TARGET) == [1, 6, 9, 13, 19]
    assert suffix_space_dimensions(
        roman_automaton(), ROMAN_WORD, ROMAN_TARGET) == [1, 4, 8, 12]
    assert suffix_space_dimensions(cerny_automaton(4), cerny_word(4), 1) == [1, 5, 9]


def test_suffix_space_dimensions_builds_the_suffix_maps_once(monkeypatch):
    calls = []
    real = series.suffix_maps

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "suffix_maps", counting)
    assert suffix_space_dimensions(
        kari_automaton(), KARI_WORD, KARI_TARGET) == [1, 6, 9, 13, 19]
    assert len(calls) == 1


def test_suffix_space_dimension_bounds():
    d = kari_automaton()
    n = d.n
    dims = suffix_space_dimensions(d, KARI_WORD, KARI_TARGET)
    assert len(dims) == n - 1
    for i, dim in enumerate(dims, start=1):
        assert dim <= (i - 1) * n + 1


def test_suffix_space_dimension_preconditions():
    d = kari_automaton()
    with pytest.raises(DfaError):
        suffix_space_dimensions(d, (0, 1), KARI_TARGET)  # not synchronizing
    # KARI_WORD resets to 1, not to 0: the same error as is_irreducible's
    with pytest.raises(DfaError, match="does not reset the automaton to the given state"):
        suffix_space_dimensions(d, KARI_WORD, 0)
    with pytest.raises(DfaError, match="does not reset the automaton to the given state"):
        is_irreducible(d, KARI_WORD, 0)


def test_values_respect_q_order():
    d = kari_automaton()
    words = [w for L in range(5) for w in product(range(2), repeat=L)]
    for q in range(d.n):
        for u in words[:20]:
            Mu = matrix_of_word(d, u)
            for v in words[:20]:
                Mv = matrix_of_word(d, v)
                if q_column(Mu, q) == q_column(Mv, q):
                    assert series_value(d, u, q) == series_value(d, v, q)
                if q_column(Mv, q) & ~q_column(Mu, q) == 0:
                    assert series_value(d, v, q) <= series_value(d, u, q)
