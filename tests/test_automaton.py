import json

import pytest
from hypothesis import given, strategies as st

from syncword import (Dfa, DfaError, KARI_WORD, ROMAN_WORD, builtin_automaton,
                      cerny_automaton, cerny_word, image, is_strongly_connected,
                      kari_automaton, roman_automaton, serialize_dfa,
                      matrix_of_word, word_to_str)
from syncword.automaton import dfa_from_json, parse_dfa, word_from_str
from syncword.errors import DfaParseError
from syncword.series import series_value

from oracles import all_pairs_reachable, apply


def small_dfas(max_n=5, max_k=3):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=k, max_size=k).map(
                    lambda delta: Dfa(n, k, tuple(map(tuple, delta))))))


def words_for(dfa, max_len=6):
    return st.lists(st.integers(0, dfa.k - 1), max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# construction and validation

def test_dfa_validates_shape():
    with pytest.raises(DfaError):
        Dfa(2, 1, ((0, 5),))
    with pytest.raises(DfaError):
        Dfa(2, 2, ((0, 1),))
    with pytest.raises(DfaError):
        Dfa(0, 1, ())
    # a float or bool would build, then fail far from the constructor: a
    # float in the reset search's shifts, a bool in serialize_dfa's output
    for n, k, delta in [(2, 1, ((1.0, 1),)), (2, 1, ((True, 1),)),
                        (2.0, 1, ((0, 1),)), (2, True, ((0, 1),))]:
        with pytest.raises(DfaError):
            Dfa(n, k, delta)


def test_letters_and_states_are_checked_as_ints():
    # the range test alone lets 1.0 through to index a row, reads True as
    # the letter b, and gives the state 1.0 a preimage count of 0
    kari = kari_automaton()
    for w in [(1.0, 0), (True, 0)]:
        with pytest.raises(DfaError, match="letter"):
            matrix_of_word(kari, w)
    for q in (1.0, True):
        with pytest.raises(DfaError, match="state"):
            series_value(kari, (0,), q)


def test_cerny_table():
    d = cerny_automaton(4)
    assert d.delta == ((1, 2, 3, 0), (1, 1, 2, 3))
    with pytest.raises(DfaError):
        cerny_automaton(1)


def test_builtin_names():
    assert builtin_automaton("cerny:3") == cerny_automaton(3)
    assert builtin_automaton("kari") == kari_automaton()
    assert builtin_automaton("roman") == roman_automaton()
    with pytest.raises(DfaError):
        builtin_automaton("cerny:x")
    with pytest.raises(DfaError):
        builtin_automaton("nope")


# ---------------------------------------------------------------------------
# the word action

def test_apply_identity_and_step():
    d = cerny_automaton(4)
    assert apply(d, 0, ()) == 0
    assert apply(d, 0, (0,)) == 1
    assert apply(d, 3, (0,)) == 0


def test_apply_full_reset_word():
    d = cerny_automaton(4)
    w = cerny_word(4)
    targets = {apply(d, p, w) for p in range(4)}
    assert targets == {1}


def test_apply_validates():
    d = cerny_automaton(3)
    with pytest.raises(DfaError):
        apply(d, 5, ())
    with pytest.raises(DfaError):
        apply(d, 0, (7,))


def test_image_trivial_and_examples():
    d = cerny_automaton(4)
    assert image(d, d.full_set, ()) == d.full_set
    assert image(d, d.full_set, cerny_word(4)) == 1 << 1
    assert image(d, 0b0011, (1,)) == 1 << 1


@given(small_dfas().flatmap(lambda d: st.tuples(
    st.just(d), st.integers(0, d.n - 1), words_for(d), words_for(d))))
def test_action_is_monoid_morphism(args):
    d, p, u, v = args
    assert apply(d, p, u + v) == apply(d, apply(d, p, u), v)


@given(small_dfas().flatmap(lambda d: st.tuples(
    st.just(d), st.integers(0, d.full_set), st.integers(0, d.full_set),
    words_for(d))))
def test_image_union_and_shrink(args):
    d, P, Q, w = args
    assert image(d, P | Q, w) == image(d, P, w) | image(d, Q, w)
    assert bin(image(d, P, w)).count("1") <= bin(P).count("1")


@given(small_dfas().flatmap(lambda d: st.tuples(
    st.just(d), words_for(d), words_for(d))))
def test_full_image_shrinks_along_prefixes(args):
    # the image of the full set under u+s sits inside the image under s
    d, u, s = args
    full = d.full_set
    assert image(d, full, u + s) & ~image(d, full, s) == 0


# ---------------------------------------------------------------------------
# strong connectivity

def test_strongly_connected_examples():
    assert is_strongly_connected(cerny_automaton(3))
    assert is_strongly_connected(kari_automaton())
    assert is_strongly_connected(roman_automaton())
    fixing = Dfa(2, 2, ((0, 1), (0, 1)))
    assert not is_strongly_connected(fixing)


@given(small_dfas())
def test_strongly_connected_matches_oracle(d):
    assert is_strongly_connected(d) == all_pairs_reachable(d)


# ---------------------------------------------------------------------------
# built-in words

def test_known_words_have_expected_lengths():
    assert len(cerny_word(4)) == 9
    assert len(KARI_WORD) == 25
    assert len(ROMAN_WORD) == 16


def test_known_words_synchronize():
    assert image(kari_automaton(), 63, KARI_WORD) == 1 << 1
    assert image(roman_automaton(), 31, ROMAN_WORD) == 1 << 4
    for n in range(2, 8):
        d = cerny_automaton(n)
        img = image(d, d.full_set, cerny_word(n))
        assert img & (img - 1) == 0
        assert len(cerny_word(n)) == (n - 1) ** 2


def test_word_text_round_trip():
    assert word_from_str("baaab aaab") == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert word_to_str((1, 0, 0, 0, 1, 0, 0, 0, 1), group=5) == "baaab aaab"
    assert word_to_str(()) == ""
    with pytest.raises(DfaError):
        word_from_str("abz", k=2)


# ---------------------------------------------------------------------------
# text and JSON formats

def test_parse_spec_example_swap():
    d = parse_dfa("2 1\n1\n0\n")
    assert d == Dfa(2, 1, ((1, 0),))


def test_serialize_round_trip_cerny():
    d = cerny_automaton(3)
    assert parse_dfa(serialize_dfa(d)) == d


@given(small_dfas())
def test_serialize_round_trip_random(d):
    assert parse_dfa(serialize_dfa(d)) == d
    mirror = {"n": d.n, "k": d.k, "delta": [list(row) for row in d.delta]}
    assert dfa_from_json(json.dumps(mirror)) == d


def test_parse_comments_and_layout():
    text = "# a comment\n3 2\n1 2 0\n# inner comment\n1 1\n2\n"
    assert parse_dfa(text) == cerny_automaton(3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DfaParseError) as e:
        parse_dfa("2 1\n5\n0\n")
    assert e.value.line == 2
    with pytest.raises(DfaParseError) as e:
        parse_dfa("2\n0 1\n")
    assert e.value.line == 1
    with pytest.raises(DfaParseError):
        parse_dfa("2 2\n0 1\n")  # missing a row
    with pytest.raises(DfaParseError):
        parse_dfa("2 1\n0 1 1\n")  # extra targets
    with pytest.raises(DfaParseError):
        parse_dfa("2 1\nx y\n")
    with pytest.raises(DfaParseError):
        parse_dfa("")


def test_json_errors():
    with pytest.raises(DfaParseError):
        dfa_from_json("{not json")
    with pytest.raises(DfaParseError):
        dfa_from_json('{"n": 2}')
