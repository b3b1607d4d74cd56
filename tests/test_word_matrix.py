from itertools import product

import pytest
from hypothesis import given, strategies as st

from syncword import (DfaError, WordMatrix, cerny_automaton, cerny_word,
                      identity, kari_automaton, matrix_of_word, multiply,
                      nonzero_columns, rank, render)
from syncword.word_matrix import dense

from oracles import apply, int_flat, int_rank


def c4_words(max_len):
    return [w for L in range(max_len + 1) for w in product(range(2), repeat=L)]


def test_identity_is_empty_word_matrix():
    d = cerny_automaton(3)
    assert matrix_of_word(d, ()) == identity(3)


def test_cycle_matrix():
    d = cerny_automaton(3)
    assert matrix_of_word(d, (0,)).rows == (1, 2, 0)


def test_reset_word_matrix_single_column():
    d = cerny_automaton(4)
    M = matrix_of_word(d, cerny_word(4))
    assert M.rows == (1, 1, 1, 1)
    assert nonzero_columns(M) == 1 << 1
    assert rank(M) == 1
    cols = {j for row in dense(M) for j, x in enumerate(row) if x}
    assert cols == {1}


def test_row_validation():
    with pytest.raises(DfaError):
        WordMatrix((0, 3))
    with pytest.raises(DfaError):
        WordMatrix(())


def test_multiply_identity_and_involution():
    E = identity(2)
    swap = WordMatrix((1, 0))
    assert multiply(E, swap) == swap
    assert multiply(swap, E) == swap
    assert multiply(swap, swap) == E
    with pytest.raises(DfaError):
        multiply(E, identity(3))


def test_multiply_matches_word_concatenation_exhaustively():
    d = cerny_automaton(4)
    words = c4_words(3)
    for u in words:
        assert matrix_of_word(d, u).rows == tuple(apply(d, p, u) for p in range(4))
        for v in words:
            assert multiply(matrix_of_word(d, u), matrix_of_word(d, v)) == \
                matrix_of_word(d, u + v)


def test_multiply_agrees_with_dense_product():
    d = kari_automaton()
    A = matrix_of_word(d, (1, 0, 0))
    B = matrix_of_word(d, (0, 1))
    C = multiply(A, B)
    da, db, dc = dense(A), dense(B), dense(C)
    n = A.n
    for i in range(n):
        for j in range(n):
            assert dc[i][j] == sum(da[i][m] * db[m][j] for m in range(n))


def test_multiply_associative():
    d = kari_automaton()
    A = matrix_of_word(d, (0,))
    B = matrix_of_word(d, (1,))
    C = matrix_of_word(d, (0, 1))
    assert multiply(multiply(A, B), C) == multiply(A, multiply(B, C))


def test_nonzero_columns_examples():
    d = cerny_automaton(4)
    assert nonzero_columns(identity(4)) == 0b1111
    assert nonzero_columns(matrix_of_word(d, (1,))) == 0b1110


def test_rank_examples():
    d = cerny_automaton(4)
    assert rank(identity(4)) == 4
    assert rank(matrix_of_word(d, cerny_word(4))) == 1
    assert rank(matrix_of_word(d, (1,))) == 3


@given(st.integers(2, 8).flatmap(lambda n: st.lists(
    st.integers(0, n - 1), min_size=n, max_size=n)))
def test_rank_matches_elimination_oracle(rows):
    M = WordMatrix(tuple(rows))
    flat_rows = [row for row in dense(M)]
    assert rank(M) == int_rank(flat_rows)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
def test_rank_of_product_bounded(pair):
    A = WordMatrix(tuple(pair[0]))
    B = WordMatrix(tuple(pair[1]))
    assert rank(multiply(A, B)) <= min(rank(A), rank(B))


def test_column_inclusion_along_prefixes():
    d = kari_automaton()
    words = [w for L in range(4) for w in product(range(2), repeat=L)]
    for u in words:
        for s in words:
            big = nonzero_columns(matrix_of_word(d, u + s))
            assert big & ~nonzero_columns(matrix_of_word(d, s)) == 0


def test_render_grid():
    assert render(identity(2)) == "1 0\n0 1"


def test_flat_oracle_helper_consistent():
    M = WordMatrix((1, 1, 0))
    assert int_flat(M.rows, 3) == [x for row in dense(M) for x in row]
