"""The 0/1 matrix of the state mapping induced by a word.

Such a matrix has exactly one unit per row: row i holds a unit in column j
when the word sends state i to state j.  We store only the row -> column
map, so composing two matrices is O(n) and equality is exact; the dense 0/1
view is materialized only where rational linear algebra needs it.  The
public constructor validates its rows; composition and word matrices build
their results through a trusted constructor, since a product of valid row
maps of one size and the map of a validated word are valid by construction.
"""

from __future__ import annotations

from typing import Sequence

from .automaton import Dfa, word_map
from .errors import DfaError


class WordMatrix:
    """Row-functional 0/1 matrix: ``rows[i]`` is the column of the unit in row i.

    Equal and hashed by its rows, which never change after construction.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[int]):
        rows = tuple(rows)
        n = len(rows)
        if n == 0:
            raise DfaError("matrix must have at least one row")
        for i, j in enumerate(rows):
            if type(j) is not int or not 0 <= j < n:
                raise DfaError(f"row {i}: column {j!r} is not in [0, {n})")
        self.rows = rows

    def __eq__(self, other):
        return self.rows == other.rows if type(other) is WordMatrix else NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"WordMatrix(rows={self.rows!r})"

    @property
    def n(self) -> int:
        return len(self.rows)


def _trusted(rows: tuple[int, ...]) -> WordMatrix:
    """A WordMatrix over rows known to be valid, without validating them."""
    M = object.__new__(WordMatrix)
    M.rows = rows
    return M


def identity(n: int) -> WordMatrix:
    """The matrix of the empty word."""
    return WordMatrix(tuple(range(n)))


def matrix_of_word(dfa: Dfa, w: Sequence[int]) -> WordMatrix:
    """Matrix with row i mapping to column i·w."""
    return _trusted(tuple(word_map(dfa, w)))


def multiply(A: WordMatrix, B: WordMatrix) -> WordMatrix:
    """Composition of row maps; equals the ordinary product of the dense views.

    multiply(matrix_of_word(u), matrix_of_word(v)) is the matrix of uv.
    """
    a, b = A.rows, B.rows
    if len(a) != len(b):
        raise DfaError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return _trusted(tuple([b[j] for j in a]))


def nonzero_columns(M: WordMatrix) -> int:
    """Bitmask of columns holding at least one unit (the image of the mapping)."""
    out = 0
    for j in M.rows:
        out |= 1 << j
    return out


def rank(M: WordMatrix) -> int:
    """Rank of the dense view, which is just the number of nonzero columns."""
    return nonzero_columns(M).bit_count()


def dense(M: WordMatrix) -> list[list[int]]:
    """The n x n 0/1 view, row-major."""
    n = M.n
    out = [[0] * n for _ in range(n)]
    for i, j in enumerate(M.rows):
        out[i][j] = 1
    return out


def render(M: WordMatrix) -> str:
    """Debug rendering as an n x n grid of 0/1."""
    return "\n".join(" ".join(str(x) for x in row) for row in dense(M))


def matrices_of_letters(dfa: Dfa) -> list[WordMatrix]:
    """The k one-letter matrices, by letter index."""
    return [matrix_of_word(dfa, (c,)) for c in range(dfa.k)]
