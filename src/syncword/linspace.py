"""Exact linear algebra over flattened word matrices.

Matrices are flattened row-major into 0/1 integer vectors of length n^2.
Rationals (stdlib Fraction) appear only where elimination divides by a
pivot, so every dimension claim is checked with zero tolerance.  A shared
incremental row-echelon accumulator powers span dimensions, membership
tests and decompositions in one pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .automaton import Dfa
from .errors import DfaError
from .word_matrix import WordMatrix, identity, matrices_of_letters, multiply

if TYPE_CHECKING:
    from fractions import Fraction

FlatMatrix = tuple[int, ...]


def flatten(M: WordMatrix) -> FlatMatrix:
    """Row-major n^2 vector of the dense 0/1 view."""
    n = M.n
    out = [0] * (n * n)
    for i, j in enumerate(M.rows):
        out[i * n + j] = 1
    return tuple(out)


def _fraction(*args) -> Fraction:
    """Fraction(*args).  The first call imports fractions, which imports
    decimal, and rebinds this name to Fraction itself: a command that never
    eliminates never loads them."""
    global _fraction
    import fractions
    _fraction = fractions.Fraction
    return _fraction(*args)


def _exact(x):
    """An int or a Fraction as is, any other number (a float) as its exact
    Fraction.  It imports fractions itself, as _fraction does, so a command
    that never eliminates still never loads it."""
    from fractions import Fraction
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


class RowEchelon:
    """Incremental row-echelon accumulator over Q^width, forward elimination only.

    Each stored row is its input's residual scaled to 1 at its pivot, so it
    is zero before its pivot column and at every earlier pivot; it is kept
    as its nonzero (column, value) pairs.  Reducing a vector by the rows in
    insertion order leaves the one vector, zero at every pivot, that
    differs from it by a span member.  Rows may carry `tail` extra entries
    that are reduced along but never hold a pivot.  Single-writer while
    mutable.
    """

    def __init__(self, width: int, tail: int = 0):
        self.width = width
        self.tail = tail
        self.pivot_rows: list[tuple[int, tuple[tuple[int, Fraction], ...]]] = []

    @property
    def dimension(self) -> int:
        return len(self.pivot_rows)

    def residual(self, vec: Sequence) -> list:
        """The reduced copy of vec (width + tail entries), zero at every pivot.

        `int` and `Fraction` entries are taken as they are; only other
        numbers (floats) are converted, to their exact Fractions.  A
        multiplier of 1 or -1, about four in five of all reductions in
        `verify`, subtracts or adds the stored row as it is, without forming
        products.  Stored rows stay Fractions: integer pivot rows are faster
        still, but wait on ROADMAP item 1 (the benchmark keeps every pass, so
        a faster `verify` reads as more memory).
        """
        vec = [x if type(x) is int else _exact(x) for x in vec]
        full = self.width + self.tail
        if len(vec) != full:
            raise DfaError(f"vector width {len(vec)} != {full}")
        for col, row in self.pivot_rows:
            f = vec[col]
            if f == 1:
                for j, x in row:
                    vec[j] -= x
            elif f == -1:
                for j, x in row:
                    vec[j] += x
            elif f:
                for j, x in row:
                    vec[j] -= f * x
        return vec

    def contains(self, vec: Sequence) -> bool:
        """Span membership, exact."""
        return not any(self.residual(vec))

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; True iff it enlarged the span."""
        res = self.residual(vec)
        for col in range(self.width):
            if res[col]:
                inv = 1 / _fraction(res[col])
                self.pivot_rows.append(
                    (col, tuple((j, x * inv) for j, x in enumerate(res) if x)))
                return True
        return False


def span_dimension(vectors: Sequence[Sequence]) -> int:
    """Rank of a list of equal-width vectors via exact elimination.

    Only the distinct vectors are reduced: a repeated one cannot add rank.
    """
    vectors = list(dict.fromkeys(tuple(v) for v in vectors))
    if not vectors:
        return 0
    ech = RowEchelon(len(vectors[0]))
    for v in vectors:
        ech.add(v)
    return ech.dimension


def standard_basis(n: int, k: int) -> list[FlatMatrix]:
    """Basis of the row-functional matrices supported on the first k columns.

    Returns the n(k-1) matrices with a single unit at (i, j) for each row i
    and each column j < k-1 (every other row's unit sits in column k-1),
    plus the matrix with all units in column k-1: n(k-1)+1 matrices in
    total, linearly independent.
    """
    if not 1 <= k <= n:
        raise DfaError(f"need 1 <= k <= n, got k={k}, n={n}")

    def unit_rows(i: int, j: int) -> FlatMatrix:
        rows = [k - 1] * n
        rows[i] = j
        return flatten(WordMatrix(tuple(rows)))

    basis = [unit_rows(i, j) for j in range(k - 1) for i in range(n)]
    basis.append(flatten(WordMatrix((k - 1,) * n)))
    return basis


def decompose(target: Sequence, basis: Sequence[Sequence]) -> dict[int, Fraction] | None:
    """Express target as an exact linear combination of the basis list.

    Each basis vector enters a RowEchelon as [vector | unit combination],
    with pivots only in the vector part, so every stored row carries its
    expression in the list and reducing [target | 0] leaves
    [0 | -coefficients].  Returns {basis index: coefficient}, holding only
    the nonzero coefficients in index order, or None when target is outside
    the span; the result is the deterministic greedy-elimination solution,
    and when the basis list is independent it is the unique one.
    """
    size = len(basis)
    ech = RowEchelon(len(target), tail=size)
    for i, vec in enumerate(basis):
        unit = [0] * size
        unit[i] = 1
        ech.add(list(vec) + unit)
    res = ech.residual(list(target) + [0] * size)
    if any(res[:ech.width]):
        return None
    return {i: -lam for i, lam in enumerate(res[ech.width:]) if lam}


def coefficient_sum(d: dict[int, Fraction]) -> Fraction:
    """Sum of the coefficients; equals 1 for any representation of a word matrix
    over word matrices (every such matrix has total cell sum n)."""
    return sum(d.values(), _fraction(0))


def letter_closure_check(
    dfa: Dfa, ech: RowEchelon, generators: Sequence[WordMatrix]
) -> tuple[bool, tuple[int, int] | None]:
    """Is the span held by `ech` stable under left multiplication by every letter?

    `generators` must span what `ech` holds, as the pair returned by
    word_matrix_span does.  Tests M_letter . g for every letter and every
    generator g against `ech`, adding nothing to it.  When that holds, the
    span is stable under M_t for every word t.  Each distinct product is
    tested once: a repeat of one that passed passes too.  On failure
    returns (False, (letter, generator_index)) as the witness, the first in
    letter-then-generator order.
    """
    if ech.width != dfa.n * dfa.n:
        raise DfaError(f"echelon width {ech.width} != {dfa.n}^2")
    tested = set()
    for c, Mc in enumerate(matrices_of_letters(dfa)):
        for gi, g in enumerate(generators):
            prod = multiply(Mc, g)
            if prod.rows in tested:
                continue
            tested.add(prod.rows)
            if not ech.contains(flatten(prod)):
                return False, (c, gi)
    return True, None


def word_matrix_span(dfa: Dfa) -> tuple[RowEchelon, list[tuple[tuple[int, ...], WordMatrix]]]:
    """Span of the matrices of ALL words, by letter-closure saturation.

    Starts from the identity and left-multiplies by letters, keeping only
    matrices that enlarge the span.  Once no product of a letter with a
    kept matrix adds dimension, the span is closed under every M_t and so
    contains every word matrix.  A product whose matrix was reduced before
    is skipped: the span already holds it, so each distinct matrix is
    reduced once.  Returns the accumulator and the kept (word, matrix)
    witnesses.  A correct span keeps at most n(n-1)+1, so saturation stops
    past n^2 kept: a broken echelon cannot loop forever.
    """
    n = dfa.n
    ech = RowEchelon(n * n)
    witnesses: list[tuple[tuple[int, ...], WordMatrix]] = []
    frontier: list[tuple[tuple[int, ...], WordMatrix]] = []
    E = identity(n)
    ech.add(flatten(E))
    witnesses.append(((), E))
    frontier.append(((), E))
    reduced = {E.rows}
    letters = matrices_of_letters(dfa)
    while frontier and len(witnesses) <= n * n:
        fresh = []
        for c, Mc in enumerate(letters):
            for w, g in frontier:
                cand = multiply(Mc, g)
                if cand.rows in reduced:
                    continue
                reduced.add(cand.rows)
                if ech.add(flatten(cand)):
                    entry = ((c,) + w, cand)
                    witnesses.append(entry)
                    fresh.append(entry)
        frontier = fresh
    return ech, witnesses
