"""Integer-valued rational series attached to a target state set.

For a target set P the value of a word w is |{p : p.w in P}| - |P|: the
number of states pulled into P beyond the ones already counted there.  For
a singleton P = {q} and a word resetting to q the value is n-1, the series
of the empty word is 0, and every value lies in [-|P|, n-|P|].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automaton import Dfa, suffix_maps, word_map
from .errors import CheckFailure, DfaError
from . import linspace
from .word_matrix import WordMatrix, matrix_of_word

Profile = list[tuple[int, int]]


@dataclass(frozen=True)
class SeriesContext:
    """An automaton together with the nonempty target set P (a bitmask)."""

    dfa: Dfa
    targets: int

    def __post_init__(self):
        if self.targets <= 0:
            raise DfaError("target set must be nonempty")
        if self.targets >> self.dfa.n:
            raise DfaError(f"target set {bin(self.targets)} has bits outside "
                           f"[0, {self.dfa.n})")

    @classmethod
    def for_state(cls, dfa: Dfa, q: int) -> "SeriesContext":
        if not 0 <= q < dfa.n:
            raise DfaError(f"state {q} out of range [0, {dfa.n})")
        return cls(dfa, 1 << q)

    @property
    def target_size(self) -> int:
        return self.targets.bit_count()


def series_value(ctx: SeriesContext, w: Sequence[int]) -> int:
    """Value of w: preimage count of the target set minus the target size."""
    targets = ctx.targets
    return sum(targets >> t & 1 for t in word_map(ctx.dfa, w)) - ctx.target_size


def suffix_profile(ctx: SeriesContext, s: Sequence[int]) -> Profile:
    """(suffix length, value) for every right subword of s, lengths 0..|s|."""
    targets, size = ctx.targets, ctx.target_size
    maps = suffix_maps(ctx.dfa, s)
    return [(length, sum(targets >> t & 1 for t in f) - size)
            for length, f in enumerate(reversed(maps))]


def threshold_count(profile: Profile, bound: int) -> int:
    """Number of nonempty suffixes with value >= bound.

    Suffixes are counted by length (distinct positions); the empty suffix is
    never counted, matching the convention that reproduces the reference
    counts of the built-in automata.
    """
    return sum(1 for length, value in profile if length > 0 and value >= bound)


def suffix_space_dimensions(ctx: SeriesContext, s: Sequence[int]) -> list[int]:
    """Dimensions of span{ M_v : v a suffix of s, value(v) >= n-i }, i = 1..n-1.

    Requires a singleton target and s synchronizing.  The exact dimension
    at level i never exceeds (i-1)n+1: all qualifying suffix matrices share
    the column support of the shortest of them, which has at most i nonzero
    columns; the first level above that bound raises CheckFailure.  The
    level sets nest, so one echelon grows through all of them.
    """
    n = ctx.dfa.n
    if ctx.target_size != 1:
        raise DfaError("suffix_space_dimensions needs a singleton target set")
    maps = suffix_maps(ctx.dfa, s)
    if len(set(maps[0])) > 1:
        raise DfaError("word is not synchronizing")
    profile = suffix_profile(ctx, s)
    ech = linspace.RowEchelon(n * n)
    dims = []
    for i in range(1, n):
        # values never exceed n-1, so level i adds exactly those of value n-i
        for (_, value), f in zip(profile, reversed(maps)):
            if value == n - i:
                ech.add(linspace.flatten(WordMatrix(tuple(f))))
        dim = ech.dimension
        if dim > (i - 1) * n + 1:
            raise CheckFailure((dim, i, n))
        dims.append(dim)
    return dims


def series_linearity_check(
    ctx: SeriesContext, target: Sequence[int], parts: Sequence[Sequence[int]]
) -> bool | None:
    """Does the series respect a decomposition of M_target over {M_part}?

    Decomposes the target's matrix over the parts' matrices exactly;
    returns None when it is not in their span (not applicable, distinct
    from a failure), else whether value(target) equals the coefficient
    combination of the parts' values.
    """
    dfa = ctx.dfa
    basis = [linspace.flatten(matrix_of_word(dfa, p)) for p in parts]
    d = linspace.decompose(linspace.flatten(matrix_of_word(dfa, target)), basis)
    if d is None:
        return None
    expected = sum(lam * series_value(ctx, parts[i]) for i, lam in d.coefficients)
    return expected == series_value(ctx, target)
