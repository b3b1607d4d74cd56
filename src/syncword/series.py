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
from .errors import DfaError
from . import linspace
from .word_matrix import WordMatrix

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


def _value(ctx: SeriesContext, f: Sequence[int]) -> int:
    """Value of a word from its state map."""
    targets = ctx.targets
    return sum(targets >> t & 1 for t in f) - ctx.target_size


def series_value(ctx: SeriesContext, w: Sequence[int]) -> int:
    """Value of w: preimage count of the target set minus the target size."""
    return _value(ctx, word_map(ctx.dfa, w))


def suffix_profile(ctx: SeriesContext, s: Sequence[int]) -> Profile:
    """(suffix length, value) for every right subword of s, lengths 0..|s|."""
    return [(length, _value(ctx, f))
            for length, f in enumerate(reversed(suffix_maps(ctx.dfa, s)))]


def threshold_count(profile: Profile, bound: int) -> int:
    """Number of nonempty suffixes with value >= bound.

    Suffixes are counted by length (distinct positions); the empty suffix is
    never counted, matching the convention that reproduces the reference
    counts of the built-in automata.
    """
    return sum(1 for length, value in profile if length > 0 and value >= bound)


def suffix_space_dimensions(ctx: SeriesContext, s: Sequence[int]) -> list[int]:
    """Dimensions of span{ M_v : v a suffix of s, value(v) >= n-i }, i = 1..n-1.

    Requires a singleton target and s synchronizing.  The level sets nest,
    so one echelon grows through all of them.  Level i should not exceed
    (i-1)n+1 dimensions, the bound claim_checks tests: all qualifying
    suffix matrices share the column support of the shortest of them,
    which has at most i nonzero columns.
    """
    n = ctx.dfa.n
    if ctx.target_size != 1:
        raise DfaError("suffix_space_dimensions needs a singleton target set")
    maps = suffix_maps(ctx.dfa, s)
    if len(set(maps[0])) > 1:
        raise DfaError("word is not synchronizing")
    suffixes = [(_value(ctx, f), f) for f in reversed(maps)]
    ech = linspace.RowEchelon(n * n)
    dims = []
    for i in range(1, n):
        # values never exceed n-1, so level i adds exactly those of value n-i
        for value, f in suffixes:
            if value == n - i:
                ech.add(linspace.flatten(WordMatrix(tuple(f))))
        dims.append(ech.dimension)
    return dims
