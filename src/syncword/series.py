"""Integer-valued rational series attached to a state q.

The value of a word w at q is |{p : p.w = q}| - 1: the number of states
pulled into q beyond q itself.  For a word resetting to q the value is
n-1, the series of the empty word is 0, and every value lies in [-1, n-1].
"""

from __future__ import annotations

from typing import Sequence

from .automaton import Dfa, suffix_maps, word_map
from .errors import DfaError
from . import linspace
from .word_matrix import WordMatrix

Profile = list[tuple[int, int]]


def series_value(dfa: Dfa, w: Sequence[int], q: int) -> int:
    """Value of w at q: the preimage count of q minus one."""
    return word_map(dfa, w).count(dfa.check_state(q)) - 1


def suffix_profile(dfa: Dfa, s: Sequence[int], q: int) -> Profile:
    """(suffix length, value at q) for every right subword of s, lengths 0..|s|."""
    q = dfa.check_state(q)
    return [(length, f.count(q) - 1)
            for length, f in enumerate(reversed(suffix_maps(dfa, s)))]


def threshold_count(profile: Profile, bound: int) -> int:
    """Number of nonempty suffixes with value >= bound.

    Suffixes are counted by length (distinct positions); the empty suffix is
    never counted, matching the convention that reproduces the reference
    counts of the built-in automata.
    """
    return sum(1 for length, value in profile if length > 0 and value >= bound)


def suffix_space_dimensions(dfa: Dfa, s: Sequence[int], q: int) -> list[int]:
    """Dimensions of span{ M_v : v a suffix of s, value(v) >= n-i }, i = 1..n-1.

    Requires s to reset the automaton to q.  The level sets nest, so one
    echelon grows through all of them.  Level i should not exceed (i-1)n+1
    dimensions, the bound claim_checks tests: all qualifying suffix
    matrices share the column support of the shortest of them, which has
    at most i nonzero columns.
    """
    n = dfa.n
    q = dfa.check_state(q)
    suffixes = [(f.count(q) - 1, f) for f in reversed(suffix_maps(dfa, s))]
    if suffixes[-1][0] != n - 1:
        raise DfaError("word does not reset the automaton to the given state")
    ech = linspace.RowEchelon(n * n)
    dims = []
    for i in range(1, n):
        # values never exceed n-1, so level i adds exactly those of value n-i
        for value, f in suffixes:
            if value == n - i:
                ech.add(linspace.flatten(WordMatrix(tuple(f))))
        dims.append(ech.dimension)
    return dims
