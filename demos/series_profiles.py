"""Suffix profiles: how a reset word gathers states, one suffix at a time.

Run with:  python demos/series_profiles.py
"""

from syncword import (KARI_WORD, ROMAN_WORD, SeriesContext, cerny_automaton,
                      cerny_word, kari_automaton, roman_automaton,
                      shortest_reset_word, suffix_profile,
                      suffix_space_dimensions, threshold_count, word_to_str)

# For a target state q, the value of a word w counts the states pulled
# into q beyond the one already there: preimage size minus 1.  Suffixes of
# a reset word climb from 0 (empty suffix) to n-1 (the whole word).
for dfa, word in [(kari_automaton(), KARI_WORD),
                  (roman_automaton(), ROMAN_WORD),
                  (cerny_automaton(5), cerny_word(5))]:
    target = shortest_reset_word(dfa).target
    ctx = SeriesContext.for_state(dfa, target)
    profile = suffix_profile(ctx, word)
    print(f"--- n={dfa.n}, word {word_to_str(word, group=5)} -> {target}")
    print("suffix values:", " ".join(str(v) for _, v in profile))
    for bound in range(1, dfa.n):
        print(f"  suffixes with value >= {bound}: "
              f"{threshold_count(profile, bound)}")
    # the matrices of high-value suffixes live in small subspaces
    dims = suffix_space_dimensions(ctx, word)
    print("  suffix-space dimensions by allowed image size:", dims)
    print("  bounds (i-1)n+1:", [(i - 1) * dfa.n + 1 for i in range(1, dfa.n)])
    print()

# The cyclic-shift family is the cleanest: each level 0 < i < n-1 is hit by
# exactly n consecutive suffix lengths.
n = 6
dfa = cerny_automaton(n)
ctx = SeriesContext.for_state(dfa, 1)
profile = suffix_profile(ctx, cerny_word(n))
values = {length: value for length, value in profile}
for level in range(1, n - 1):
    lengths = [L for L in range(1, len(cerny_word(n)) + 1)
               if values[L] == level]
    print(f"level {level}: lengths {lengths[0]}..{lengths[-1]} "
          f"({len(lengths)} = n suffixes)")
