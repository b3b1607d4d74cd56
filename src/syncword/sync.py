"""Reset-word search and the q-column calculus on word matrices.

The shortest reset word comes from a breadth-first search over the subset
automaton, reconstructed through predecessor links; with letters expanded
in index order the result is the lexicographically least minimal word.
The q-machinery compares matrices only through the set of rows holding a
unit in column q, kept as bitmasks throughout.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .automaton import Dfa, Word, image, suffix_maps, _image_table
from .errors import CapacityError, DfaError
from .word_matrix import WordMatrix, multiply

DEFAULT_SUBSET_LIMIT = 24
SUBSET_LIMIT_ENV = "SYNCWORD_SUBSET_LIMIT"


def _subset_limit() -> int:
    env = os.environ.get(SUBSET_LIMIT_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise DfaError(f"{SUBSET_LIMIT_ENV}={env!r} is not an integer") from None
    return DEFAULT_SUBSET_LIMIT


def _check_subset_cap(n: int):
    """Raise CapacityError when a subset BFS over n states exceeds the cap."""
    cap = _subset_limit()
    if n > cap:
        raise CapacityError(f"subset BFS over 2^{n} states exceeds cap {cap}")


@dataclass(frozen=True)
class ResetResult:
    """A verified reset word with search metadata."""

    word: Word
    length: int
    target: int
    states_expanded: int


def is_synchronizing(dfa: Dfa) -> bool:
    """Pair-merging criterion: every two states can be sent to one state.

    Backward propagation over unordered state pairs p < q, indexed p*n + q,
    from the directly mergeable ones, O(n^2 k); avoids the exponential
    subset search.  Each pair enters the queue once, when found mergeable.
    """
    n = dfa.n
    preds: list[list[int]] = [[] for _ in range(n * n)]
    merged = bytearray(n * n)
    queue = []
    for p in range(n):
        for q in range(p + 1, n):
            pid = p * n + q
            for row in dfa.delta:
                p2, q2 = row[p], row[q]
                if p2 == q2:
                    if not merged[pid]:
                        merged[pid] = 1
                        queue.append(pid)
                else:
                    preds[p2 * n + q2 if p2 < q2 else q2 * n + p2].append(pid)
    for tid in queue:  # the queue grows while it is walked
        for pid in preds[tid]:
            if not merged[pid]:
                merged[pid] = 1
                queue.append(pid)
    return len(queue) == n * (n - 1) // 2


def _chunk_tables(row: Sequence[int], width: int) -> tuple[list[int], ...]:
    """Image tables of one letter over three chunks of `width` states.

    Entry b of table j is the image of the states
    {j*width + i : bit i of b set}; a chunk past state n-1 gets the table [0].
    """
    return tuple(_image_table(row[base:base + width])
                 for base in range(0, 3 * width, width))


def shortest_reset_word(dfa: Dfa) -> ResetResult | None:
    """BFS over the subset automaton from the full set to any singleton.

    Returns None when the automaton is not synchronizing.  Among minimal
    words the lexicographically least (by letter index) is returned: each
    level is expanded in discovery order with letters ascending, so subsets
    are discovered in lex order of their least shortest incoming words.
    Raises CapacityError when n exceeds the subset cap (default 24,
    overridable via the SYNCWORD_SUBSET_LIMIT environment variable).

    Cost: until the visited map below is allocated, the image of a subset
    is the OR of three table lookups, one per chunk of w = ceil(n/3)
    states, so for n <= 24 each letter has three tables of at most 2^8
    entries, cheap enough for a short search and no larger than the
    automaton needs (n = 16 gets 64 + 64 + 16 entries).  Along with the
    map, a search builds per letter two tables over the state halves, of
    2^ceil(n/2) and 2^floor(n/2) entries, and from then on an image is two
    lookups and one OR.

    Memory: visited subsets start in a `set`, about 64 bytes each (the int
    and its slot).  At the first level boundary where the set takes more
    than a visited map would, 64 * visited > 2^n, they move to a map of one
    byte per possible subset, so short searches never allocate it; one that
    gets there first runs is_synchronizing and returns None if it fails.  The
    level that crosses that line adds at most k subsets per subset it
    expands, so the set never holds more than (k + 1) * 2^n / 64 subsets
    (nor more than 2^n).  Every visited subset also keeps a predecessor
    code of c = 4 bytes (c = 8 once 2^n * k >= 2^31) until the search ends,
    and costs about 40 bytes (an int and a list slot) while it is in the
    current or the next level; two consecutive levels hold fewer than 2^n
    subsets.  The worst case is thus about (min(k, 63) + 2 + c + 40) * 2^n
    bytes, set and map included: 768 MiB for k = 2 at the default cap
    n = 24, so the cap is the memory limit.  The half tables add at most
    2 * k * 2^ceil(n/2) entries of about 40 bytes each, 0.6 MiB for k = 2
    at n = 24, far below the map.  Real frontiers are far smaller:
    cerny:18 (262,125 subsets) peaks at 2.1 MiB under tracemalloc, and
    cerny:22 (4,194,281 subsets) at 44 MiB peak RSS.
    """
    n = dfa.n
    _check_subset_cap(n)
    full = dfa.full_set
    if full & (full - 1) == 0:
        return ResetResult((), 0, full.bit_length() - 1, 0)
    k = dfa.k
    width = -(-n // 3)
    low, high = (1 << width) - 1, 2 * width
    letters = [_chunk_tables(row, width) for row in dfa.delta]
    # codes parent_index * k + letter stay below 2^n * k
    code_type = "i" if (full + 1) * k < 1 << 31 else "q"
    seen: set[int] | None = {full}
    visited = bytearray()
    level = [full]
    # preds[d][i] = parent_index * k + letter for the i-th subset of level d+1
    preds: list[array] = []
    expanded = 0
    while level:
        if seen is not None and len(seen) << 6 > full:
            if not is_synchronizing(dfa):
                return None
            visited = bytearray(full + 1)
            for mask in seen:
                visited[mask] = 1
            seen = None
            # two lookups per letter from here on: tables over the halves
            half = n - n // 2
            half_low = (1 << half) - 1
            halves = [(_image_table(row[:half]), _image_table(row[half:]))
                      for row in dfa.delta]
        nxt: list[int] = []
        back = array(code_type)
        push, link = nxt.append, back.append
        code = 0
        # one copy of the loop per store keeps the visited test inline
        if seen is not None:
            add = seen.add
            for mask in level:
                b0, b1, b2 = mask & low, mask >> width & low, mask >> high
                for t0, t1, t2 in letters:
                    t = t0[b0] | t1[b1] | t2[b2]
                    if t not in seen:
                        if t & (t - 1) == 0:
                            return _linked_result(preds, code, k, t, expanded)
                        add(t)
                        push(t)
                        link(code)
                    code += 1
        else:
            for mask in level:
                b0, b1 = mask & half_low, mask >> half
                for t0, t1 in halves:
                    t = t0[b0] | t1[b1]
                    if not visited[t]:
                        if t & (t - 1) == 0:
                            return _linked_result(preds, code, k, t, expanded)
                        visited[t] = 1
                        push(t)
                        link(code)
                    code += 1
        expanded += len(level)
        preds.append(back)
        level = nxt
    return None


def _linked_result(preds: list[array], code: int, k: int, target: int,
                   expanded: int) -> ResetResult:
    """The result whose last letter and parent are `code`, walking `preds` back."""
    word = [code % k]
    i = code // k
    for codes in reversed(preds):
        word.append(codes[i] % k)
        i = codes[i] // k
    word.reverse()
    return ResetResult(tuple(word), len(word), target.bit_length() - 1,
                       expanded + code // k + 1)


# ---------------------------------------------------------------------------
# q-columns

def q_column(M: WordMatrix, q: int) -> int:
    """Bitmask of rows holding a unit in column q: the preimage of q."""
    if not 0 <= q < M.n:
        raise DfaError(f"state {q} out of range [0, {M.n})")
    return _columns(M.rows)[q]


def _columns(f: Sequence[int]) -> list[int]:
    """Every q-column of the state map f (M.rows, say), by q: entry q is the
    bitmask of the states p with f[p] == q."""
    cols = [0] * len(f)
    for p, q in enumerate(f):
        cols[q] |= 1 << p
    return cols


def _same_size(*matrices: WordMatrix) -> None:
    """Raise DfaError unless the matrices share one size."""
    if len({len(M.rows) for M in matrices}) > 1:
        raise DfaError(f"dimension mismatch: {[len(M.rows) for M in matrices]}")


def left_stability_check(Ma: WordMatrix, Mu: WordMatrix,
                         Mv: WordMatrix) -> int | None:
    """The least state q at which left multiplication breaks a q-relation
    on this triple, or None when it breaks none.

    For every q, M_u ~q M_v must force M_au ~q M_av, and the q-column of
    M_v inside M_u's must force the same containment after prefixing a.
    Both implications hold vacuously when the antecedent fails.  Each
    product is composed once for all q.
    """
    _same_size(Ma, Mu, Mv)
    u, v = _columns(Mu.rows), _columns(Mv.rows)
    au, av = _columns(multiply(Ma, Mu).rows), _columns(multiply(Ma, Mv).rows)
    for q in range(len(u)):
        if not v[q] & ~u[q] and (av[q] & ~au[q] or u[q] == v[q] and au[q] != av[q]):
            return q
    return None


def reset_collapse_check(Mt: WordMatrix, Mu: WordMatrix,
                         Mv: WordMatrix) -> int | None:
    """The state q at which collapse to full equality fails on this
    triple, or None when it holds.

    When the q-column of M_v sits inside M_u's (as when M_u ~q M_v) and
    M_tv is the reset matrix targeting q, M_tu must equal M_tv as a whole
    matrix.  Only the one target of a reset M_tv has a full q-column, so
    only that state can fail; each product is composed at most once.
    """
    _same_size(Mt, Mu, Mv)
    Mtv = multiply(Mt, Mv)
    q = Mtv.rows[0]
    if (any(t != q for t in Mtv.rows)
            or _columns(Mv.rows)[q] & ~_columns(Mu.rows)[q]
            or multiply(Mt, Mu) == Mtv):
        return None
    return q


# ---------------------------------------------------------------------------
# irreducibility

def _suffix_columns(dfa: Dfa, s: Sequence[int], q: int) -> tuple[Word, list[int]]:
    """The validated word and its suffix q-columns: entry j belongs to s[j:].

    Raises DfaError unless s resets every state to q, that is unless the
    q-column of the whole word is full.
    """
    s, q = dfa.check_word(s), dfa.check_state(q)
    cols = [_columns(f)[q] for f in suffix_maps(dfa, s)]
    if cols[0] != dfa.full_set:
        raise DfaError("word does not reset the automaton to the given state")
    return s, cols


def is_irreducible(dfa: Dfa, s: Sequence[int], q: int) -> bool:
    """No factorization s = u t v with t nonempty collapses to M_{uv} ~q M_s.

    Since M_s has a full q-column, a collapse means u v alone already
    resets everything to q: the image of all states under u lies inside
    the q-column of v.  All O(|s|^2) split pairs are checked.
    """
    s, cols = _suffix_columns(dfa, s, q)
    img = dfa.full_set
    for i in range(len(s)):
        if any(img & ~col == 0 for col in cols[i + 1:]):
            return False
        img = image(dfa, img, s[i:i + 1])
    return True


def suffix_distinctness_check(dfa: Dfa, s: Sequence[int], q: int) -> bool:
    """All suffix matrices of a reset word differ at column q.

    Checks that the |s|+1 suffix q-columns are pairwise distinct, and the
    sharper fact that a longer suffix's q-column is never contained in a
    shorter one's.  Guaranteed to hold when s is irreducible; a reducible
    word (a repeated reset word, say) fails it, consistently with
    is_irreducible.
    """
    _, cols = _suffix_columns(dfa, s, q)
    # cols[j] belongs to suffix s[j:]; pairs come longer suffix first
    return all(longer & ~shorter for longer, shorter in combinations(cols, 2))


def near_sync_suffixes(dfa: Dfa, best: ResetResult) -> tuple[list[Word], str | None]:
    """Suffixes of a minimal reset word whose value is n-2: one state astray.

    `best` is the result of shortest_reset_word; its word s must reset to
    its target, else DfaError.  Returns the suffixes, shortest first, and
    the completion clause's failure detail, or None.  The clause asks for a
    letter c and a suffix u found with c.u synchronizing.  As s is minimal,
    c.s[j:] is too short to reset for j >= 2, so the clause holds exactly
    when s[1:] is found if any suffix is.  suffix_distinctness_check
    certifies that at most n are found, with distinct astray states.
    """
    s, cols = _suffix_columns(dfa, best.word, best.target)
    found = [s[j:] for j in range(len(s), -1, -1)
             if cols[j].bit_count() == dfa.n - 1]
    if found and len(found[-1]) != len(s) - 1:
        return found, ("no letter completes a near-synchronizing suffix: s[1:] has "
                       f"value {cols[1].bit_count() - 1}, not n-2 = {dfa.n - 2}")
    return found, None
