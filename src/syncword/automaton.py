"""Complete deterministic finite automata and the action of words on states.

States are 0-indexed integers, letters are 0-indexed with display names
a, b, c, ... for alphabets of size up to 26.  State sets are plain int
bitmasks (bit p set = state p present), words are tuples of letter indices;
the empty word is allowed everywhere and acts as the identity.
"""

from __future__ import annotations

import json
from typing import Sequence

from .errors import DfaError, DfaParseError

Word = tuple[int, ...]

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


class Dfa:
    """Complete DFA: ``delta[letter][state]`` is the successor state.

    ``delta`` is letter-major to match the text format (one row per letter).
    Equal and hashed by value, and never changed after construction, so it
    is safe to share between workers.
    """

    __slots__ = ("n", "k", "delta")

    def __init__(self, n: int, k: int, delta: Sequence[Sequence[int]]):
        # bool is an int subclass, and a float would pass the range checks
        if type(n) is not int or n < 1:
            raise DfaError(f"state count must be a positive integer, got {n!r}")
        if type(k) is not int or k < 1:
            raise DfaError(f"alphabet size must be a positive integer, got {k!r}")
        if len(delta) != k:
            raise DfaError(f"expected {k} transition rows, got {len(delta)}")
        rows = []
        for c, row in enumerate(delta):
            row = tuple(row)
            if len(row) != n:
                raise DfaError(f"letter {c}: expected {n} targets, got {len(row)}")
            for p, t in enumerate(row):
                if type(t) is not int or not 0 <= t < n:
                    raise DfaError(f"delta({p}, {c}) = {t!r} is not a state in "
                                   f"[0, {n})")
            rows.append(row)
        self.n = n
        self.k = k
        self.delta = tuple(rows)

    def __eq__(self, other):
        # the rows fix n and k
        return self.delta == other.delta if type(other) is Dfa else NotImplemented

    def __hash__(self):
        return hash(self.delta)

    def __repr__(self):
        return f"Dfa(n={self.n!r}, k={self.k!r}, delta={self.delta!r})"

    @property
    def full_set(self) -> int:
        """Bitmask of all n states."""
        return (1 << self.n) - 1

    def check_word(self, w: Sequence[int]) -> Word:
        """Validate letter indices (ints, not bools) against this alphabet."""
        w = tuple(w)
        for c in w:
            if type(c) is not int or not 0 <= c < self.k:
                raise DfaError(f"letter {c!r} out of range [0, {self.k})")
        return w

    def check_state(self, q: int) -> int:
        """Validate a state index (an int, not a bool) against this automaton."""
        if type(q) is not int or not 0 <= q < self.n:
            raise DfaError(f"state {q!r} out of range [0, {self.n})")
        return q


def word_map(dfa: Dfa, w: Sequence[int]) -> list[int]:
    """State map of w: entry p is p·w.  The letters are validated once."""
    w = dfa.check_word(w)
    f = list(range(dfa.n))
    delta = dfa.delta
    for c in w:
        row = delta[c]
        f = [row[p] for p in f]
    return f


def suffix_maps(dfa: Dfa, s: Sequence[int]) -> list[list[int]]:
    """State maps of every suffix: entry j is word_map(dfa, s[j:]), j = 0..|s|.

    Built right to left in O(n |s|): prefixing a letter composes its row
    before the map of the shorter suffix.
    """
    s = dfa.check_word(s)
    f = list(range(dfa.n))
    maps = [f]
    delta = dfa.delta
    for c in reversed(s):
        f = [f[t] for t in delta[c]]
        maps.append(f)
    maps.reverse()
    return maps


def image(dfa: Dfa, P: int, w: Sequence[int]) -> int:
    """Bitmask image { p·w : p in P }.  Never grows: |image| <= |P|."""
    if P < 0 or P >> dfa.n:
        raise DfaError(f"state set {bin(P)} has bits outside [0, {dfa.n})")
    f = word_map(dfa, w)
    out = 0
    for p in range(dfa.n):
        if P >> p & 1:
            out |= 1 << f[p]
    return out


def table_strongly_connected(flat: Sequence[int], n: int) -> bool:
    """Strong connectivity of a letter-major flat table, flat[c*n + p] = p·c.

    Double reachability sweep from state 0 over successor and predecessor
    bitmasks: forward along edges, then along reversed edges; both must
    cover all states.  The frontier is a bitmask too, taken lowest state
    first.
    """
    succ = [0] * n
    pred = [0] * n
    for base in range(0, len(flat), n):
        for p in range(n):
            t = flat[base + p]
            succ[p] |= 1 << t
            pred[t] |= 1 << p
    for adj in (succ, pred):
        seen = frontier = 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            fresh = adj[low.bit_length() - 1] & ~seen
            seen |= fresh
            frontier |= fresh
        if seen != (1 << n) - 1:
            return False
    return True


def is_strongly_connected(dfa: Dfa) -> bool:
    """True iff every state reaches every other along labelled edges."""
    return table_strongly_connected([t for row in dfa.delta for t in row], dfa.n)


# ---------------------------------------------------------------------------
# words as text

def word_from_str(text: str, k: int = len(LETTER_NAMES)) -> Word:
    """Parse a word written with letter names; whitespace is ignored."""
    out = []
    for ch in text:
        if ch.isspace():
            continue
        c = LETTER_NAMES.find(ch)
        if c < 0 or c >= k:
            raise DfaError(f"unknown letter {ch!r}")
        out.append(c)
    return tuple(out)


def word_to_str(w: Sequence[int], group: int = 0) -> str:
    """Render a word with letter names, optionally space-grouped every `group` letters."""
    if any(c < 0 or c >= len(LETTER_NAMES) for c in w):
        raise DfaError("letter index too large to render")
    s = "".join(LETTER_NAMES[c] for c in w)
    if group > 0:
        s = " ".join(s[i:i + group] for i in range(0, len(s), group))
    return s


# ---------------------------------------------------------------------------
# built-in automata

def cerny_automaton(n: int) -> Dfa:
    """The n-state, 2-letter automaton with a a cyclic shift and b merging 0 into 1.

    Letter a maps i -> (i+1) mod n; letter b maps 0 -> 1 and fixes the rest.
    Its shortest reset word has length (n-1)^2.
    """
    if n < 2:
        raise DfaError(f"need at least 2 states, got {n}")
    a = tuple((i + 1) % n for i in range(n))
    b = (1,) + tuple(range(1, n))
    return Dfa(n, 2, (a, b))


def cerny_word(n: int) -> Word:
    """The length-(n-1)^2 reset word b(a^(n-1)b)^(n-2) of cerny_automaton(n)."""
    if n < 2:
        raise DfaError(f"need at least 2 states, got {n}")
    return (1,) + ((0,) * (n - 1) + (1,)) * (n - 2)


def kari_automaton() -> Dfa:
    """Kari's 6-state, 2-letter automaton with shortest reset word of length 25.

    Letter a is a pair of 3-cycles (0 5 1)(2 4 3); letter b fixes 0, 2, 5,
    swaps 1 and 3, and sends 4 to 1.  Validated in the test suite: minimal
    reset length 25, KARI_WORD synchronizes to state 1, and the suffix counts
    at series thresholds 1..4 are 25, 17, 11, 6.
    """
    a = (5, 0, 4, 2, 3, 1)
    b = (0, 3, 2, 1, 1, 5)
    return Dfa(6, 2, (a, b))


# ba^2bab abaab baba^2b a^2baba^2b: the minimal reset word of kari_automaton()
KARI_WORD: Word = word_from_str("baabab abaab babaab aababaab")


def roman_automaton() -> Dfa:
    """Roman's 5-state, 3-letter automaton with shortest reset word of length 16.

    Letters a, b fix states 0 and 2; a sends 1, 3 to 4 and 4 to 3; b sends
    1 to 3, 3 to 1, fixes 4; c swaps 0 with 3 and 2 with 4, fixes 1.
    Validated in the test suite: minimal reset length 16, ROMAN_WORD
    synchronizes to state 4, suffix counts at thresholds 1..3 are 16, 10, 4.
    """
    a = (0, 4, 2, 4, 3)
    b = (0, 3, 2, 1, 4)
    c = (3, 1, 4, 0, 2)
    return Dfa(5, 3, (a, b, c))


# ab(ca)^2c bca^2c abca: the minimal reset word of roman_automaton()
ROMAN_WORD: Word = word_from_str("abcacac bcaac abca")


def builtin_automaton(name: str) -> Dfa:
    """Resolve a built-in automaton name: 'cerny:<n>', 'kari' or 'roman'."""
    if name == "kari":
        return kari_automaton()
    if name == "roman":
        return roman_automaton()
    if name.startswith("cerny:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise DfaError(f"bad state count in {name!r}") from None
        return cerny_automaton(n)
    raise DfaError(f"unknown automaton {name!r} (expected cerny:<n>, kari or roman)")


BUILTIN_NAMES = ("cerny:<n>", "kari", "roman")


# ---------------------------------------------------------------------------
# text and JSON formats

def serialize_dfa(dfa: Dfa) -> str:
    """Text format: header 'n k', then one line per letter with n targets."""
    lines = [f"{dfa.n} {dfa.k}"]
    for row in dfa.delta:
        lines.append(" ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def parse_dfa(text: str) -> Dfa:
    """Parse the text format; '#' lines are comments.  Errors carry line numbers.

    The canonical layout is one line per letter with n targets, but any
    whitespace layout of the n*k targets (letter-major) is accepted.
    """
    numbered = [(i + 1, line) for i, line in enumerate(text.splitlines())]
    rows = [(i, line) for i, line in numbered
            if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise DfaParseError("empty input")
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise DfaParseError(f"expected header 'n k', got {header!r}", header_line)
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise DfaParseError(f"non-integer header {header!r}", header_line) from None
    if n < 1 or k < 1:
        raise DfaParseError(f"n and k must be positive, got {n} {k}", header_line)
    tokens = [(lineno, field) for lineno, line in rows[1:] for field in line.split()]
    if len(tokens) != n * k:
        where = tokens[n * k][0] if len(tokens) > n * k else rows[-1][0]
        raise DfaParseError(f"expected {n * k} targets ({k} rows of {n}), "
                            f"got {len(tokens)}", where)
    flat = []
    for lineno, field in tokens:
        try:
            t = int(field)
        except ValueError:
            raise DfaParseError(f"non-integer target {field!r}", lineno) from None
        if not 0 <= t < n:
            raise DfaParseError(f"target {t} out of range [0, {n})", lineno)
        flat.append(t)
    return Dfa(n, k, tuple(tuple(flat[c * n:(c + 1) * n]) for c in range(k)))


def dfa_from_json(text: str) -> Dfa:
    """Parse the JSON mirror {"n":..., "k":..., "delta":[[...],...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DfaParseError(f"bad JSON: {e}") from None
    try:
        n, k, delta = obj["n"], obj["k"], obj["delta"]
    except (TypeError, KeyError):
        raise DfaParseError("JSON object must have keys n, k, delta") from None
    if not isinstance(delta, list) or not all(isinstance(row, list) for row in delta):
        raise DfaParseError("delta must be a list of lists of integers")
    for value in (n, k, *(t for row in delta for t in row)):
        # bool is an int subclass; floats such as 1.7 must not be truncated
        if isinstance(value, bool) or not isinstance(value, int):
            raise DfaParseError(f"expected an integer, got {json.dumps(value)}")
    return Dfa(n, k, tuple(tuple(row) for row in delta))
