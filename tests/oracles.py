"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own algorithms: reset lengths come
from plain word enumeration or a frozenset search, ranks from fraction-free
integer elimination, reachability from per-state searches.  The span
saturation and letter-closure loops are the exception: they keep the
library's echelon and drop only its skip of repeated products, so that a
test can hold the skip to the plain loop.  So are the battery's loops that
compose every word product (the q-relation checks on matrices, the
image-monotone pairs and the span-word-stability combination): a test
holds the battery's column and lookup forms to them.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd

from syncword import Dfa, DfaError, RowEchelon, ScanConfig, ScanReport, image
from syncword import automaton, enumeration
from syncword.enumeration import canonical_flat, flat_to_dfa
from syncword.linspace import flatten
from syncword.sync import _columns, _suffix_columns
from syncword.word_matrix import (dense, identity, matrices_of_letters, multiply,
                                  nonzero_columns)


def apply(dfa: Dfa, p: int, w) -> int:
    """State reached from p by reading w left to right, one letter at a
    time; the empty word returns p."""
    if not 0 <= p < dfa.n:
        raise DfaError(f"state {p} out of range [0, {dfa.n})")
    for c in w:
        if not 0 <= c < dfa.k:
            raise DfaError(f"letter {c} out of range [0, {dfa.k})")
        p = dfa.delta[c][p]
    return p


def index_to_flat(idx: int, n: int, k: int) -> list[int]:
    """Digits of a table index base n, most significant first; length nk."""
    flat = [0] * (n * k)
    for pos in range(n * k - 1, -1, -1):
        flat[pos] = idx % n
        idx //= n
    return flat


def dfa_to_flat(dfa: Dfa) -> tuple[int, ...]:
    """The letter-major flat table of an automaton."""
    return tuple(t for row in dfa.delta for t in row)


def combine(basis, d) -> tuple:
    """Re-sum a {basis index: coefficient} decomposition over its basis
    list, exactly."""
    width = len(basis[0]) if basis else 0
    out = [0] * width
    for i, lam in d.items():
        for j in range(width):
            out[j] += lam * Fraction(basis[i][j])
    return tuple(out)


def relabel_flat(flat, n: int, k: int, perm) -> tuple[int, ...]:
    """Apply a state relabeling (perm[old] = new) to a flat table."""
    out = [0] * (n * k)
    for c in range(k):
        base = c * n
        for p in range(n):
            out[base + perm[p]] = perm[flat[base + p]]
    return tuple(out)


def brute_minimal_reset(dfa: Dfa, max_len: int):
    """First synchronizing word in length-then-lex order, or None."""
    full = dfa.full_set
    for length in range(max_len + 1):
        for w in product(range(dfa.k), repeat=length):
            img = image(dfa, full, w)
            if img & (img - 1) == 0:
                return w
    return None


def frozenset_minimal_reset(dfa: Dfa):
    """Length-then-lex least reset word by a frozenset subset search, or None.

    Each level maps every newly reached state set to the least word reaching
    it; sets are expanded in order of those words, so the first word found
    for a set is its least shortest one.
    """
    full = frozenset(range(dfa.n))
    best = {full: ()}
    level = [((), full)]
    while level:
        singles = [w for w, states in level if len(states) == 1]
        if singles:
            return min(singles)
        nxt = []
        for w, states in sorted(level, key=lambda pair: pair[0]):
            for c in range(dfa.k):
                t = frozenset(dfa.delta[c][p] for p in states)
                if t not in best:
                    best[t] = w + (c,)
                    nxt.append((w + (c,), t))
        level = nxt
    return None


def int_rank(vectors):
    """Rank over the rationals by fraction-free integer elimination."""
    rows = []  # (pivot index, integer vector), pivots ascending
    rank = 0
    for vec in vectors:
        vec = list(vec)
        width = len(vec)
        for pivot, row in rows:
            c = vec[pivot]
            if c:
                # row is zero before its pivot, so this scales vec uniformly
                a = row[pivot]
                vec = [x * a - y * c for x, y in zip(vec, row)]
        for idx in range(width):
            if vec[idx]:
                g = 0
                for x in vec:
                    g = gcd(g, x)
                vec = [x // g for x in vec]
                if vec[idx] < 0:
                    vec = [-x for x in vec]
                rows.append((idx, vec))
                rows.sort(key=lambda pr: pr[0])
                rank += 1
                break
    return rank


def int_flat(rows_map, n):
    """Row-major 0/1 flattening of a row -> column map, as plain ints."""
    out = [0] * (n * n)
    for i, j in enumerate(rows_map):
        out[i * n + j] = 1
    return out


def all_pairs_reachable(dfa: Dfa) -> bool:
    """Strong connectivity by a separate search from every state."""
    for start in range(dfa.n):
        seen = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for c in range(dfa.k):
                t = dfa.delta[c][p]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != dfa.n:
            return False
    return True


def preimage_count(dfa: Dfa, w, q: int) -> int:
    """States sent into q by w, counted one by one."""
    return sum(1 for p in range(dfa.n) if apply(dfa, p, w) == q)


def brute_removable_split(dfa: Dfa, s, q: int):
    """Some (i, j), j > i, such that s[:i] + s[j:] sends every state to q,
    or None.  Each candidate word is applied state by state."""
    for i in range(len(s)):
        for j in range(len(s), i, -1):
            w = tuple(s[:i]) + tuple(s[j:])
            if all(apply(dfa, p, w) == q for p in range(dfa.n)):
                return i, j
    return None


def near_sync_by_search(dfa: Dfa, best):
    """near_sync_suffixes as a search: the count and distinct-astray
    postconditions, then every letter prefixed to every suffix found.

    Returns the suffixes of value n-2, shortest first, and the first failed
    postcondition, or None.
    """
    s, cols = _suffix_columns(dfa, best.word, best.target)
    full = dfa.full_set
    found = []
    astray = []
    for j in range(len(s), -1, -1):
        odd = full & ~cols[j]
        if odd.bit_count() == 1:
            found.append(s[j:])
            astray.append(odd.bit_length() - 1)
    if len(found) > dfa.n:
        return found, str((len(found), dfa.n))
    if len(set(astray)) != len(astray):
        return found, str(astray)
    if found and not any(image(dfa, full, (c,) + u).bit_count() == 1
                         for c in range(dfa.k) for u in found):
        return found, "no letter completes a near-synchronizing suffix"
    return found, None


def strongly_connected_class_count(n: int, k: int) -> int:
    """Relabeling classes of strongly connected n-state, k-letter tables,
    counted as distinct orbits of whole tables under every permutation."""
    orbits = set()
    for flat in product(range(n), repeat=n * k):
        delta = tuple(flat[c * n:(c + 1) * n] for c in range(k))
        if not all_pairs_reachable(Dfa(n, k, delta)):
            continue
        orbit = set()
        for perm in permutations(range(n)):
            inv = [0] * n
            for old, new in enumerate(perm):
                inv[new] = old
            orbit.add(tuple(tuple(perm[row[inv[p]]] for p in range(n))
                            for row in delta))
        orbits.add(frozenset(orbit))
    return len(orbits)


def reference_scan(cfg: ScanConfig) -> ScanReport:
    """extremal_scan by a raw walk over every table index, one BFS per table.

    Tables come in index order, as a base-n odometer over the flat table,
    so the violation lists need no sorting.  The filters are equality with
    canonical_flat and all_pairs_reachable.  Every image row is built from
    the table itself, and the reset length comes from the scanner's BFS,
    looked up at call time so that a test can patch it.
    """
    n, k = cfg.n, cfg.k
    cube = (n ** 3 - n) // 6
    report = ScanReport(n, k, cfg.require_strongly_connected, cfg.canonicalize)
    witnesses = set()
    for flat in product(range(n), repeat=n * k):
        if cfg.canonicalize and flat != canonical_flat(flat, n, k):
            continue
        if (cfg.require_strongly_connected
                and not all_pairs_reachable(flat_to_dfa(flat, n, k))):
            continue
        report.total += 1
        images = [automaton._image_table(flat[c * n:(c + 1) * n]) for c in range(k)]
        length = enumeration._reset_length(images, n)
        if length is None:
            continue
        report.histogram[length] = report.histogram.get(length, 0) + 1
        if length > report.max_length:
            report.max_length, report.max_length_count = length, 0
            witnesses = set()
        if length == report.max_length:
            report.max_length_count += 1
            witnesses.add(canonical_flat(flat, n, k))
        if length > cube:
            report.upper_bound_violations.append(flat)
        if length > (n - 1) ** 2:
            report.conjecture_counterexamples.append(flat)
    report.synchronizing = sum(report.histogram.values())
    report.witnesses = sorted(witnesses)
    return report


def saturate_every_product(dfa: Dfa):
    """word_matrix_span without its skip of repeated matrices: every product
    of a letter with a frontier matrix is reduced by the echelon, each
    round, whether or not the same matrix was reduced before.  Returns the
    echelon and the kept (word, matrix) witnesses."""
    n = dfa.n
    ech = RowEchelon(n * n)
    E = identity(n)
    ech.add(flatten(E))
    witnesses = [((), E)]
    frontier = [((), E)]
    letters = matrices_of_letters(dfa)
    while frontier and len(witnesses) <= n * n:
        fresh = []
        for c, Mc in enumerate(letters):
            for w, g in frontier:
                cand = multiply(Mc, g)
                if ech.add(flatten(cand)):
                    witnesses.append(((c,) + w, cand))
                    fresh.append(((c,) + w, cand))
        frontier = fresh
    return ech, witnesses


def closure_every_product(dfa: Dfa, ech, generators):
    """letter_closure_check without its skip of repeated products: the first
    (letter, generator index) whose product falls outside the echelon's
    span, in letter-then-generator order, or None."""
    for c, Mc in enumerate(matrices_of_letters(dfa)):
        for gi, g in enumerate(generators):
            if not ech.contains(flatten(multiply(Mc, g))):
                return c, gi
    return None


# ---------------------------------------------------------------------------
# the battery's word products, composed every time

def left_stability_by_matrices(Ma, Mu, Mv):
    """The q-relation check on word matrices: the least q at which
    M_u ~q M_v fails to force M_au ~q M_av, or the q-column of M_v inside
    M_u's fails to force the same containment after prefixing a; or None."""
    u, v = _columns(Mu.rows), _columns(Mv.rows)
    au, av = _columns(multiply(Ma, Mu).rows), _columns(multiply(Ma, Mv).rows)
    for q in range(len(u)):
        if not v[q] & ~u[q] and (av[q] & ~au[q] or u[q] == v[q] and au[q] != av[q]):
            return q
    return None


def reset_collapse_by_matrices(Mt, Mu, Mv):
    """The reset-collapse check on word matrices: the target q of a reset
    M_tv with the q-column of M_v inside M_u's and M_tu != M_tv; or None."""
    Mtv = multiply(Mt, Mv)
    q = Mtv.rows[0]
    if (any(t != q for t in Mtv.rows)
            or _columns(Mv.rows)[q] & ~_columns(Mu.rows)[q]
            or multiply(Mt, Mu) == Mtv):
        return None
    return q


def dense_columns(M):
    """Every column of the dense view as a bitmask of its unit rows."""
    D = dense(M)
    return [sum(row[q] << p for p, row in enumerate(D)) for q in range(M.n)]


def relation_columns(Ma, Mu, Mv):
    """The q-column lists of M_u, M_v, M_a·M_u and M_a·M_v, read off the
    dense views: the arguments of the q-relation checks."""
    return [dense_columns(M) for M in (Mu, Mv, multiply(Ma, Mu), multiply(Ma, Mv))]


def left_stability_dense(Mu, Mv, Mau, Mav):
    """left-stability stated on four dense matrices, whether or not the last
    two are products of the first two: the least q with column q of M_v
    inside M_u's such that column q of M_av is not inside M_au's, or the
    columns of M_u and M_v are equal and those of M_au and M_av are not."""
    U, V, AU, AV = (dense(M) for M in (Mu, Mv, Mau, Mav))
    n = len(U)
    for q in range(n):
        u, v, au, av = ([row[q] for row in D] for D in (U, V, AU, AV))
        inside = all(y <= x for x, y in zip(u, v))
        if inside and (any(y > x for x, y in zip(au, av)) or u == v and au != av):
            return q
    return None


def reset_collapse_dense(Mu, Mv, Mtu, Mtv):
    """reset-collapse stated on four dense matrices: the q at which M_tv is
    all ones in column q, column q of M_v lies inside M_u's, and M_tu and
    M_tv differ anywhere; or None."""
    U, V, TU, TV = (dense(M) for M in (Mu, Mv, Mtu, Mtv))
    n = len(U)
    for q in range(n):
        if (all(row[q] for row in TV)
                and all(V[p][q] <= U[p][q] for p in range(n)) and TU != TV):
            return q
    return None


def image_monotone_by_products(short, mat, compose=multiply):
    """The first pair (u, s) of `short`, u-major, whose product's image is
    not inside im(M_s), composing M_u·M_s with `compose` for every pair; or
    None."""
    return next(((u, s) for u in short for s in short
                 if nonzero_columns(compose(mat[u], mat[s])) & ~nonzero_columns(mat[s])),
                None)


def left_combination_by_products(Mt, coeffs, generators):
    """flatten(M_t · sum(c_i G_i)) as the sum of the flattened products
    c_i·flatten(M_t·G_i)."""
    n = Mt.n
    prods = [flatten(multiply(Mt, g)) for g in generators]
    return [sum(c * f[i] for c, f in zip(coeffs, prods)) for i in range(n * n)]
