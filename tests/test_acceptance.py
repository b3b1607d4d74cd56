"""Acceptance criteria, one test per criterion, each printing a verdict line.

Expected values are either fixed constants of the built-in automata or are
recomputed here through independent brute-force oracles; tolerances are
zero throughout (exact integers everywhere).
"""

import functools
import random
import time
from itertools import product

from syncword import (Dfa, KARI_WORD, ROMAN_WORD, ScanConfig, cerny_automaton,
                      cerny_word, extremal_scan, image, is_irreducible,
                      kari_automaton, roman_automaton, shortest_reset_word,
                      span_dimension, standard_basis, suffix_profile,
                      suffix_space_dimensions, threshold_count,
                      word_matrix_span)
from syncword.enumeration import canonical_flat
from syncword.linspace import coefficient_sum, decompose, flatten
from syncword.sync import (left_stability_check, near_sync_suffixes,
                           reset_collapse_check, suffix_distinctness_check)
from syncword.word_matrix import matrix_of_word

from oracles import int_rank, relation_columns


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")
        return wrapper
    return deco


@criterion(1, "Cerny family minimal lengths are (n-1)^2 for n=3..6, under 1s each")
def test_criterion_1_cerny_family():
    for n in range(3, 7):
        d = cerny_automaton(n)
        t0 = time.perf_counter()
        result = shortest_reset_word(d)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"n={n} BFS took {elapsed:.3f}s"
        assert result.length == (n - 1) ** 2
        w = cerny_word(n)
        img = image(d, d.full_set, w)
        assert img & (img - 1) == 0, f"n={n}: reference word does not reset"
        assert len(w) == result.length


@criterion(2, "Kari: minimal length 25, threshold counts 25/17/11/6, under 1s")
def test_criterion_2_kari():
    d = kari_automaton()
    t0 = time.perf_counter()
    result = shortest_reset_word(d)
    profile = suffix_profile(d, KARI_WORD, result.target)
    counts = {b: threshold_count(profile, b) for b in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    assert result.length == 25
    assert image(d, d.full_set, KARI_WORD) == 1 << result.target
    assert counts == {1: 25, 2: 17, 3: 11, 4: 6}


@criterion(3, "Roman: minimal length 16, threshold counts 16/10/4, under 1s")
def test_criterion_3_roman():
    d = roman_automaton()
    t0 = time.perf_counter()
    result = shortest_reset_word(d)
    profile = suffix_profile(d, ROMAN_WORD, result.target)
    counts = {b: threshold_count(profile, b) for b in (1, 2, 3)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    assert result.length == 16
    assert image(d, d.full_set, ROMAN_WORD) == 1 << result.target
    assert counts == {1: 16, 2: 10, 3: 4}


@criterion(4, "matrix-space dimension n(k-1)+1 for 2<=n<=6, 1<=k<=n, "
              "matching the full k^n enumeration")
def test_criterion_4_dimensions():
    for n in range(2, 7):
        for k in range(1, n + 1):
            expected = n * (k - 1) + 1
            assert span_dimension(standard_basis(n, k)) == expected, (n, k)
            if k ** n > 10 ** 5:
                continue
            # independent oracle: integer elimination over every matrix
            vectors = []
            for f in product(range(k), repeat=n):
                vec = [0] * (n * n)
                for i, j in enumerate(f):
                    vec[i * n + j] = 1
                vectors.append(vec)
            assert int_rank(vectors) == expected, (n, k)


@criterion(5, "1000 randomized word-matrix decompositions all have "
              "coefficient sum exactly 1")
def test_criterion_5_coefficient_sums():
    rng = random.Random(1964)
    done = 0
    while done < 1000:
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        delta = tuple(tuple(rng.randrange(n) for _ in range(n))
                      for _ in range(k))
        d = Dfa(n, k, delta)
        _, witnesses = word_matrix_span(d)
        flats = [flatten(g) for _, g in witnesses]
        for _ in range(20):
            if done >= 1000:
                break
            w = tuple(rng.randrange(k) for _ in range(rng.randint(1, 2 * n)))
            dec = decompose(flatten(matrix_of_word(d, w)), flats)
            assert dec is not None
            assert coefficient_sum(dec) == 1, (delta, w)
            done += 1
    assert done == 1000


@criterion(6, "left stability and reset collapse: exhaustive on Cerny C4 "
              "pairs up to length 5, 500 random triples on Kari")
def test_criterion_6_stability_and_collapse():
    d = cerny_automaton(4)
    words = [w for L in range(6) for w in product(range(2), repeat=L)]
    assert len(words) == 63
    multipliers = [(0,), (1,)]
    collapse_ts = [(), (0,), (1,), cerny_word(4)]
    M = {w: matrix_of_word(d, w) for w in words + collapse_ts}
    for u in words:
        for v in words:
            for a in multipliers:
                cols = relation_columns(M[a], M[u], M[v])
                assert left_stability_check(*cols) is None, (a, u, v)
            for t in collapse_ts:
                cols = relation_columns(M[t], M[u], M[v])
                assert reset_collapse_check(*cols) is None, (t, u, v)
    kari = kari_automaton()
    rng = random.Random(2001)
    for _ in range(500):
        a, u, v = (tuple(rng.randrange(2) for _ in range(rng.randint(0, 8)))
                   for _ in range(3))
        cols = relation_columns(*(matrix_of_word(kari, w) for w in (a, u, v)))
        assert left_stability_check(*cols) is None, (a, u, v)
        assert reset_collapse_check(*cols) is None, (a, u, v)


@criterion(7, "minimal words pass irreducibility, suffix distinctness and "
              "the near-synchronizing postconditions")
def test_criterion_7_minimal_word_structure():
    families = [cerny_automaton(n) for n in range(3, 7)]
    families += [kari_automaton(), roman_automaton()]
    for d in families:
        result = shortest_reset_word(d)
        s, q = result.word, result.target
        assert is_irreducible(d, s, q)
        assert suffix_distinctness_check(d, s, q)
        near, failure = near_sync_suffixes(d, result)  # the completion clause
        assert failure is None
        assert len(near) <= d.n


@criterion(8, "suffix-space dimensions never exceed (i-1)n+1 on the examples")
def test_criterion_8_suffix_space_bounds():
    cases = [(cerny_automaton(4), cerny_word(4)),
             (kari_automaton(), KARI_WORD),
             (roman_automaton(), ROMAN_WORD)]
    for d, s in cases:
        result = shortest_reset_word(d)
        dims = suffix_space_dimensions(d, s, result.target)
        assert len(dims) == d.n - 1
        for i, dim in enumerate(dims, start=1):
            assert dim <= (i - 1) * d.n + 1, (d.n, i, dim)


@criterion(9, "exhaustive scans n=3 and n=4 (k=2): max length (n-1)^2, no "
              "cubic-bound violations, byte-identical for 1/2/8 workers, <60s")
def test_criterion_9_scans():
    for n in (3, 4):
        t0 = time.perf_counter()
        reports = [extremal_scan(ScanConfig(n, 2, worker_count=w)).to_json()
                   for w in (1, 2, 8)]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"n={n} scans took {elapsed:.1f}s"
        assert reports[0] == reports[1] == reports[2]
        report = extremal_scan(ScanConfig(n, 2))
        assert report.total == n ** (2 * n)
        assert report.max_length == (n - 1) ** 2
        assert report.upper_bound_violations == []
        assert report.conjecture_counterexamples == []


@criterion(10, "n=5 k=2 up to relabeling: 83,061 classes, 68,227 "
               "synchronizing, max length 16 on 2 classes, cerny:5 among them")
def test_criterion_10_declared_substitution():
    # the canonical scan, one table per relabeling class on 2 workers,
    # stands in for the raw scan of all 5^10 tables, about twelve times
    # slower (22 s against 1.8 s on 2 workers of a 2-CPU x86-64 host)
    report = extremal_scan(ScanConfig(5, 2, worker_count=2, canonicalize=True))
    assert (report.total, report.synchronizing) == (83061, 68227)
    assert (report.max_length, report.max_length_count) == (16, 2)
    assert [list(w) for w in report.witnesses] == [[0, 0, 2, 3, 4, 2, 0, 3, 4, 1],
                                                   [1, 2, 3, 4, 0, 0, 1, 2, 3, 0]]
    cerny = cerny_automaton(5)
    flat = [t for row in cerny.delta for t in row]
    assert report.witnesses[1] == canonical_flat(flat, 5, 2)
