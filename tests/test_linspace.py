from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from syncword import (Dfa, DfaError, RowEchelon, WordMatrix, cerny_automaton,
                      coefficient_sum, decompose, flatten, identity,
                      kari_automaton, letter_closure_check, matrix_of_word,
                      span_dimension, standard_basis, word_matrix_span)

from oracles import (closure_every_product, combine, int_flat, int_rank,
                     saturate_every_product)


@contextmanager
def reduced_vectors():
    """Records, as tuples, the vectors that RowEchelon.residual reduces."""
    seen = []
    real = RowEchelon.residual

    def recording(self, vec):
        seen.append(tuple(vec))
        return real(self, vec)

    with patch.object(RowEchelon, "residual", recording):
        yield seen


def family_on_columns(n, k):
    """All k^n row-functional matrices supported on the first k columns."""
    return [flatten(WordMatrix(f)) for f in product(range(k), repeat=n)]


def test_flatten():
    flat = flatten(WordMatrix((1, 0)))
    assert flat == (0, 1, 1, 0)
    assert all(type(x) is int for x in flat)


def test_solve_divides_integer_vectors_into_exact_fractions():
    d = decompose((1, 1), [(3, 1), (0, 7)])
    assert list(d.items()) == [(0, Fraction(1, 3)), (1, Fraction(2, 21))]
    assert all(type(lam) is Fraction for lam in d.values())


def test_row_echelon_stores_no_float():
    ech = RowEchelon(3)
    for vec in ([2, 1, 0], [0.5, 0, 3], [1, Fraction(1, 3), 1]):
        ech.add(vec)
    assert all(type(x) is Fraction
               for _, row in ech.pivot_rows for _, x in row)


def test_float_inputs_are_read_exactly():
    d = decompose((0.5, 0.25), [(1, 0), (0, 1)])
    assert list(d.items()) == [(0, Fraction(1, 2)), (1, Fraction(1, 4))]
    assert all(type(lam) is Fraction for lam in d.values())
    third = {0: Fraction(1, 3)}
    assert combine([(0.5, 0.25)], third) == (Fraction(1, 6), Fraction(1, 12))


def test_row_echelon_membership():
    ech = RowEchelon(3)
    assert ech.add([1, 0, 0])
    assert ech.add([1, 1, 0])
    assert not ech.add([3, 2, 0])
    assert ech.dimension == 2
    assert ech.contains([0, 5, 0])
    assert not ech.contains([0, 0, 1])
    with pytest.raises(DfaError):
        ech.add([1, 0])


small_vector_lists = st.integers(2, 5).flatmap(
    lambda w: st.lists(st.lists(st.integers(-3, 3), min_size=w, max_size=w),
                       min_size=1, max_size=6))


@given(small_vector_lists, st.randoms(use_true_random=False))
def test_span_dimension_invariant_under_permutation_and_scaling(vecs, rng):
    base = span_dimension(vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert span_dimension(shuffled) == base
    scales = [Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2, 5]))
              for _ in vecs]
    scaled = [[s * x for x in v] for s, v in zip(scales, vecs)]
    assert span_dimension(scaled) == base


@given(small_vector_lists)
def test_span_dimension_matches_integer_oracle(vecs):
    assert span_dimension(vecs) == int_rank(vecs)


@given(small_vector_lists, st.data(), st.randoms(use_true_random=False))
def test_span_dimension_of_repeated_vectors_matches_integer_oracle(vecs, data, rng):
    repeats = data.draw(st.lists(st.sampled_from(vecs), max_size=8))
    listed = vecs + repeats
    rng.shuffle(listed)
    with reduced_vectors() as reduced:
        assert span_dimension(listed) == int_rank(vecs)
    assert sorted(reduced) == sorted(set(map(tuple, vecs)))


def test_span_dimension_families():
    assert span_dimension([]) == 0
    assert span_dimension(family_on_columns(3, 2)) == 4
    # matrices avoiding one column of a 4-state space: exactly (4-1)^2
    dim = span_dimension(family_on_columns(4, 3))
    assert dim == 9
    assert dim <= (4 - 1) ** 2


def test_standard_basis_counts_and_dimensions():
    b = standard_basis(3, 2)
    assert len(b) == 4 and span_dimension(b) == 4
    b = standard_basis(2, 1)
    assert len(b) == 1 and span_dimension(b) == 1
    b = standard_basis(6, 5)
    assert len(b) == 25 and span_dimension(b) == 25


def test_standard_basis_removal_drops_dimension():
    b = standard_basis(4, 3)
    full = span_dimension(b)
    assert full == len(b)
    for i in range(len(b)):
        assert span_dimension(b[:i] + b[i + 1:]) == full - 1


def test_standard_basis_rejects_more_columns_than_states():
    with pytest.raises(DfaError):
        standard_basis(3, 4)


def test_decompose_trivial():
    b = standard_basis(3, 2)
    d = decompose(b[0], b)
    assert d is not None
    assert list(d.items()) == [(0, Fraction(1))]


def test_decompose_matches_unit_and_residual_pattern():
    # a target supported on the first k columns decomposes with coefficient 1
    # on each matched single-unit matrix and -(m-1) on the all-fixed one
    n, k = 4, 3
    fixed = k - 1
    basis = standard_basis(n, k)
    target_map = (0, 1, 2, 0)  # rows into columns, support inside first k
    target = flatten(WordMatrix(target_map))
    d = decompose(target, basis)
    assert d is not None
    matched = [(i, j) for i, j in enumerate(target_map) if j != fixed]
    m = len(matched)
    expected = {j * n + i: Fraction(1) for i, j in matched}
    if m != 1:
        expected[len(basis) - 1] = Fraction(-(m - 1))
    assert d == expected
    assert combine(basis, d) == target


def test_decompose_outside_span():
    b = standard_basis(3, 2)
    stray = [Fraction(0)] * 9
    stray[1] = Fraction(2)  # lone doubled unit breaks the equal-row-sum law
    assert decompose(tuple(stray), b) is None
    assert decompose([Fraction(0)] * 9, []) == {}
    assert decompose(tuple(stray), []) is None


def test_coefficient_sum_values():
    d = cerny_automaton(4)
    _, witnesses = word_matrix_span(d)
    flats = [flatten(g) for _, g in witnesses]
    target = flatten(matrix_of_word(d, (1, 0, 0, 1)))
    dec = decompose(target, flats)
    assert coefficient_sum(dec) == 1
    assert coefficient_sum({}) == 0
    doubled = decompose([2 * x for x in target], flats)
    assert coefficient_sum(doubled) == 2


def test_span_solver_reuse_and_dimension():
    b = standard_basis(4, 2)
    for vec in b:
        d = decompose(vec, b)
        assert d is not None and combine(b, d) == vec
    assert decompose((Fraction(1),) * 16, b) is None


@st.composite
def dependent_lists(draw):
    """Integer vectors, some of them combinations of earlier ones, and a
    target that is either such a combination or arbitrary."""
    width = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    vecs = [draw(st.lists(entry, min_size=width, max_size=width))]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(vecs), max_size=len(vecs)))
            vecs.append([sum(c * v[j] for c, v in zip(coeffs, vecs))
                         for j in range(width)])
        else:
            vecs.append(draw(st.lists(entry, min_size=width, max_size=width)))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(vecs), max_size=len(vecs)))
        target = [sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(width)]
    else:
        target = draw(st.lists(entry, min_size=width, max_size=width))
    return vecs, target


@given(dependent_lists())
def test_span_solver_on_dependent_lists_matches_integer_rank(case):
    vecs, target = case
    d = decompose(target, vecs)
    outside = int_rank(vecs + [target]) > int_rank(vecs)
    assert (d is None) == outside
    if d is not None:
        assert combine(vecs, d) == tuple(target)


@st.composite
def independent_combinations(draw):
    """An independent integer list and integer coefficients over it."""
    width = draw(st.integers(1, 5))
    count = draw(st.integers(1, width))
    vecs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width,
                                  max_size=width),
                         min_size=count, max_size=count))
    assume(int_rank(vecs) == count)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
    return vecs, coeffs


@given(independent_combinations())
def test_span_solver_returns_the_coefficients_of_an_independent_list(case):
    vecs, coeffs = case
    target = [sum(c * v[j] for c, v in zip(coeffs, vecs))
              for j in range(len(vecs[0]))]
    d = decompose(target, vecs)
    assert list(d.items()) == [(i, c) for i, c in enumerate(coeffs) if c]


@given(small_vector_lists, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_residual_is_zero_at_every_pivot(vecs, probe):
    ech = RowEchelon(len(vecs[0]))
    for vec in vecs:
        ech.add(vec)
    probe = probe[:ech.width]
    res = ech.residual(probe)
    assert all(res[col] == 0 for col, _ in ech.pivot_rows)
    # and it differs from the probe by a member of the span, checked by the
    # integer oracle rather than by the residual under test
    diff = [Fraction(p - r) for p, r in zip(probe, res)]
    scale = lcm(*(x.denominator for x in diff))
    assert int_rank(vecs + [[int(x * scale) for x in diff]]) == int_rank(vecs)


def test_residual_values_on_every_multiplier_branch():
    ech = RowEchelon(3)
    ech.add([1, 1, 0])
    ech.add([0, 2, 1])
    # multipliers 1 then -1
    res = ech.residual([1, 0, 1])
    assert res == [0, 0, Fraction(3, 2)]
    assert all(type(x) is Fraction for x in res)
    # multipliers 2 then -2
    assert ech.residual([2, 0, 1]) == [0, 0, 2]
    for same in ([True, 0, 1], [Fraction(1), 0, 1]):
        got = ech.residual(same)
        assert got == res
        assert all(type(x) is Fraction for x in got)


# entries in -2..2, so stored rows and probes meet multipliers of +-1 often,
# given as int, Fraction or bool
exact_entry = st.one_of(st.integers(-2, 2), st.integers(-2, 2).map(Fraction),
                        st.booleans())


@st.composite
def echelon_and_probe(draw):
    width = draw(st.integers(1, 5))
    row = st.lists(exact_entry, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=6)), draw(row)


@given(echelon_and_probe())
def test_residual_matches_a_reduction_that_always_multiplies(case):
    vecs, probe = case
    ech = RowEchelon(len(probe))
    for vec in vecs:
        ech.add(vec)
    expected = list(probe)
    for col, row in ech.pivot_rows:
        f = expected[col]
        if f:
            for j, x in row:
                expected[j] -= f * x
    res = ech.residual(probe)
    assert res == expected
    assert [type(x) for x in res] == [type(x) for x in expected]


mixed_entry = st.one_of(
    st.integers(-2, 2), st.integers(-4, 4).map(lambda x: Fraction(x, 2)),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False))


@given(echelon_and_probe(), st.data())
def test_residual_of_mixed_entries_matches_its_exact_conversion(case, data):
    vecs, _ = case
    ech = RowEchelon(len(vecs[0]))
    for vec in vecs:
        ech.add(vec)
    probe = data.draw(st.lists(mixed_entry, min_size=ech.width, max_size=ech.width))
    res = ech.residual(probe)
    assert res == ech.residual([Fraction(x) for x in probe])
    assert not any(type(x) is float for x in res)


def test_residual_takes_exact_entries_as_they_are():
    third = Fraction(1, 3)
    res = RowEchelon(3).residual([third, 7, 0.25])
    assert res[0] is third
    assert type(res[1]) is int
    assert res[2] == Fraction(1, 4) and type(res[2]) is Fraction


@st.composite
def small_dfas(draw):
    """A random table with n <= 5 states and k <= 3 letters."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    delta = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                          min_size=k, max_size=k))
    return Dfa(n, k, tuple(map(tuple, delta)))


@settings(deadline=None)
@given(small_dfas())
def test_word_matrix_span_matches_the_saturation_of_every_product(d):
    with reduced_vectors() as reduced:
        ech, witnesses = word_matrix_span(d)
    with reduced_vectors() as oracle_reduced:
        oracle_ech, oracle_witnesses = saturate_every_product(d)
    assert witnesses == oracle_witnesses
    assert ech.pivot_rows == oracle_ech.pivot_rows
    # each matrix the plain loop reduces, and only those, is reduced once
    assert sorted(reduced) == sorted(set(oracle_reduced))


@settings(deadline=None)
@given(small_dfas())
def test_letter_closure_matches_the_check_of_every_product(d):
    # the last witness is a letter times a kept matrix and lies outside the
    # kept span, so the check fails unless the identity is the only witness
    _, witnesses = word_matrix_span(d)
    kept = [g for _, g in witnesses[:-1]]
    ech = RowEchelon(d.n * d.n)
    for g in kept:
        ech.add(flatten(g))
    with reduced_vectors() as reduced:
        ok, witness = letter_closure_check(d, ech, kept)
    assert witness == closure_every_product(d, ech, kept)
    assert ok == (witness is None)
    assert len(reduced) == len(set(reduced))


def test_letter_closure_on_saturated_span():
    d = cerny_automaton(3)
    ech, witnesses = word_matrix_span(d)
    ok, witness = letter_closure_check(d, ech, [g for _, g in witnesses])
    assert ok and witness is None


def test_letter_closure_failure_witness():
    d = cerny_automaton(3)
    ech = RowEchelon(9)
    ech.add(flatten(identity(3)))
    ok, witness = letter_closure_check(d, ech, [identity(3)])
    assert not ok
    assert witness == (0, 0)  # M_a . E falls outside span{E}
    ok2, _ = letter_closure_check(d, RowEchelon(9), [])
    assert ok2
    with pytest.raises(DfaError):
        letter_closure_check(d, RowEchelon(4), [])


def test_letter_closure_check_reuses_the_callers_echelon(monkeypatch):
    d = kari_automaton()
    ech, witnesses = word_matrix_span(d)
    adds = []
    real = RowEchelon.add
    monkeypatch.setattr(RowEchelon, "add",
                        lambda self, vec: adds.append(vec) or real(self, vec))
    ok, _ = letter_closure_check(d, ech, [g for _, g in witnesses])
    assert ok
    assert adds == []


def test_word_matrix_span_witnesses_are_word_matrices():
    d = kari_automaton()
    ech, witnesses = word_matrix_span(d)
    assert ech.dimension == len(witnesses) <= d.n * (d.n - 1) + 1
    for w, g in witnesses:
        assert matrix_of_word(d, w) == g


def test_word_matrix_span_contains_long_products():
    d = cerny_automaton(3)
    ech, witnesses = word_matrix_span(d)
    long_word = (0, 1, 0, 0, 1, 1, 0, 1, 0, 0)
    assert ech.contains(flatten(matrix_of_word(d, long_word)))


def test_oracle_agreement_on_word_matrices():
    d = cerny_automaton(4)
    words = [w for L in range(4) for w in product(range(2), repeat=L)]
    flats = [flatten(matrix_of_word(d, w)) for w in words]
    ints = [int_flat(matrix_of_word(d, w).rows, 4) for w in words]
    assert span_dimension(flats) == int_rank(ints)
