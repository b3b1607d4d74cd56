"""The matrix algebra of word mappings and its exact linear structure.

Run with:  python demos/matrix_space.py
"""

from syncword import (cerny_automaton, coefficient_sum, decompose, flatten,
                      identity, letter_closure_check, matrix_of_word,
                      multiply, nonzero_columns, rank, span_dimension,
                      standard_basis, word_matrix_span, word_to_str)

dfa = cerny_automaton(4)
n = dfa.n

# Every word u yields a 0/1 matrix with one unit per row; composition of
# matrices tracks concatenation of words.
Ma = matrix_of_word(dfa, (0,))
Mb = matrix_of_word(dfa, (1,))
Mab = matrix_of_word(dfa, (0, 1))
print("M_a . M_b == M_ab:", multiply(Ma, Mb) == Mab)
print("rank of M_b:", rank(Mb), "= number of nonzero columns",
      bin(nonzero_columns(Mb)).count("1"))

# Row-functional matrices supported on k columns span a space of dimension
# n(k-1)+1; a concrete basis: single off-column units plus the all-in-one
# column matrix.
for k in (1, 2, 3, 4):
    basis = standard_basis(n, k)
    print(f"k={k}: basis size {len(basis)}, dimension "
          f"{span_dimension(basis)} = n(k-1)+1 = {n * (k - 1) + 1}")

# Any word matrix decomposes over a spanning family of word matrices, and
# the coefficients always sum to 1: each such matrix has total cell sum n.
ech, witnesses = word_matrix_span(dfa)
print("dimension of the span of all word matrices:", ech.dimension,
      "(at most n(n-1)+1 =", n * (n - 1) + 1, ")")
flats = [flatten(g) for _, g in witnesses]
for word in [(0, 1), (1, 1, 0), (0, 0, 1, 0, 1)]:
    d = decompose(flatten(matrix_of_word(dfa, word)), flats)
    print(f"decomposition of M_{word_to_str(word)}: "
          f"{len(d)} terms, coefficient sum {coefficient_sum(d)}")

# The witness family is closed under prefixing letters, which is exactly
# why it spans every word matrix.
ok, _ = letter_closure_check(dfa, ech, [g for _, g in witnesses])
print("letter closure of the witness span:", ok)
print("identity in span:", ech.contains(flatten(identity(n))))
