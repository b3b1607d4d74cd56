"""Exact-arithmetic toolkit for synchronizing words of complete DFAs.

Shortest reset words by subset BFS, the 0/1 matrix algebra of word
mappings, exact rational span computations, integer-valued series over
suffixes, q-column equivalences, and exhaustive small-automaton scans.

The package re-exports what the demos, the benchmark and the README's
library tour use, with the types and errors those names return or raise;
everything else is imported from its module.
"""

from .automaton import (Dfa, KARI_WORD, ROMAN_WORD, builtin_automaton,
                        cerny_automaton, cerny_word, image,
                        is_strongly_connected, kari_automaton,
                        roman_automaton, serialize_dfa, word_to_str)
from .errors import CapacityError, DfaError
from .word_matrix import (WordMatrix, identity, matrix_of_word, multiply,
                          nonzero_columns, rank, render)
from .linspace import (RowEchelon, coefficient_sum, decompose, flatten,
                       letter_closure_check, span_dimension, standard_basis,
                       word_matrix_span)
from .series import suffix_profile, suffix_space_dimensions, threshold_count
from .sync import ResetResult, is_irreducible, shortest_reset_word
from .enumeration import ScanConfig, ScanReport, extremal_scan

__version__ = "0.1.0"
