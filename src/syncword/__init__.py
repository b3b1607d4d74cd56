"""Exact-arithmetic toolkit for synchronizing words of complete DFAs.

Shortest reset words by subset BFS, the 0/1 matrix algebra of word
mappings, exact rational span computations, integer-valued series over
suffixes, q-column equivalences, and exhaustive small-automaton scans.
"""

from .automaton import (Dfa, Word, KARI_WORD, ROMAN_WORD, apply,
                        builtin_automaton, cerny_automaton, cerny_word,
                        dfa_from_json, dfa_to_json, image,
                        is_strongly_connected, kari_automaton, mask_of,
                        parse_dfa, roman_automaton, serialize_dfa, states_of,
                        word_from_str, word_to_str)
from .errors import CapacityError, CheckFailure, DfaError, DfaParseError
from .word_matrix import (WordMatrix, dense, identity, is_reset_matrix,
                          matrix_of_word, multiply, nonzero_columns, rank,
                          render)
from .linspace import (Decomposition, RowEchelon, coefficient_sum, decompose,
                       flatten, letter_closure_check, span_dimension,
                       standard_basis, word_matrix_span)
from .series import (SeriesContext, series_value, suffix_profile,
                     suffix_space_dimensions, threshold_count)
from .sync import (ResetResult, is_irreducible, is_synchronizing,
                   left_stability_check, near_sync_suffixes, q_column,
                   q_equivalent, q_preceq, reduce_word, reset_collapse_check,
                   shortest_reset_word, suffix_distinctness_check)
from .enumeration import (CheckResult, ScanConfig, ScanReport, canonical_flat,
                          claim_checks, enumerate_dfas, extremal_scan,
                          independent_suffix_length,
                          suffix_closed_dimension_check, verify_automaton,
                          verify_example_suite)

__version__ = "0.1.0"
