"""Exhaustive scan of all small transition tables for extremal reset lengths.

Run with:  python demos/exhaustive_scan.py
"""

from syncword import ScanConfig, extremal_scan, shortest_reset_word
from syncword.enumeration import flat_to_dfa

# All 3^6 = 729 binary 3-state tables, no filters.  The longest shortest
# reset word has length (3-1)^2 = 4, and nothing approaches the cubic
# upper bound (n^3 - n)/6.
report = extremal_scan(ScanConfig(3, 2))
print(f"tables: {report.total}, synchronizing: {report.synchronizing}")
print("histogram of shortest reset lengths:")
for length, count in sorted(report.histogram.items()):
    print(f"  {length}: {count}")
print(f"max length {report.max_length}, attained by {report.max_length_count} "
      f"tables, {len(report.witnesses)} up to relabeling")
print("cubic-bound violations:", len(report.upper_bound_violations))
print("tables beating (n-1)^2:", len(report.conjecture_counterexamples))

# Every witness reproduces the extremal length when re-checked standalone.
for flat in report.witnesses:
    dfa = flat_to_dfa(flat, 3, 2)
    assert shortest_reset_word(dfa).length == report.max_length
print("witnesses re-verified")
print()

# Relabeling classes: the canonical filter keeps the least table per class.
full = extremal_scan(ScanConfig(2, 2)).total
classes = extremal_scan(ScanConfig(2, 2, canonicalize=True)).total
print(f"2-state binary tables: {full} raw, {classes} up to relabeling")

# Filters compose: strongly connected representatives only.
sc = extremal_scan(
    ScanConfig(2, 2, require_strongly_connected=True, canonicalize=True)).total
print(f"strongly connected classes: {sc}")
