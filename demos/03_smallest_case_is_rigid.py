"""
Over F_2^2 x F_2^2 every transverse set is bilinear
====================================================

The smallest ambient space is small enough to check all 2^16 subsets one
by one.  Each subset is tested for transversality; each transverse one is
run through the bilinearity decision AND matched against an independently
enumerated family (all zero sets of all form spaces over all subspace
pairs), so the two notions are cross-validated on every single case.
"""

import os

from transverse import exhaustive_subset_sweep

report = exhaustive_subset_sweep(2, 2, jobs=os.cpu_count() or 1)

print("swept subsets:        ", report.counts["subsets"])
print("transverse (nonempty):", report.counts["transverse_nonempty"])
print("transverse (empty):   ", report.counts["transverse_empty"])
print("of those, bilinear:   ", report.counts["transverse_bilinear"])
print("non-bilinear:         ", report.counts["transverse_non_bilinear"])
print("family disagreements: ", report.counts["oracle_mismatch"])
print("verdict:", "no counterexample this small" if report.ok else "BUG")

# The same sweep rejects (3, 2) unless the cap is lifted explicitly: its
# 2^81 subsets are far past the enumeration cap of 2^26.
try:
    exhaustive_subset_sweep(3, 2)
except Exception as exc:
    print("(3, 2) exhaustive sweep refused:", type(exc).__name__)
