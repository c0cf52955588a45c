"""
Maps of the Fano plane that respect collinearity
=================================================

Two exhaustive sweeps over P(F_2^3), seven points and seven lines.

First: among all 7! = 5040 permutations, the line-preserving ones are
exactly the 168 induced by invertible matrices -- the fundamental theorem
of projective geometry in dimension three.  The sweep visits only the maps
that keep lines collinear, recognizes each permutation among them as a
matrix, and counts them against |PGL(3, F_2)| = 168.

Second: among ALL 7^7 = 823543 total maps (injective or not), the ones
satisfying the collinearity condition are exactly the 7 constants plus
those same 168 collineations.  Nothing else sneaks through.
"""

import os

from transverse import (
    count_collineations,
    fundamental_sweep,
    pgl_order,
    verify_collineation_lemma,
)

jobs = os.cpu_count() or 1

fund = fundamental_sweep(2, 3, jobs=jobs)
print("permutations:    ", fund.counts["permutations"])
print("line-preserving: ", fund.counts["line_preserving"])
print("projective:      ", fund.counts["projective"])
print("disagreements:   ", fund.counts["violations"])
print("|PGL(3, F_2)| =  ", pgl_order(2, 3))

print()

lemma = verify_collineation_lemma(2, 3, 3, jobs=jobs)
print("total maps:      ", lemma.counts["maps"])
print("pass the line condition:", lemma.counts["line_condition"])
print("  constant:      ", lemma.counts["constant"])
print("  injective:     ", lemma.counts["injective"])
print("violations:      ", lemma.counts["violations"])

# The formula needs no sweep: it reports 7! and |PGL(3, F_2)| directly.
total, projective = count_collineations(2, 3)
print("\nformula check: ", total, "permutations,", projective, "projective")
