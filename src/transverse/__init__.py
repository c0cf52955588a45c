"""Exact computational toolkit for transverse and bilinear subsets of
F_p^n x F_p^n.

The package is organized bottom-up:

- fpcore: vectors over F_p as base-p integers, subspaces in reduced row
  echelon form, projective points, matrices, enumeration caps.
- pairsets: dense bitset sets of pairs, directional sumsets, the
  vertical/horizontal Bogolyubov operators, transversality checks.
- bilinear: annihilators, biorthogonal complements, the bilinear-closure
  test with ranks (r1, r2, r3) and explicit witnesses.
- constructions: the named example sets (f3 diagonal set, projective-
  bijection span sets, the line-bijection family) and seeded generators.
- projgeom: projective lines, collineation recognition, order formulas.
- explorer: exhaustive and randomized sweeps with a deterministic
  parallel engine and canonical reports.
- counting: Gaussian binomials and the counting bounds that force
  non-bilinear span sets to exist.
- cli: file formats, certificates with SHA-256 digests, replay.
"""

from .bilinear import (
    BilinearVerdict,
    ClosureResult,
    FormSpace,
    ann,
    closure,
    is_bilinear,
    orth,
)
from .constructions import (
    ProjBijection,
    build_P_sigma,
    build_P_xi,
    f3_example,
    random_sigma,
    sigma_fig2,
)
from .counting import (
    bijection_vs_projective,
    gaussian_binomial,
    inequality_check,
    n0_estimate,
    proj_count,
    subspace_counts,
)
from .explorer import (
    BogolyubovReport,
    SweepReport,
    bogolyubov_explore,
    classify_hyperplane_fibers,
    exhaustive_subset_sweep,
    fundamental_sweep,
    search_sigma,
    subspace_in_sumset,
    verify_collineation_lemma,
    xi_line_sweep,
)
from .fpcore import (
    CapExceeded,
    MatP,
    ProjPoint,
    Subspace,
    all_subspaces,
    is_prime,
)
from .pairsets import (
    NotTransverseError,
    PairSet,
    SingleSet,
    dir_sum,
    fiber,
    is_transverse,
    phi,
    projections,
    sumset_word,
    transversality_violation,
)
from .projgeom import (
    ProjLine,
    count_collineations,
    is_line_preserving,
    lines_enumerate,
    pgl_order,
    recognize_projective,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearVerdict",
    "BogolyubovReport",
    "CapExceeded",
    "ClosureResult",
    "FormSpace",
    "MatP",
    "NotTransverseError",
    "PairSet",
    "ProjBijection",
    "ProjLine",
    "ProjPoint",
    "SingleSet",
    "Subspace",
    "SweepReport",
    "all_subspaces",
    "ann",
    "bijection_vs_projective",
    "bogolyubov_explore",
    "build_P_sigma",
    "build_P_xi",
    "classify_hyperplane_fibers",
    "closure",
    "count_collineations",
    "dir_sum",
    "exhaustive_subset_sweep",
    "f3_example",
    "fiber",
    "fundamental_sweep",
    "gaussian_binomial",
    "inequality_check",
    "is_bilinear",
    "is_line_preserving",
    "is_prime",
    "is_transverse",
    "lines_enumerate",
    "n0_estimate",
    "orth",
    "pgl_order",
    "phi",
    "proj_count",
    "projections",
    "random_sigma",
    "recognize_projective",
    "search_sigma",
    "sigma_fig2",
    "subspace_counts",
    "subspace_in_sumset",
    "sumset_word",
    "transversality_violation",
    "verify_collineation_lemma",
    "xi_line_sweep",
]
