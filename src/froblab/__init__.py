"""froblab: Frobenius structure of local cohomology at desk scale.

Exact diagnostics over F_p for Stanley-Reisner rings (graded
decomposition of local cohomology, depth, Cohen-Macaulayness, counts of
Frobenius-stable submodules) and for graded hypersurfaces (F-purity,
F-injectivity, bounded tight-closure probes), with independent
brute-force oracles backing every nontrivial computation.  The
face-ring submodule models live in froblab.fmodule and are not imported
here, so analyze-hypersurface never loads them.  M is anti-nilpotent
when F acts injectively on M/N for every F-stable submodule N; that
condition on a pair N' ⊂ N only gets harder as N grows, so fmodule
checks each enumerated submodule once, against the whole module.
"""

__version__ = "0.1.0"

from .gfp_linalg import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    kernel_basis,
    num_subspaces,
    subspace_intersection,
    subspace_sum,
)
from .hypersurface import (
    GradedHypersurface,
    LocalCohomClass,
    f_injective_top,
    fedder_fpure_principal,
    make_hypersurface,
    rf_simplicity_probe,
    tight_closure_zero_bounded,
)
from .local_cohomology import (
    LocalCohomologyTable,
    analysis_report,
    cech_graded_oracle,
    decomposition,
    depth_and_cm,
    fh_count,
    graded_dim,
    oracle_box_check,
)
from .polyfp import (
    MonomialIdeal,
    PolynomialFp,
    frobenius_power,
    parse_polynomial,
)
from .simplicial import (
    CohomologyProfile,
    SimplicialComplex,
    from_facets,
    link,
    parse_facets_text,
    reduced_cohomology,
)
from .stanley_reisner import (
    FaceRing,
    fedder_fpure_monomial,
    minimal_primes,
    nonface_ideal,
    splitting_containment_check,
)
