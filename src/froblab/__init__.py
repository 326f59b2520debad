"""froblab: Frobenius structure of local cohomology at desk scale.

Exact diagnostics over F_p for Stanley-Reisner rings (graded
decomposition of local cohomology, depth, Cohen-Macaulayness, counts of
Frobenius-stable submodules) and for graded hypersurfaces (F-purity,
F-injectivity, bounded tight-closure probes), with independent
brute-force oracles backing every nontrivial computation.  The
face-ring submodule models live in froblab.fmodule, the one module that
needs numpy, and are not imported here.
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
    make_class,
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
    standard_monomial_splitting,
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
