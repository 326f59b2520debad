"""froblab: Frobenius structure of local cohomology at desk scale.

Exact diagnostics over F_p for Stanley-Reisner rings (graded
decomposition of local cohomology, depth, Cohen-Macaulayness, counts of
Frobenius-stable submodules) and for graded hypersurfaces (F-purity,
F-injectivity, bounded tight-closure probes), with independent
brute-force oracles backing every nontrivial computation.  The package
namespace exports only __version__; import everything else from its
module (froblab.cli, froblab.local_cohomology, ...).  Each command
loads only its own modules: analyze-hypersurface never loads the
face-ring ones, among them the submodule counts of froblab.fmodule,
and analyze-complex never loads froblab.hypersurface.
"""

__version__ = "0.1.0"
