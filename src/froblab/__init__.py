"""froblab: Frobenius structure of local cohomology at desk scale.

Exact diagnostics over F_p for Stanley-Reisner rings (graded
decomposition of local cohomology, depth, Cohen-Macaulayness, counts of
Frobenius-stable submodules) and for graded hypersurfaces (F-purity,
F-injectivity, bounded tight-closure probes), with independent
brute-force oracles backing every nontrivial computation.  The package
namespace exports only __version__; import everything else from its
module (froblab.cli, froblab.local_cohomology, ...).  Each command
loads only its own modules: analyze-hypersurface never loads the
face-ring ones, among them the submodule models of froblab.fmodule,
and analyze-complex never loads froblab.hypersurface.  M is
anti-nilpotent when F acts injectively on M/N for every F-stable
submodule N; that condition on a pair N' ⊂ N only gets harder as N
grows, so fmodule checks each enumerated submodule once, against the
whole module.
"""

__version__ = "0.1.0"
