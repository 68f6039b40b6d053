"""Weighted combinatorial Laplace operators on simplicial complexes.

Build complexes, assemble up/down/full Laplacians under combinatorial,
normalized or custom weights, compute spectra and exact homology, and run
the self-verifying suite of spectral identities over a fixture corpus.
"""

from ._kernels import exact_rank, exhaustive_balance
from .constructions import (
    FamilySpec,
    cartesian_product,
    cone,
    duplicate_motif,
    generate,
    join,
    reference_spectrum,
    wedge,
)
from .core import (
    BalanceResult,
    CoboundaryMatrix,
    DualGraph,
    Motif,
    SimplicialComplex,
    boundary_sign,
    chromatic_number_1skel,
    closure_of,
    coboundary_matrix,
    dual_graph,
    from_facets,
    is_regular,
    motif,
    signed_balance,
)
from .operators import (
    LaplacianMatrix,
    WeightScheme,
    laplacian,
    normalized_weight_map,
)
from .spectra import (
    BettiProfile,
    BoundsReport,
    Spectrum,
    betti,
    bounds_report,
    eq_mod_zeros,
    predicted_zero_multiplicity,
    spectrum,
)
from .suites import SUITES, run_suites
from .theorems import CheckReport

__version__ = "0.1.0"

__all__ = [
    "BalanceResult",
    "BettiProfile",
    "BoundsReport",
    "CheckReport",
    "CoboundaryMatrix",
    "DualGraph",
    "FamilySpec",
    "LaplacianMatrix",
    "Motif",
    "SUITES",
    "SimplicialComplex",
    "Spectrum",
    "WeightScheme",
    "betti",
    "boundary_sign",
    "bounds_report",
    "cartesian_product",
    "chromatic_number_1skel",
    "closure_of",
    "coboundary_matrix",
    "cone",
    "dual_graph",
    "duplicate_motif",
    "eq_mod_zeros",
    "exact_rank",
    "exhaustive_balance",
    "from_facets",
    "generate",
    "is_regular",
    "join",
    "laplacian",
    "motif",
    "normalized_weight_map",
    "predicted_zero_multiplicity",
    "reference_spectrum",
    "run_suites",
    "signed_balance",
    "spectrum",
    "wedge",
]
