"""Eigenvalue loci of rectangular matrix pencils.

Library layout:

- :mod:`rectpencil.polycore` — exact sparse multivariate polynomials,
  symbolic determinants, resultants.
- :mod:`rectpencil.pencil` — rectangular matrices, the diagonal shift
  subspace, coranks, maximal minors, the chart map, transversality.
- :mod:`rectpencil.critical` — critical-set polynomials (direct determinant
  and the column-subset expansion) and the banded minor basis.
- :mod:`rectpencil.heine` — Heine branches of upper-triangular pencils,
  each solved as the locus of a trailing block, and their branch systems.
- :mod:`rectpencil.locus` — numeric locus solver and local multiplicities.
- :mod:`rectpencil.disc23` — the 2x3 multiple-eigenvalue discriminant.
- :mod:`rectpencil.cli` — the ``rectpencil`` command.
"""

from .errors import IdentityViolation, NumericFailure, UsageError
from .polycore import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    GaussianRational,
    MultiPoly,
    PolyMatrix,
    extract_monomial_factor,
    resultant_univariate,
    sym_det,
    symbolic_matrix,
)
from .pencil import (
    PencilSpec,
    RectMatrix,
    ResolutionPoint,
    corank,
    matrix_from_json,
    matrix_to_json,
    maximal_minors,
    resolution_nu,
    standard_diagonal_basis,
    transversality_check,
    unit_diagonal_matrix,
)
from .critical import (
    CriticalPolynomial,
    MinorBasis,
    basis_change_matrix,
    build_T,
    critical_det_poly,
    minor_basis,
    sds_poly,
)
from .heine import (
    BranchSystem,
    build_branch_systems,
    check_heine_admissible,
    heine_count,
    heine_solve,
)
from .locus import (
    Eigenvalue,
    SolverConfig,
    local_multiplicity,
    newton_system,
    solve_eigenvalue_locus,
)
from .disc23 import (
    critical_equation,
    d0_value,
    discriminant_D0,
    discriminant_ratio,
    eigen_equations,
    elimination_matrix,
    multiple_eigenvalue_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "IdentityViolation",
    "NumericFailure",
    "UsageError",
    "COMPLEX",
    "GAUSSIAN",
    "RATIONAL",
    "GaussianRational",
    "MultiPoly",
    "PolyMatrix",
    "extract_monomial_factor",
    "resultant_univariate",
    "sym_det",
    "symbolic_matrix",
    "PencilSpec",
    "RectMatrix",
    "ResolutionPoint",
    "corank",
    "matrix_from_json",
    "matrix_to_json",
    "maximal_minors",
    "resolution_nu",
    "standard_diagonal_basis",
    "transversality_check",
    "unit_diagonal_matrix",
    "CriticalPolynomial",
    "MinorBasis",
    "basis_change_matrix",
    "build_T",
    "critical_det_poly",
    "minor_basis",
    "sds_poly",
    "BranchSystem",
    "build_branch_systems",
    "check_heine_admissible",
    "heine_count",
    "heine_solve",
    "Eigenvalue",
    "SolverConfig",
    "local_multiplicity",
    "newton_system",
    "solve_eigenvalue_locus",
    "critical_equation",
    "d0_value",
    "discriminant_D0",
    "discriminant_ratio",
    "eigen_equations",
    "elimination_matrix",
    "multiple_eigenvalue_oracle",
    "__version__",
]
