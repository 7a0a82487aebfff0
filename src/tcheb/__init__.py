"""Complete-class reduction of experimental designs.

Moment points of designs under a power-ordered system of regression
functionals live in a finite-dimensional moment space.  When the system
satisfies a determinant (total positivity) condition, every design is
dominated in the Loewner order by a principal representation of its
moment point, supported on few points with a known boundary pattern.
This package checks the determinant condition, computes moment points,
constructs the principal representations, and searches the reduced
class for optimal designs.
"""

from .chebyshev import (
    CheckReport,
    ChebyshevSystem,
    Interval,
    augment,
    basis_matrix,
    check_chebyshev,
    evaluate_basis,
    polynomial_system,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    EvaluationError,
    InfeasibleError,
    PreconditionError,
    SingularityError,
    TchebError,
    UnboundedError,
)
from .models import (
    CATALOG_NAMES,
    PsiSystem,
    RegressionModel,
    c_matrix,
    information_matrix,
    make_model,
    psi_k_Q,
    psi_system,
)
from .moments import (
    BoundaryReport,
    Design,
    MomentPoint,
    classify_point,
    design_index,
    moment_point,
)
from .principal import (
    PrincipalResult,
    RepresentationStructure,
    grid_lp_extremum,
    lower_principal,
    refine_newton,
    upper_principal,
)
from .reduction import (
    DominationReport,
    ReductionReport,
    criterion_value,
    optimize_in_class,
    reduce_design,
    verify_domination,
)
from .simplex import LPResult, solve_lp

__version__ = "0.1.0"

__all__ = [
    "BoundaryReport",
    "CATALOG_NAMES",
    "ChebyshevSystem",
    "CheckReport",
    "ConfigurationError",
    "ConvergenceError",
    "DegeneracyError",
    "Design",
    "DomainError",
    "DominationReport",
    "EvaluationError",
    "InfeasibleError",
    "Interval",
    "LPResult",
    "MomentPoint",
    "PreconditionError",
    "PrincipalResult",
    "PsiSystem",
    "ReductionReport",
    "RegressionModel",
    "RepresentationStructure",
    "SingularityError",
    "TchebError",
    "UnboundedError",
    "augment",
    "basis_matrix",
    "c_matrix",
    "check_chebyshev",
    "classify_point",
    "criterion_value",
    "design_index",
    "evaluate_basis",
    "grid_lp_extremum",
    "information_matrix",
    "lower_principal",
    "make_model",
    "moment_point",
    "optimize_in_class",
    "polynomial_system",
    "psi_k_Q",
    "psi_system",
    "reduce_design",
    "refine_newton",
    "solve_lp",
    "upper_principal",
    "verify_domination",
    "__version__",
]
