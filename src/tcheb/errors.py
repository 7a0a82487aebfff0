"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used by the CLI
when emitting JSON error objects.
"""


class TchebError(Exception):
    """Base class for all library errors."""

    code = "error"


class DomainError(TchebError):
    """An input lies outside the mathematical domain of an operation."""

    code = "domain"


class EvaluationError(TchebError):
    """A basis or model function hit a floating-point error or a non-finite value."""

    code = "evaluation"


class ConfigurationError(TchebError):
    """A type or operation was constructed with inconsistent data."""

    code = "configuration"


class InfeasibleError(TchebError):
    """A moment point admits no representing measure within tolerance."""

    code = "infeasible"


class UnboundedError(TchebError):
    """A linear program is unbounded.

    Moment LPs are bounded, so ``principal._solve_grid_lp``, the one
    moment LP solver, reports this as the round-off it is, a ConvergenceError.
    """

    code = "unbounded"


class ConvergenceError(TchebError):
    """An iterative solver stopped before reaching its tolerance."""

    code = "convergence"


class SingularityError(TchebError):
    """A linear system or Jacobian is numerically singular."""

    code = "singular"


class PreconditionError(TchebError):
    """A mathematical hypothesis required by an operation failed its check."""

    code = "precondition"

    def __init__(self, message, witness=None, q_vector=None):
        super().__init__(message)
        self.witness = witness
        self.q_vector = q_vector


class DegeneracyError(TchebError):
    """Every candidate produced by a search was singular or invalid."""

    code = "degenerate"
