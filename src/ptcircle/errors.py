"""Exception types shared across the solver modules."""


class SolverError(RuntimeError):
    """Base class for numeric failures (maps to CLI exit code 2)."""


class NoSignChangeError(SolverError):
    """A refinement bracket does not straddle a root."""


class ConvergenceError(SolverError):
    """An iteration failed to reach its tolerance within its step budget."""


class JacobianSingularError(ConvergenceError):
    """The Newton Jacobian is singular; typically signals proximity to a fold."""


class NotAFoldError(SolverError):
    """A double-root search converged to a point that is not a quadratic fold."""


class NotAnEigenvalueError(SolverError):
    """The boundary matrix is numerically non-singular at the requested energy."""


class FitConditioningError(SolverError):
    """A least-squares fit has degenerate or insufficient sample support."""
