"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input or violated precondition of a library operation."""


class InfeasibleConstraintError(DomainError):
    """No policy satisfies the requested cost/budget constraint."""


class SolverError(DomainError):
    """The LP solver stopped abnormally (iteration limit or unexpected status)."""
