"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input or violated precondition of a library operation."""


class InfeasibleConstraintError(DomainError):
    """No policy satisfies the requested cost/budget constraint."""


class SolverError(DomainError):
    """A solver stopped abnormally: an LP iteration limit or unexpected status,
    or the step cap (MAX_POLICY_ITERATIONS) of hard or soft policy iteration.
    """
