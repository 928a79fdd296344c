"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input or violated precondition of a library operation."""


class InfeasibleConstraintError(DomainError):
    """No policy satisfies the requested cost/budget constraint."""


class SolverError(DomainError):
    """A solver stopped abnormally: an unbounded LP, an LP iteration limit or
    singular final basis, or the step cap (MAX_POLICY_ITERATIONS) of hard or
    soft policy iteration.
    """
