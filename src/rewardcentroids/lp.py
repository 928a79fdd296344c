"""Self-contained dense linear-program solver.

Primal simplex on a dense tableau over the standard form: the structural
columns x, then one slack column per `<=` row.  A solve runs in three stages.

- Start.  The caller's starting basis (one standard-form column per row,
  whose columns are invertible and whose basic solution is feasible) gives
  the tableau B^-1 [A | b], formed once.  Without one, the start is the
  slack basis, which fits only `<=` rows with a nonnegative right-hand side.
- Phase 2 minimizes the objective.
- Tie stage.  Every nonbasic column whose reduced cost exceeds PIVOT_TOL is
  barred, so the columns left span the optimal face.  The simplex then
  minimizes one fixed tie objective over that face: uniform weights drawn
  once from Philox key TIE_KEY on the structural columns, zero on slacks.
  For generic weights that optimum is a single point, so the returned x
  does not depend on the start or the pivot path (lexicographic
  optimization, Isermann 1982).  The weights are nonnegative and so is x,
  so this stage is bounded.

The entering variable is the column with the most negative reduced cost
(Dantzig's rule); the leaving variable passes the minimum-ratio test, exact
ties going to the lowest-index basic variable.  A row whose ratio is above
the minimum, however slightly, never leaves: its pivot would drive the
minimum row's basic value below zero.  Dantzig's rule can cycle on
degenerate vertices, so once as many consecutive degenerate pivots (zero
step length) have been taken as there are candidate columns, the entering
variable becomes the lowest-index column with a negative reduced cost
(Bland's rule, which cannot cycle) until a pivot makes progress again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

PIVOT_TOL = 1e-9
MAX_ITERS = 500_000
TIE_KEY = 0


@dataclass(frozen=True)
class LinearProgram:
    """min objective @ x  s.t.  eq_lhs x = eq_rhs, ub_lhs x <= ub_rhs, x >= 0."""

    objective: np.ndarray
    eq_lhs: np.ndarray
    eq_rhs: np.ndarray
    ub_lhs: np.ndarray
    ub_rhs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = c.size
        ae = np.asarray(self.eq_lhs, dtype=float).reshape(-1, n)
        be = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float)) if np.size(self.eq_rhs) else np.zeros(0)
        au = np.asarray(self.ub_lhs, dtype=float).reshape(-1, n)
        bu = np.atleast_1d(np.asarray(self.ub_rhs, dtype=float)) if np.size(self.ub_rhs) else np.zeros(0)
        if ae.shape[0] != be.size or au.shape[0] != bu.size:
            raise DomainError("constraint matrix/vector dimensions disagree")
        for name, arr in (("objective", c), ("eq_lhs", ae), ("eq_rhs", be),
                          ("ub_lhs", au), ("ub_rhs", bu)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective_value: float
    dual: np.ndarray  # one multiplier per row, eq rows first
    pivots: tuple[int, int]  # phase 2, tie stage


def tie_objective(num_vars: int) -> np.ndarray:
    """The tie stage's weights on the structural columns."""
    return np.random.Generator(np.random.Philox(key=TIE_KEY)).random(num_vars)


def _bland_entering(redcost: np.ndarray, limit: int) -> int:
    """Lowest-index column with a negative reduced cost; one must exist."""
    return int(np.flatnonzero(redcost[:limit] < -PIVOT_TOL)[0])


def _ratio_leaving(tab: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    rates = tab[:, col]
    rows = np.flatnonzero(rates > PIVOT_TOL)
    if rows.size == 0:
        return None
    ratios = np.maximum(tab[rows, -1], 0.0) / rates[rows]
    best = ratios.min()
    ties = rows[ratios <= best]
    return int(ties[np.argmin(basis[ties])])


def _pivot(tab, cost, basis, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    # Rows with a zero in the pivot column would subtract zero: skip them.
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    tab[rows] -= np.multiply.outer(tab[rows, col], tab[row])
    cost -= cost[col] * tab[row]
    basis[row] = col


def _run_simplex(tab, cost, basis, entering_limit: int) -> int:
    """Pivot to optimality; returns the number of pivots taken."""
    stalled = 0  # consecutive degenerate pivots
    for pivots in range(MAX_ITERS):
        col = int(np.argmin(cost[:entering_limit]))
        if cost[col] >= -PIVOT_TOL:
            return pivots
        if stalled >= entering_limit:
            col = _bland_entering(cost, entering_limit)
        row = _ratio_leaving(tab, basis, col)
        if row is None:
            raise SolverError("the program is unbounded")
        stalled = stalled + 1 if tab[row, -1] <= PIVOT_TOL else 0
        _pivot(tab, cost, basis, row, col)
    raise SolverError("simplex iteration limit exceeded")


def _priced(weights: np.ndarray, tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Reduced-cost row of `weights` (one per tableau column) at the basis."""
    cost = np.zeros(tab.shape[1])
    cost[: weights.size] = weights
    return cost - cost[basis] @ tab


def _basis_tableau(ab: np.ndarray, basis, feas_tol: float):
    """B^-1 [A | b] for a starting basis, checked invertible and feasible."""
    m, n_struct = ab.shape[0], ab.shape[1] - 1
    basis = np.array(basis, dtype=int)
    if basis.shape != (m,) or np.unique(basis).size != m or basis.min() < 0 or basis.max() >= n_struct:
        raise DomainError("a starting basis needs one distinct standard-form column per row")
    try:
        # An explicit inverse: a many-column LU solve holds twice the memory.
        tab = np.linalg.inv(ab[:, basis]) @ ab
    except np.linalg.LinAlgError:
        raise DomainError("the starting basis is singular") from None
    if not np.all(np.isfinite(tab)):
        raise DomainError("the starting basis is singular")
    if tab[:, -1].min() < -feas_tol:
        raise DomainError("the starting basis is not primal feasible")
    tab[:, basis] = np.eye(m)
    return tab, basis


def held_bytes(rows: int, variables: int, ub_rows: int) -> int:
    """What solve holds for a program: the standard form [A | b] and the
    tableau, each rows x (variables + ub_rows + 1) float64, and the rows x
    rows basis inverse; not the program's own arrays, nor _pivot's row-block
    temporaries."""
    return 8 * rows * (2 * (variables + ub_rows + 1) + rows)


def solve(lp: LinearProgram, basis=None) -> LpSolution:
    """Solve the program from a starting basis; returns the tie objective's
    optimum over the optimal face, or raises SolverError.

    `basis` lists one standard-form column per row (structural columns
    0..n-1, then the slack of `<=` row j at n + j) that is invertible and
    primal feasible; None means the slack basis.
    """
    n = lp.num_vars
    me, mu = lp.eq_rhs.size, lp.ub_rhs.size
    m = me + mu
    if m == 0:
        raise DomainError("program needs at least one constraint")
    if basis is None:
        if me:
            raise DomainError("a program with equality rows needs a starting basis")
        basis = n + np.arange(mu)

    # Standard form [A | b]: eq rows, then ub rows with their slacks.
    ab = np.zeros((m, n + mu + 1))
    ab[:me, :n] = lp.eq_lhs
    ab[me:, :n] = lp.ub_lhs
    ab[me:, n:-1] = np.eye(mu)
    ab[:, -1] = np.concatenate([lp.eq_rhs, lp.ub_rhs])
    feas_tol = 1e-7 * (1.0 + float(np.abs(ab[:, -1]).max()))
    n_struct = n + mu
    tab, basis = _basis_tableau(ab, basis, feas_tol)

    cost = _priced(lp.objective, tab, basis)
    phase2 = _run_simplex(tab, cost, basis, n_struct)

    # Tie stage: the tie objective over the optimal face only.
    tie = _priced(tie_objective(n), tab, basis)
    tie[:n_struct][cost[:n_struct] > PIVOT_TOL] = np.inf
    ties = _run_simplex(tab, tie, basis, n_struct)

    x_full = np.zeros(n_struct)
    x_full[basis] = np.maximum(tab[:, -1], 0.0)
    x = x_full[:n]
    obj = float(lp.objective @ x)

    # Duals: solve B^T y = c_B.
    c_basis = np.concatenate([lp.objective, np.zeros(mu)])[basis]
    try:
        y = np.linalg.solve(ab[:, basis].T, c_basis)
    except np.linalg.LinAlgError:
        raise SolverError("the final basis is singular") from None
    return LpSolution(x=x, objective_value=obj, dual=y, pivots=(phase2, ties))
