"""Self-contained dense linear-program solver.

Two-phase primal simplex on a dense tableau.  The entering variable is the
column with the most negative reduced cost (Dantzig's rule); the leaving
variable passes the minimum-ratio test, ties going to the lowest-index basic
variable.  Dantzig's rule can cycle on degenerate vertices, so once as many
consecutive degenerate pivots (zero step length) have been taken as there
are candidate columns, the entering variable becomes the lowest-index column
with a negative reduced cost (Bland's rule, which cannot cycle) until a
pivot makes progress again.  Vertex solutions make downstream policy
extraction deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-9
MAX_ITERS = 500_000


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
        for name, arr in (("objective", c), ("eq_lhs", ae), ("eq_rhs", be),
                          ("ub_lhs", au), ("ub_rhs", bu)):
            object.__setattr__(self, name, arr)

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None
    objective_value: float
    dual: np.ndarray | None = None  # one multiplier per row, eq rows first
    pivots: tuple[int, int] = (0, 0)  # phase 1 (with artificials driven out), phase 2


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
    ties = rows[ratios <= best + PIVOT_TOL]
    return int(ties[np.argmin(basis[ties])])


def _pivot(tab, cost, basis, buf, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    np.multiply.outer(factors, tab[row], out=buf)
    tab -= buf
    cost -= cost[col] * tab[row]
    basis[row] = col


def _run_simplex(tab, cost, basis, buf, entering_limit: int) -> tuple[str, int]:
    """Pivot to optimality; returns the status and the number of pivots taken."""
    stalled = 0  # consecutive degenerate pivots
    for pivots in range(MAX_ITERS):
        col = int(np.argmin(cost[:entering_limit]))
        if cost[col] >= -PIVOT_TOL:
            return OPTIMAL, pivots
        if stalled >= entering_limit:
            col = _bland_entering(cost, entering_limit)
        row = _ratio_leaving(tab, basis, col)
        if row is None:
            return UNBOUNDED, pivots
        stalled = stalled + 1 if tab[row, -1] <= PIVOT_TOL else 0
        _pivot(tab, cost, basis, buf, row, col)
    raise SolverError("simplex iteration limit exceeded")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; returns a certified status and, when optimal, a vertex."""
    n = lp.num_vars
    me, mu = lp.eq_rhs.size, lp.ub_rhs.size
    m = me + mu
    if m == 0:
        raise DomainError("program needs at least one constraint")

    # Standard form rows: [eq | ub + slack], rhs made nonnegative by row flips.
    a = np.zeros((m, n + mu))
    a[:me, :n] = lp.eq_lhs
    a[me:, :n] = lp.ub_lhs
    a[me:, n:] = np.eye(mu)
    b = np.concatenate([lp.eq_rhs, lp.ub_rhs])
    flip = b < 0
    a[flip] *= -1.0
    b = np.abs(b)
    feas_tol = 1e-7 * (1.0 + float(b.max()))

    # Artificial columns only where the slack cannot start basic.
    need_art = np.array([i < me or flip[i] for i in range(m)])
    art_rows = np.flatnonzero(need_art)
    n_struct = n + mu
    n_cols = n_struct + art_rows.size
    tab = np.zeros((m, n_cols + 1))
    tab[:, :n_struct] = a
    for j, i in enumerate(art_rows):
        tab[i, n_struct + j] = 1.0
    tab[:, -1] = b
    basis = np.empty(m, dtype=int)
    art_of_row = {int(i): n_struct + j for j, i in enumerate(art_rows)}
    for i in range(m):
        basis[i] = art_of_row[i] if need_art[i] else n + (i - me)
    buf = np.empty_like(tab)
    keep = np.ones(m, dtype=bool)

    phase1 = 0
    if art_rows.size:
        cost1 = np.zeros(n_cols + 1)
        cost1[n_struct:n_cols] = 1.0
        for i in art_rows:
            cost1 -= tab[i]
        status, phase1 = _run_simplex(tab, cost1, basis, buf, n_cols)
        if status != OPTIMAL:  # phase 1 is bounded below by 0
            raise SolverError("phase 1 terminated abnormally")
        if -cost1[-1] > feas_tol:
            return LpSolution(status=INFEASIBLE, x=None, objective_value=float("nan"),
                              pivots=(phase1, 0))
        # Pivot basic artificials out; rows that cannot are redundant.
        for i in range(m):
            if basis[i] >= n_struct:
                pivots = np.flatnonzero(np.abs(tab[i, :n_struct]) > PIVOT_TOL)
                if pivots.size:
                    _pivot(tab, cost1, basis, buf, i, int(pivots[0]))
                    phase1 += 1
                else:
                    keep[i] = False
        if not np.all(keep):
            tab = tab[keep]
            basis = basis[keep]
        tab = np.hstack([tab[:, :n_struct], tab[:, -1:]])
        buf = np.empty_like(tab)

    # Phase 2 on the real objective.
    cost2 = np.zeros(n_struct + 1)
    cost2[:n] = lp.objective
    for i in range(basis.size):
        if cost2[basis[i]] != 0.0:
            cost2 -= cost2[basis[i]] * tab[i]
    status, phase2 = _run_simplex(tab, cost2, basis, buf, n_struct)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, x=None, objective_value=float("-inf"),
                          pivots=(phase1, phase2))

    x_full = np.zeros(n_struct)
    x_full[basis] = np.maximum(tab[:, -1], 0.0)
    x = x_full[:n]
    obj = float(lp.objective @ x)

    # Duals: solve B^T y = c_B on the kept rows of the flipped system.
    kept_rows = np.flatnonzero(keep)
    y = np.zeros(m)
    if kept_rows.size:
        basis_cols = a[np.ix_(kept_rows, basis)]
        c_basis = np.zeros(basis.size)
        struct_mask = basis < n
        c_basis[struct_mask] = lp.objective[basis[struct_mask]]
        try:
            y[kept_rows] = np.linalg.solve(basis_cols.T, c_basis)
        except np.linalg.LinAlgError:
            y[:] = np.nan
    y[flip] *= -1.0
    return LpSolution(status=OPTIMAL, x=x, objective_value=obj, dual=y, pivots=(phase1, phase2))
