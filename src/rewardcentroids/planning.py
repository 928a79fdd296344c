"""Planning in new environments: greedy, budget-constrained, and imitation baselines.

Both LPs share one builder over the occupancy d of the target environment,
with the flow equations as equalities.  Summed over states they give
(1 - gamma) sum(d) = 1 - gamma, so sum(d) = 1 needs no row of its own.  The
budget "discounted cost value at the initial state <= k" becomes
sum(d * c) <= (1-gamma)k.  Constrained planning maximizes expected reward
over d.  The MIMIC baseline finds the d closest in L1 distance to the
expert's occupancy d_E in the source environment: one slack w_i >= d_E,i - d_i
per pair on the expert's support, and since sum(d) = 1,
sum|d - d_E| = 1 - sum(d_E) + 2 sum(w).

Each LP starts from the basis of a deterministic crash policy pi: the
columns (s, pi(s)), whose flow rows form W_pi^T (Puterman 1994, 6.9), and
per `<=` row the cost slack, or MIMIC's w_i where d_E,i exceeds the crash
occupancy and the row's slack elsewhere.  The crash policy is greedy for the
LP's own gain: r for planning, and for MIMIC the indicator of the support K,
which is the objective's gradient while every w_i is basic.  A greedy
policy's flow basis is dual feasible for its gain (the LP/policy-iteration
duality), so a plan whose greedy policy meets the budget takes no
phase-2 pivot.  Under a budget the crash is the first of three greedy
policies that meets it: of the gain, of the gain less M times the cost, and
of minus the cost.  A deterministic min-cost policy attains the least cost
value of any policy (Altman 1999), so when even it is over budget no policy
is feasible and no LP is solved.  Every solution is certified: its primal
residual and its duality gap must stay within CERTIFY_TOL * (1 + |objective|).
_occupancy_lp refuses a program that lp.solve could not hold within
MAX_LP_BYTES (lp.held_bytes) before it allocates any program-sized array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleConstraintError, SolverError
from .geometry import OPT, AdvantageGap, check_expert, shaping_matrix, t_operator
from .lp import LinearProgram, held_bytes, solve
from .mdp import (
    MAX_LP_BYTES,
    OccupancyMeasure,
    PolicyTable,
    RewardTable,
    TabularMdp,
    check_table,
    greedy_policy,
    occupancy_measure,
    philox,
    support_mask,
    value_iteration,
)

# Bound on a solution's primal residual and duality gap, relative to
# 1 + |objective|; a crash policy may overdraw the budget row by as much.
CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class ConstraintSpec:
    """Cost table c and budget k; a policy is feasible when V^pi(s0; c) <= k."""

    cost: RewardTable
    budget: float

    def __post_init__(self):
        if not (np.isfinite(self.budget) and self.budget >= 0):
            raise DomainError(f"budget must be finite and nonnegative, not {self.budget!r}")


@dataclass(frozen=True)
class PlanResult:
    policy: PolicyTable
    occupancy: OccupancyMeasure
    value: float


@dataclass(frozen=True)
class MimicResult:
    policy: PolicyTable
    occupancy: OccupancyMeasure
    l1_distance: float


def plan_unconstrained(mdp: TabularMdp, r: RewardTable) -> PolicyTable:
    """Greedy policy of the optimal Q; lowest action index on ties."""
    return greedy_policy(value_iteration(mdp, r))


def _occupancy_lp(
    mdp: TabularMdp, objective: np.ndarray, constraint: ConstraintSpec | None, d_e: np.ndarray
) -> LinearProgram:
    """The occupancy LP over mdp: the flow rows, the budget row under a
    constraint, and per pair i in the support of the flat expert occupancy d_e
    the row -d_i - w_i <= -d_E,i, with w_i of cost 1 after the S*A variables
    that `objective` prices.  A zero d_e gives the plan program.  A program
    over MAX_LP_BYTES (lp.held_bytes) is refused before it is built.
    """
    S, A = mdp.num_states, mdp.num_actions
    support = np.flatnonzero(d_e)
    k = support.size
    budget = int(constraint is not None)
    ub_rows, n = budget + k, S * A + k
    size = held_bytes(S + ub_rows, n, ub_rows)
    if size > MAX_LP_BYTES:
        raise DomainError(
            f"an occupancy LP of {S + ub_rows:,} rows and {n:,} variables needs {size / 2**20:,.0f} MiB "
            f"for its standard form, tableau and basis inverse, over the {MAX_LP_BYTES // 2**20} MiB limit"
        )
    eq_lhs = np.zeros((S, n))
    eq_lhs[:, : S * A] = shaping_matrix(mdp).T  # the flow rows
    eq_rhs = np.zeros(S)
    eq_rhs[mdp.initial_state] = 1.0 - mdp.discount
    ub_lhs = np.zeros((ub_rows, n))
    ub_rhs = np.empty(ub_rows)
    if constraint is not None:
        check_table(mdp, constraint.cost.values, "constraint cost")
        ub_lhs[0, : S * A] = constraint.cost.values.ravel()
        ub_rhs[0] = (1.0 - mdp.discount) * constraint.budget
    # w_i >= d_E,i - d_i  <=>  -d_i - w_i <= -d_E,i
    ub_lhs[budget + np.arange(k), support] = -1.0
    np.fill_diagonal(ub_lhs[budget:, S * A :], -1.0)
    ub_rhs[budget:] = -d_e[support]
    objective = np.concatenate([objective, np.ones(k)])
    return LinearProgram(objective=objective, eq_lhs=eq_lhs, eq_rhs=eq_rhs, ub_lhs=ub_lhs, ub_rhs=ub_rhs)


def policy_from_occupancy(d: OccupancyMeasure) -> PolicyTable:
    """Conditional action distribution of an occupancy; zero-mass rows go uniform."""
    mass = d.d.sum(axis=1)
    A = d.d.shape[1]
    probs = np.full_like(d.d, 1.0 / A)
    covered = mass > 1e-12
    probs[covered] = d.d[covered] / mass[covered, None]
    probs /= probs.sum(axis=1, keepdims=True)
    return PolicyTable(probs)


def _crash(
    mdp: TabularMdp, gain: np.ndarray, constraint: ConstraintSpec | None, infeasible: str
) -> tuple[np.ndarray, np.ndarray]:
    """The crash policy's actions and flat occupancy for an LP that maximizes
    sum(d * gain): the first of these greedy policies to meet the budget.

    1. The greedy policy of the gain (the only one tried without a budget).
    2. The greedy policy of gain - M * cost, with M = span(gain) / (1 - gamma) + 1.
       M exceeds any two policies' difference in gain value, so where every
       cost is 0 or at least 1 this policy avoids each cost it can avoid.
    3. The min-cost policy, greedy for -cost.  It attains the least cost
       value of any policy (Altman 1999), so if it is over budget no policy
       meets the budget: InfeasibleConstraintError.
    """
    gains = [gain]
    if constraint is not None:
        cost = constraint.cost.values
        big_m = (gain.max() - gain.min()) / (1.0 - mdp.discount) + 1.0
        gains += [gain - big_m * cost, -cost]
        allowance = (1.0 - mdp.discount) * constraint.budget
        limit = allowance + CERTIFY_TOL * (1.0 + allowance)
    for table in gains:
        policy = plan_unconstrained(mdp, RewardTable(table))
        d = occupancy_measure(mdp, policy).d
        if constraint is None or (d * cost).sum() <= limit:
            return policy.actions(), d.ravel()
    raise InfeasibleConstraintError(infeasible)


def _start_basis(lp: LinearProgram, actions: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The starting basis of an occupancy LP at a deterministic policy with
    flat occupancy d: the policy's flow columns (s, actions[s]), the cost
    slack if the LP has a budget row, and per MIMIC support row w_i where d
    falls short of d_E,i (the row fails at w_i = 0), else the row's slack."""
    sa, n = d.size, lp.num_vars
    k = n - sa  # support rows, one w_i each, after the budget row
    first = lp.ub_rhs.size - k
    short = lp.ub_lhs[first:, :sa] @ d > lp.ub_rhs[first:]
    flow = np.arange(actions.size) * (sa // actions.size) + actions  # s * A + actions[s]
    rows = np.arange(k)
    return np.concatenate([flow, n + np.arange(first), np.where(short, sa + rows, n + first + rows)])


def _solve_occupancy(
    mdp: TabularMdp, lp: LinearProgram, basis: np.ndarray
) -> tuple[PolicyTable, OccupancyMeasure]:
    """Solve an occupancy LP from `basis` and certify the solution; the policy
    of its optimum and that policy's exact occupancy."""
    sol = solve(lp, basis)
    residual = max(
        np.abs(lp.eq_lhs @ sol.x - lp.eq_rhs).max(),
        (lp.ub_lhs @ sol.x - lp.ub_rhs).max(initial=0.0),
    )
    gap = abs(sol.objective_value - np.concatenate([lp.eq_rhs, lp.ub_rhs]) @ sol.dual)
    bound = CERTIFY_TOL * (1.0 + abs(sol.objective_value))
    if not (residual <= bound and gap <= bound):
        raise SolverError(f"LP solution not certified: primal residual {residual:.3g}, "
                          f"duality gap {gap:.3g}, bound {bound:.3g}")
    S, A = mdp.num_states, mdp.num_actions
    d_raw = np.maximum(sol.x[: S * A].reshape(S, A), 0.0)
    d_raw /= d_raw.sum()
    policy = policy_from_occupancy(OccupancyMeasure(d_raw))
    # Re-solving the flow for the extracted policy removes simplex roundoff.
    return policy, occupancy_measure(mdp, policy)


def plan_constrained(mdp: TabularMdp, r: RewardTable, constraint: ConstraintSpec) -> PlanResult:
    """Maximize V(s0; r) over policies whose cost value stays within budget."""
    check_table(mdp, r.values, "reward")
    lp = _occupancy_lp(mdp, -r.values.ravel(), constraint, np.zeros(r.values.size))
    actions, d = _crash(mdp, r.values, constraint, "no policy satisfies the cost budget")
    basis = _start_basis(lp, actions, d)
    policy, occ = _solve_occupancy(mdp, lp, basis)
    value = float((occ.d * r.values).sum() / (1.0 - mdp.discount))
    return PlanResult(policy=policy, occupancy=occ, value=value)


def plan(mdp: TabularMdp, r: RewardTable, constraint: ConstraintSpec | None = None) -> PlanResult:
    """plan_constrained under a constraint; else the greedy plan.  Either way the
    value at s0 is read off the occupancy, sum(d * r) / (1 - gamma)."""
    if constraint is not None:
        return plan_constrained(mdp, r, constraint)
    policy = plan_unconstrained(mdp, r)
    occ = occupancy_measure(mdp, policy)
    value = float((occ.d * r.values).sum() / (1.0 - mdp.discount))
    return PlanResult(policy=policy, occupancy=occ, value=value)


def mimic_policy(
    source_mdp: TabularMdp,
    expert: PolicyTable,
    target_mdp: TabularMdp,
    constraint: ConstraintSpec | None = None,
) -> MimicResult:
    """Occupancy matching: the feasible target occupancy L1-closest to the expert's.

    Minimizes sum(w) over the occupancy d and one slack w_i >= d_E,i - d_i per
    pair i in the support K of d_E.  Off K, |d_i - d_E,i| = d_i, and on K at
    the optimum w_i = max(d_E,i - d_i, 0), so with sum(d) = 1 the objective
    is (sum|d - d_E| - 1 + sum(d_E)) / 2: the same minimizer as the L1
    distance.  The reported distance is that of the re-solved occupancy.
    """
    if (source_mdp.num_states, source_mdp.num_actions) != (
        target_mdp.num_states,
        target_mdp.num_actions,
    ):
        raise DomainError("source and target MDPs must share state/action spaces")
    d_e = occupancy_measure(source_mdp, expert).d.ravel()
    lp = _occupancy_lp(target_mdp, np.zeros(d_e.size), constraint, d_e)
    in_support = (d_e > 0).astype(float).reshape(target_mdp.num_states, -1)
    actions, d = _crash(
        target_mdp, in_support, constraint, "no feasible occupancy satisfies the constraints"
    )
    basis = _start_basis(lp, actions, d)
    policy, occ = _solve_occupancy(target_mdp, lp, basis)
    l1 = float(np.abs(occ.d.ravel() - d_e).sum())
    return MimicResult(policy=policy, occupancy=occ, l1_distance=l1)


def bc_policy(expert: PolicyTable, support: frozenset[int] | set[int]) -> PolicyTable:
    """Behavioral cloning: the expert on its support, uniform elsewhere."""
    S, A = expert.probs.shape
    return PolicyTable(np.where(support_mask(support, S)[:, None], expert.probs, 1.0 / A))


def best_case_reward(
    mdp: TabularMdp,
    expert: PolicyTable,
    support: frozenset[int] | set[int],
    seed: int,
) -> RewardTable:
    """A random member of the expert's feasible set (the "pick any reward" baseline).

    Samples a deterministic extension of the expert off its support, values
    uniform in [-1, 1], and strictly positive advantage gaps (magnitude up to
    0.5) subtracted off the non-prescribed actions, then applies the shaping
    operator.  The result always makes the extension optimal.
    """
    check_table(mdp, expert.probs, "expert")
    rng = np.random.Generator(philox(seed))
    S, A = mdp.num_states, mdp.num_actions
    on = support_mask(support, S)
    actions = check_expert(expert, on, OPT, "best_case_reward's expert on its support")
    actions[~on] = rng.integers(A, size=S - on.sum())  # one draw per state, in state order
    extension = PolicyTable.from_actions(actions, A)
    v = rng.uniform(-1.0, 1.0, size=S)
    gaps = -rng.uniform(0.0, 0.5, size=(S, A))
    gaps[np.arange(S), actions] = 0.0
    return t_operator(mdp, extension, v, AdvantageGap(gaps))


def suboptimality_bound(
    mdp: TabularMdp,
    r_hat: RewardTable,
    r_ref: RewardTable,
    constraint: ConstraintSpec,
) -> tuple[float, float]:
    """(lhs, rhs) of the estimate-vs-reference planning error bound.

    lhs is the gap between the constrained optimal values of the two rewards;
    rhs is their sup-norm distance divided by (1 - gamma).
    """
    v_hat = plan_constrained(mdp, r_hat, constraint).value
    v_ref = plan_constrained(mdp, r_ref, constraint).value
    rhs = float(np.abs(r_hat.values - r_ref.values).max() / (1.0 - mdp.discount))
    return abs(v_hat - v_ref), rhs
