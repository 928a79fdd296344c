"""Feasible-set membership, explicit parameterizations, and bounded reward sets.

A behavior model ties an observed policy to the rewards consistent with it:
OPT (policy optimal), MCE (soft-optimal with coefficient lam), or BIRL
(softmax of the hard optimal Q with temperature beta).  The feasible sets are
unbounded; the bounded sets here cap the induced (soft-)optimal value and
advantage functions by constants c1 and c2 instead of boxing the reward
entries directly, which removes the policy bias of a plain hypercube prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mdp import (
    PolicyTable,
    RewardTable,
    TabularMdp,
    ValueFunctions,
    boltzmann_policy,
    check_table,
    freeze_field,
    greedy_policy,
    k_pi,
    soft_value_iteration,
    support_mask,
    value_iteration,
)

OPT = "opt"
MCE = "mce"
BIRL = "birl"


@dataclass(frozen=True)
class BehaviorModel:
    """The model's kind and coefficient: none for OPT, lam for MCE, beta for BIRL."""

    kind: str
    coefficient: float | None = None

    def __post_init__(self):
        if self.kind not in (OPT, MCE, BIRL):
            raise DomainError(f"unknown behavior model kind {self.kind!r}")
        if self.kind == OPT and self.coefficient is not None:
            raise DomainError("OPT carries no coefficient")
        if self.kind != OPT and (self.coefficient is None or self.coefficient <= 0):
            raise DomainError("MCE requires lam > 0" if self.kind == MCE else "BIRL requires beta > 0")

    @classmethod
    def opt(cls) -> "BehaviorModel":
        return cls(OPT)

    @classmethod
    def mce(cls, lam: float) -> "BehaviorModel":
        return cls(MCE, lam)

    @classmethod
    def birl(cls, beta: float) -> "BehaviorModel":
        return cls(BIRL, beta)


@dataclass(frozen=True)
class BoundedSetParams:
    """Finite positive constants c1 (value bound) and c2 (advantage bound) for a model.

    The bounded set holds the whole feasible set of a policy whose
    probabilities are all at least pi_min only when c2 reaches the model's
    largest advantage there: lam * log(1/pi_min) for MCE and
    beta * log(1/(A * pi_min)) for BIRL.
    """

    c1: float
    c2: float
    model: BehaviorModel

    def __post_init__(self):
        if not (np.isfinite(self.c1) and np.isfinite(self.c2) and self.c1 > 0 and self.c2 > 0):
            raise DomainError("c1 and c2 must be finite and positive")


def default_bounded_params(model: BehaviorModel, gamma: float, num_actions: int) -> BoundedSetParams:
    """Smallest constants for which the bounded set contains the unit hypercube."""
    if model.kind == MCE:
        c = (2.0 + model.coefficient * np.log(num_actions)) / (1.0 - gamma)
    else:
        c = (1.0 + gamma) / (1.0 - gamma)
    return BoundedSetParams(c1=c, c2=c, model=model)


@dataclass(frozen=True)
class AdvantageGap:
    """Nonpositive gap table; the zero entries mark the prescribed actions."""

    values: np.ndarray

    def __post_init__(self):
        if np.any(freeze_field(self, "values", "gap values") > 0):
            raise DomainError("gap values must be nonpositive")


def check_expert(expert: PolicyTable, on, kind: str, what: str) -> np.ndarray:
    """The expert's actions; DomainError, naming the expert as `what`, unless its
    rows on `on` (a state mask or slice) fit the model kind: one-hot for OPT,
    strictly positive for MCE and BIRL."""
    if kind == OPT:
        if not expert.deterministic_rows()[on].all():
            raise DomainError(f"{what} must be deterministic")
    elif np.any(expert.probs[on] <= 0.0):
        raise DomainError(f"{what} must be strictly positive")
    return expert.actions()


def shaping(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """The shaping map v(s) - gamma * E[v(s')|s, a] of values v (..., S), as (..., S, A):
    one product with shaping_matrix, the operator the LP flow rows and t_matrix use."""
    return (v @ shaping_matrix(mdp).T).reshape(*v.shape[:-1], mdp.num_states, mdp.num_actions)


def shaping_matrix(mdp: TabularMdp) -> np.ndarray:
    """The (S*A, S) matrix 1[s' = s] - gamma * p(s'|s, a), row s*A + a (Puterman 1994, 6.9)."""
    S, A = mdp.num_states, mdp.num_actions
    mat = mdp.discount * mdp.transitions.reshape(S * A, S)
    np.subtract(0.0, mat, out=mat)  # 0 - x, as in I - x: no negative zeros
    mat[np.arange(S * A), np.repeat(np.arange(S), A)] += 1.0
    return mat


def t_operator(
    mdp: TabularMdp, det_policy: PolicyTable, v: np.ndarray, gaps: AdvantageGap
) -> RewardTable:
    """Reward with prescribed optimal values v and advantage gaps.

    r(s, a) = v(s) - gamma * E[v(s')|s, a] + gap(s, a), with a zero gap at the
    policy's action.  Running value iteration on the result recovers (v, gaps)
    and makes the policy optimal in every state.
    """
    actions = check_expert(det_policy, slice(None), OPT, "t_operator's policy")
    check_table(mdp, gaps.values, "gaps")
    if np.any(gaps.values[np.arange(mdp.num_states), actions] != 0.0):
        raise DomainError("gap at the policy's action must be exactly 0")
    return u_operator(mdp, RewardTable(gaps.values), v)


def u_operator(mdp: TabularMdp, eta: RewardTable, v: np.ndarray) -> RewardTable:
    """r(s, a) = v(s) - gamma * E[v(s')|s, a] + eta(s, a)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.num_states,):
        raise DomainError("v must be a length-S vector")
    check_table(mdp, eta.values, "eta")
    return RewardTable(shaping(mdp, v) + eta.values)


def log_policy(probs: np.ndarray, kind: str) -> np.ndarray:
    """log pi for MCE; for BIRL log(pi / max_a' pi), whose row maxima are 0."""
    logs = np.log(probs)
    return logs - np.log(probs.max(axis=1, keepdims=True)) if kind == BIRL else logs


def eta_mce(policy: PolicyTable, lam: float) -> RewardTable:
    """The soft-advantage term lam * log pi(a|s)."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    check_expert(policy, slice(None), MCE, "eta_mce's policy")
    return RewardTable(lam * log_policy(policy.probs, MCE))


def eta_birl(policy: PolicyTable, beta: float) -> RewardTable:
    """The hard-advantage term beta * log(pi(a|s) / max_a' pi(a'|s))."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    check_expert(policy, slice(None), BIRL, "eta_birl's policy")
    return RewardTable(beta * log_policy(policy.probs, BIRL))


def _optimum(mdp: TabularMdp, r: RewardTable, model: BehaviorModel) -> ValueFunctions:
    """The soft optimum of r for MCE, the hard optimum for OPT and BIRL."""
    if model.kind == MCE:
        return soft_value_iteration(mdp, r, model.coefficient)
    return value_iteration(mdp, r)


def is_feasible(
    mdp: TabularMdp,
    expert: PolicyTable,
    support: frozenset[int] | set[int],
    r: RewardTable,
    model: BehaviorModel,
    tol: float = 1e-8,
) -> bool:
    """Does the reward make the expert's behavior consistent with the model?

    OPT: the expert's action attains the optimal Q at every support state.
    MCE: the soft-optimal policy matches the expert (entrywise, within tol).
    BIRL: the Boltzmann policy of the optimal Q matches the expert.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    check_table(mdp, expert.probs, "expert")
    on = support_mask(support, mdp.num_states)
    if not on.any():
        return True
    actions = check_expert(expert, on, model.kind, f"for {model.kind.upper()} the expert on its support")
    opt = _optimum(mdp, r, model)
    if model.kind == OPT:
        return bool(np.all(opt.q[on, actions[on]] >= opt.q[on].max(axis=1) - tol))
    gap = np.abs(boltzmann_policy(opt.q, model.coefficient).probs[on] - expert.probs[on])
    return bool(gap.max() <= tol)


def is_in_bounded_set(
    mdp: TabularMdp, r: RewardTable, params: BoundedSetParams, tol: float = 1e-8
) -> bool:
    """Membership in the bounded reward set for the parameterized model.

    OPT evaluates the bounds for the lowest-index greedy optimal policy
    (value bound scaled by k_pi); MCE and BIRL bound the soft/hard optimal
    value and advantage directly.
    """
    opt = _optimum(mdp, r, params.model)
    c1_bound = params.c1 * (k_pi(mdp, greedy_policy(opt)) if params.model.kind == OPT else 1.0)
    return bool(
        np.abs(opt.v).max() <= c1_bound + tol and np.abs(opt.advantage).max() <= params.c2 + tol
    )


def bounding_box(params: BoundedSetParams, gamma: float) -> tuple[float, float]:
    """Outer box of the bounded set: [-(1+g)/(1-g) c1 - c2, +(1+g)/(1-g) c1]."""
    if not (0.0 <= gamma < 1.0):
        raise DomainError("gamma must lie in [0, 1)")
    scale = (1.0 + gamma) / (1.0 - gamma)
    return (-scale * params.c1 - params.c2, scale * params.c1)


def t_matrix(mdp: TabularMdp, det_policy: PolicyTable) -> np.ndarray:
    """The (V, A) -> r operator materialized as an SA x SA matrix.

    Rows enumerate (s, a) pairs; the first S columns carry the shaping
    coefficients on V, the remaining S(A-1) columns place the gap of each
    non-prescribed action.
    """
    actions = check_expert(det_policy, slice(None), OPT, "t_matrix's policy")
    S, A = mdp.num_states, mdp.num_actions
    mat = np.zeros((S * A, S * A))
    mat[:, :S] = shaping_matrix(mdp)
    free = np.flatnonzero(np.tile(np.arange(A), S) != np.repeat(actions, A))
    mat[free, S + np.arange(free.size)] = 1.0
    return mat
