"""Finite MDPs without reward and their dynamic-programming primitives.

The environment is a tuple (states, actions, initial state, transition
tensor, discount).  Everything downstream (feasible-set geometry, centroids,
planning) is built on the operations here: the exact and the soft optimum by
(soft) policy iteration, policy evaluation as a dense linear solve, occupancy
measures from the flow equations, reachability, and the per-policy
normalizer derived from det(I - gamma * P_pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainError, SolverError

ROW_SUM_ATOL = 1e-12
GREEDY_RTOL = 1e-9  # q ties: q >= max q - GREEDY_RTOL * (1 + |max q|)
MAX_POLICY_ITERATIONS = 1000


def philox(seed: int) -> np.random.Philox:
    """The Philox bit generator keyed by seed, which must lie in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise DomainError("seed must lie in [0, 2**128)")
    return np.random.Philox(key=seed)


def check_positive(value, name: str) -> float:
    """value as a float; DomainError, naming it, unless it is a finite positive number."""
    if not (isinstance(value, Real) and 0 < value < np.inf):  # NaN fails both comparisons
        raise DomainError(f"{name} must be finite and positive, not {value!r}")
    return float(value)


def freeze_field(obj, field: str, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Set obj.field, on a frozen dataclass, to a read-only float copy that has
    the given shape (else two axes) and finite entries; returns the copy."""
    arr = np.array(getattr(obj, field), dtype=float, order="C")
    if shape is None and arr.ndim != 2:
        raise DomainError(f"{name} must be a 2-d table")
    if shape is not None and arr.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP without reward.

    transitions[s, a, s'] is the probability of moving to s' when playing a
    in s.  Rows must be probability distributions and 0 <= discount < 1.
    """

    num_states: int
    num_actions: int
    initial_state: int
    transitions: np.ndarray
    discount: float

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise DomainError("num_states and num_actions must be positive")
        if not (0 <= self.initial_state < self.num_states):
            raise DomainError("initial_state out of range")
        if not (0.0 <= self.discount < 1.0):
            raise DomainError("discount must lie in [0, 1)")
        shape = (self.num_states, self.num_actions, self.num_states)
        p = freeze_field(self, "transitions", "transitions", shape)
        if np.any(p < 0):
            raise DomainError("transitions contain negative probabilities")
        if np.any(np.abs(p.sum(axis=2) - 1.0) > ROW_SUM_ATOL):
            raise DomainError("each (s, a) transition row must sum to 1")


@dataclass(frozen=True)
class RewardTable:
    """Dense S x A reward table."""

    values: np.ndarray

    def __post_init__(self):
        freeze_field(self, "values", "reward values")


@dataclass(frozen=True)
class PolicyTable:
    """Dense stochastic policy; rows are distributions over actions."""

    probs: np.ndarray

    def __post_init__(self):
        arr = freeze_field(self, "probs", "policy probs")
        if np.any(arr < 0):
            raise DomainError("policy probs must be nonnegative")
        if np.any(np.abs(arr.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
            raise DomainError("each policy row must sum to 1")

    @classmethod
    def from_actions(cls, actions, num_actions: int) -> "PolicyTable":
        """Deterministic policy from a vector of action indices."""
        actions = np.asarray(actions, dtype=int)
        probs = np.zeros((actions.size, num_actions))
        probs[np.arange(actions.size), actions] = 1.0
        return cls(probs)

    def deterministic_rows(self) -> np.ndarray:
        """Per state, whether the row is one-hot (one entry exactly 1.0)."""
        return (self.probs == 1.0).sum(axis=1) == 1

    def actions(self) -> np.ndarray:
        """Row-wise argmax (lowest index on ties)."""
        return np.argmax(self.probs, axis=1)


@dataclass(frozen=True)
class ValueFunctions:
    """Values v, q and advantage q - v of a policy, or of the hard or soft optimum."""

    v: np.ndarray
    q: np.ndarray
    advantage: np.ndarray


@dataclass(frozen=True)
class OccupancyMeasure:
    """Discounted state-action visitation distribution; sums to 1."""

    d: np.ndarray

    def __post_init__(self):
        arr = freeze_field(self, "d", "occupancy")
        if np.any(arr < 0):
            raise DomainError("occupancy must be nonnegative")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise DomainError("occupancy must sum to 1")

    def state_marginal(self) -> np.ndarray:
        return self.d.sum(axis=1)


def check_table(mdp: TabularMdp, table: np.ndarray, name: str) -> None:
    """DomainError unless the table is S x A for the MDP."""
    if table.shape != (mdp.num_states, mdp.num_actions):
        raise DomainError(
            f"{name} has shape {table.shape}, expected "
            f"{(mdp.num_states, mdp.num_actions)}"
        )


def support_mask(support, num_states: int) -> np.ndarray:
    """Per state, whether it is in the support; DomainError for a state outside [0, num_states)."""
    states = [int(s) for s in support]
    if any(not 0 <= s < num_states for s in states):
        raise DomainError("support state out of range")
    mask = np.zeros(num_states, dtype=bool)
    mask[states] = True
    return mask


def expected_next_values(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """E[v(s') | s, a] as an S x A table: one product with the (S*A) x S view of P."""
    S, A = mdp.num_states, mdp.num_actions
    return (mdp.transitions.reshape(S * A, S) @ v).reshape(S, A)


def _greedy_actions(q: np.ndarray, current: np.ndarray | None = None) -> np.ndarray:
    """The one tie rule: per row, the current action while it is greedy, else
    the lowest-index action within GREEDY_RTOL of the row maximum."""
    top = q.max(axis=1, keepdims=True)
    greedy = q >= top - GREEDY_RTOL * (1.0 + np.abs(top))
    actions = np.argmax(greedy, axis=1)
    if current is None:
        return actions
    return np.where(greedy[np.arange(q.shape[0]), current], current, actions)


def value_iteration(mdp: TabularMdp, r: RewardTable) -> ValueFunctions:
    """Exact Bellman optimum by modified policy iteration (Puterman & Shin 1978;
    Puterman 1994, 6.5).

    From q = r, Bellman sweeps q <- r + gamma P max_a q run until the row-wise
    argmax of q stops changing, for at most S sweeps.  Howard's steps then
    start from the greedy actions of that q: solve (I - gamma P_pi) v = r_pi,
    take q = r + gamma P v and improve greedily until no action changes, so
    the last exact evaluation certifies the optimum.  Returns that q and
    v = max_a q, so the advantage has a zero row-wise maximum.
    """
    check_table(mdp, r.values, "reward")
    S, A = mdp.num_states, mdp.num_actions
    rows = np.arange(S)
    q = r.values
    best = q.argmax(axis=1)
    for _ in range(S):
        q = r.values + mdp.discount * expected_next_values(mdp, q[rows, best])  # max_a q
        best, previous = q.argmax(axis=1), best
        if (best == previous).all():
            break
    actions = _greedy_actions(q)
    eye, flat = np.eye(S), mdp.transitions.reshape(S * A, S)
    for _ in range(MAX_POLICY_ITERATIONS):
        w = eye - mdp.discount * flat[rows * A + actions]
        q = r.values + mdp.discount * expected_next_values(
            mdp, np.linalg.solve(w, r.values[rows, actions])
        )
        improved = _greedy_actions(q, actions)
        if np.array_equal(improved, actions):
            v = q.max(axis=1)
            return ValueFunctions(v=v, q=q, advantage=q - v[:, None])
        actions = improved
    raise SolverError(f"policy iteration did not stop within {MAX_POLICY_ITERATIONS} steps")


def _log_softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log softmax(x), logsumexp(x)), both shifted by the row maximum.

    With z = x - max x the log-policy is z - log sum exp z, whose exp sums to
    1 within rounding; x - logsumexp(x) leaves row sums off by ~1e-13.
    """
    m = x.max(axis=1, keepdims=True)
    z = x - m
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z - log_norm, (m + log_norm)[:, 0]


def soft_value_iteration(mdp: TabularMdp, r: RewardTable, lam: float) -> ValueFunctions:
    """Entropy-regularized optimality fixed point, v = lam * logsumexp(q / lam).

    Soft policy iteration, Newton's method on the soft Bellman equation
    (Puterman & Brumelle 1979; Geist et al. 2019): from pi = softmax(r / lam),
    evaluate pi exactly on the reward r - lam log pi, take q = r + gamma P v
    and improve to pi = softmax(q / lam).  It stops once the soft backup moves
    v by no more than the solve's rounding level, 4 S eps (1 + max |v|).
    The soft-optimal policy is boltzmann_policy(q, lam).
    """
    check_positive(lam, "lam")
    check_table(mdp, r.values, "reward")
    stop = 4.0 * mdp.num_states * np.finfo(float).eps
    log_pi, _ = _log_softmax_rows(r.values / lam)
    for _ in range(MAX_POLICY_ITERATIONS):
        vf = policy_evaluation(mdp, PolicyTable(np.exp(log_pi)), RewardTable(r.values - lam * log_pi))
        q = vf.q + lam * log_pi
        log_pi, log_norm = _log_softmax_rows(q / lam)
        v = lam * log_norm
        if np.abs(v - vf.v).max() <= stop * (1.0 + np.abs(v).max()):
            return ValueFunctions(v=v, q=q, advantage=q - v[:, None])
    raise SolverError(f"soft policy iteration did not stop within {MAX_POLICY_ITERATIONS} steps")


def transition_matrix(mdp: TabularMdp, policy: PolicyTable) -> np.ndarray:
    """State-to-state chain P_pi(s, s') = sum_a pi(a|s) p(s'|s, a)."""
    check_table(mdp, policy.probs, "policy")
    return np.einsum("sa,sap->sp", policy.probs, mdp.transitions)


def w_matrix(mdp: TabularMdp, policy: PolicyTable) -> np.ndarray:
    """I - gamma * P_pi; always invertible for gamma < 1."""
    return np.eye(mdp.num_states) - mdp.discount * transition_matrix(mdp, policy)


def policy_evaluation(mdp: TabularMdp, policy: PolicyTable, r: RewardTable) -> ValueFunctions:
    """Exact v^pi via the dense linear solve W_pi v = r^pi."""
    check_table(mdp, r.values, "reward")
    r_pi = (policy.probs * r.values).sum(axis=1)
    v = np.linalg.solve(w_matrix(mdp, policy), r_pi)
    q = r.values + mdp.discount * expected_next_values(mdp, v)
    return ValueFunctions(v=v, q=q, advantage=q - v[:, None])


def occupancy_measure(mdp: TabularMdp, policy: PolicyTable) -> OccupancyMeasure:
    """Solve the flow equations for the discounted state-action visitation."""
    e0 = np.zeros(mdp.num_states)
    e0[mdp.initial_state] = 1.0 - mdp.discount
    d_state = np.linalg.solve(w_matrix(mdp, policy).T, e0)
    d = np.maximum(d_state[:, None] * policy.probs, 0.0)
    return OccupancyMeasure(d=d)


def reachable_support(mdp: TabularMdp, policy: PolicyTable) -> frozenset[int]:
    """States reachable from the initial state with positive probability.

    Uses exact zero tests on policy and transition entries, matching the
    support semantics of the visitation distribution.
    """
    check_table(mdp, policy.probs, "policy")
    seen = {mdp.initial_state}
    frontier = [mdp.initial_state]
    while frontier:
        s = frontier.pop()
        edge = (policy.probs[s][:, None] * mdp.transitions[s]) > 0.0
        for s_next in np.flatnonzero(edge.any(axis=0)):
            if int(s_next) not in seen:
                seen.add(int(s_next))
                frontier.append(int(s_next))
    return frozenset(seen)


def k_pi(mdp: TabularMdp, policy: PolicyTable) -> float:
    """|det(W_pi)|^(-1/S), the bounded-set normalizer for the policy."""
    sign, logabsdet = np.linalg.slogdet(w_matrix(mdp, policy))
    if sign == 0:
        raise DomainError("W matrix is singular; discount must be < 1")
    return float(np.exp(-logabsdet / mdp.num_states))


def boltzmann_policy(q: np.ndarray, temperature: float) -> PolicyTable:
    """Row-wise softmax of q / temperature, overflow-safe."""
    check_positive(temperature, "temperature")
    log_pi, _ = _log_softmax_rows(np.asarray(q, dtype=float) / temperature)
    return PolicyTable(np.exp(log_pi))


def greedy_policy(vf: ValueFunctions) -> PolicyTable:
    """Deterministic greedy policy; ties within GREEDY_RTOL go to the lowest index."""
    return PolicyTable.from_actions(_greedy_actions(vf.q), vf.q.shape[1])


def random_mdp(
    num_states: int,
    num_actions: int,
    discount: float,
    rng: np.random.Generator,
    initial_state: int = 0,
) -> TabularMdp:
    """Dense random instance with Dirichlet transition rows."""
    transitions = rng.dirichlet(
        np.ones(num_states), size=(num_states, num_actions)
    )
    return TabularMdp(
        num_states=num_states,
        num_actions=num_actions,
        initial_state=initial_state,
        transitions=transitions,
        discount=discount,
    )
