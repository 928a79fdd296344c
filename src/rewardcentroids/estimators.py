"""Offline centroid estimation from expert trajectories.

Each estimate is the closed-form centroid applied to what the trajectories
show; `estimate` picks the estimator of a behavior model.  OPT is
`centroids.opt_table` of the visited pairs.  MCE and BIRL estimate the
expert policy from first-visit counts, clip it at a floor pi_min_prime to
keep the logs finite, and take `geometry.log_policy`; rows of unvisited
states are log(pi_min_prime).  The exact estimates (`exact_estimate`, the
infinite-data limits) are the OPT centroid itself and, for MCE and BIRL, the
same clip-and-log step on the expert's own probabilities over its support.
Sample-size requirements for each estimator are available in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .centroids import CentroidRequest, centroid, opt_table
from .errors import DomainError
from .geometry import BIRL, MCE, OPT, check_kind, log_policy
from .mdp import (
    MAX_ROLLOUT_BYTES,
    PolicyTable,
    RewardTable,
    TabularMdp,
    check_table,
    philox,
    reachable_support,
    support_mask,
    transition_matrix,
)

BLOCK = 1 << 14  # trajectories drawn or counted at once, as mclab.BLOCK samples


@dataclass(frozen=True)
class TrajectoryDataset:
    """N state-action trajectories of shared length H.

    The indices keep the integer type they are given in (uint64 becomes
    np.intp).  They are stored time-major: states and actions are (N, H)
    transposed views of read-only (H, N) arrays, so `states.T[t]` is step t
    of every trajectory.  An input is kept without a copy only when it is
    already in that type and layout and the array that owns its memory is
    read-only (as simulate_expert's buffers are); any other input, a
    read-only view of a writable array too, is copied.  A view taken while
    the owner was still writable stays writable, which numpy cannot see.
    """

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        states, actions = np.asarray(self.states), np.asarray(self.actions)
        if not (np.issubdtype(states.dtype, np.integer) and np.issubdtype(actions.dtype, np.integer)):
            raise DomainError("state/action indices must be integers (not floats or booleans)")
        if states.ndim != 2 or states.shape != actions.shape:
            raise DomainError("states and actions must be N x H integer arrays")
        if states.shape[1] < 1:
            raise DomainError("trajectories must have length >= 1")
        for name, indices in (("states", states), ("actions", actions)):
            # a type that np.intp cannot hold (uint64) is read as np.intp
            dtype = indices.dtype if np.can_cast(indices.dtype, np.intp) else np.intp
            owner = indices.base if isinstance(indices.base, np.ndarray) else indices
            keep = np.array if owner.flags.writeable else np.asarray  # np.array always copies
            time_major = keep(indices.T, dtype=dtype, order="C")
            if time_major.size and time_major.min() < 0:
                raise DomainError("state/action indices must be nonnegative")
            time_major.setflags(write=False)
            object.__setattr__(self, name, time_major.T)

    @property
    def num_trajectories(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]


def _check_dims(data: TrajectoryDataset, dims: tuple[int, int]) -> tuple[int, int]:
    S, A = dims
    if S < 1 or A < 1:
        raise DomainError("dims must be positive")
    if data.states.max() >= S or data.actions.max() >= A:
        raise DomainError("trajectory index out of range for the given dims")
    return S, A


def _blocks(data: TrajectoryDataset):
    """Time-major (h, block) states and actions of blocks of at most BLOCK trajectories."""
    states, actions = data.states.T, data.actions.T
    for lo in range(0, data.num_trajectories, BLOCK):
        yield states[:, lo : lo + BLOCK], actions[:, lo : lo + BLOCK]


def _pairs(states: np.ndarray, actions: np.ndarray, A: int) -> np.ndarray:
    """Pair indices s·A + a, in np.intp whatever the indices' own type."""
    return states.astype(np.intp) * A + actions


def _candidates(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns a draw can land on in each CDF row, for `_draw`.

    A draw u lands on the first column whose cdf is >= u: column 0 or a
    column where the row rises.  Returns `values` (K, rows), the given cdf
    entries at those columns (not re-summed) padded with 2.0, and `idx`
    (rows, K + 1), the columns padded with the last column W - 1, where a
    draw above a row's final cdf lands (a row may sum to just below 1).
    """
    num_rows, width = cdf.shape
    lands = np.ones((num_rows, width), dtype=bool)
    lands[:, 1:] = cdf[:, 1:] > cdf[:, :-1]
    k = int(lands.sum(axis=1).max())
    cols = np.argsort(~lands, axis=1, kind="stable")[:, :k]
    real = np.take_along_axis(lands, cols, axis=1)
    values = np.where(real, np.take_along_axis(cdf, cols, axis=1), 2.0).T.copy()
    idx = np.full((num_rows, k + 1), width - 1, dtype=np.int64)
    idx[:, :k][real] = cols[real]
    return values, idx


def _draw(values: np.ndarray, idx: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column drawn by u in each given row: min(#{cdf < u}, W - 1).

    Counts only the candidate columns below u and looks the count up in
    `idx`.  A column left out lies on a flat stretch of its row, so it is
    never the first column at or above u: the lookup gives the same column
    as the full count, bit for bit.
    """
    rows = rows.astype(np.intp, copy=False)  # once, not in every column's take
    flat = rows * idx.shape[1]  # idx.ravel() offset of each row's first candidate
    for column in values:
        flat += column.take(rows) < u
    return idx.ravel().take(flat)


def check_rollout_size(mdp: TabularMdp, n: int, h: int, names: str = "n, h") -> None:
    """DomainError, naming the inputs `names`, when n trajectories of length h
    need more than MAX_ROLLOUT_BYTES.

    The estimate counts simulate_expert's (h, n) state and action buffers
    twice and adds 32 bytes a trajectory for one step's float64 draws and
    intp indices.  The rollout holds its buffers once, hands them to the
    dataset without a copy and draws in blocks of BLOCK trajectories, so
    the count bounds its peak with a margin: one copy of the buffers plus
    under 1 MiB however large n is (29.2 MiB for a 28.6 MiB rollout of
    n = 100,000, h = 100 on a 10x10 grid, under tracemalloc).
    """
    S, A = mdp.num_states, mdp.num_actions
    step = np.min_scalar_type(S * A).itemsize + np.min_scalar_type(A).itemsize
    size = n * (2 * h * step + 32)
    if size > MAX_ROLLOUT_BYTES:
        raise DomainError(
            f"{n:,} trajectories of {h:,} steps ({names}) need {size / 2**20:,.0f} MiB "
            f"of trajectory buffers, over the {MAX_ROLLOUT_BYTES // 2**20} MiB limit"
        )


def simulate_expert(
    mdp: TabularMdp, expert: PolicyTable, n: int, h: int, seed: int
) -> TrajectoryDataset:
    """Roll out n i.i.d. length-h trajectories of the expert from the initial state.

    Deterministic given (seed, n, h); the sampler draws from a single
    counter-based stream in a fixed order (the actions at t, then the states
    at t + 1), so the result does not depend on how the work is scheduled.
    Each draw is compared only with the columns of its CDF row that it can
    land on (`_candidates`), which picks the same index as comparing it
    with the whole row.  Each step is drawn in consecutive blocks of at most
    BLOCK trajectories, which consume the stream as one draw of n would.
    The rollout fills compact time-major (h, n) buffers of the smallest
    unsigned type that holds their indices (for states, also every pair
    index s·A + a), marks them read-only and hands them to the dataset
    without a copy.
    """
    if n < 1 or h < 1:
        raise DomainError("n and h must be >= 1")
    check_rollout_size(mdp, n, h)
    check_table(mdp, expert.probs, "expert")
    S, A = mdp.num_states, mdp.num_actions
    rng = np.random.Generator(philox(seed))
    policy = _candidates(np.cumsum(expert.probs, axis=1))
    trans = _candidates(np.cumsum(mdp.transitions, axis=2).reshape(S * A, S))
    states = np.empty((h, n), dtype=np.min_scalar_type(S * A))  # also holds s·A + a
    actions = np.empty((h, n), dtype=np.min_scalar_type(A))
    states[0] = mdp.initial_state
    blocks = [slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK)]
    for t in range(h):
        for b in blocks:
            rows = states[t, b]
            actions[t, b] = _draw(*policy, rows, rng.random(rows.size))
        if t + 1 < h:
            for b in blocks:
                rows = _pairs(states[t, b], actions[t, b], A)
                states[t + 1, b] = _draw(*trans, rows, rng.random(rows.size))
    states.setflags(write=False)
    actions.setflags(write=False)
    return TrajectoryDataset(states=states.T, actions=actions.T)


def first_visit_counts(data: TrajectoryDataset, dims: tuple[int, int]) -> np.ndarray:
    """The (S, A) int64 table of trajectories whose first visit to s played a.

    Later visits within a trajectory are not counted: the estimators'
    analysis holds for first visits only.  Works through blocks of at most
    BLOCK trajectories one step at a time, so its temporaries do not grow
    with n.
    """
    S, A = _check_dims(data, dims)
    nsa = np.zeros(S * A, dtype=np.int64)
    for s_block, a_block in _blocks(data):
        row_start = np.arange(s_block.shape[1]) * S
        visited = np.zeros(row_start.size * S, dtype=bool)  # (block, S) table, raveled
        for s_t, a_t in zip(s_block, a_block):
            key = row_start + s_t
            first = ~visited.take(key)
            visited[key] = True
            nsa += np.bincount(_pairs(s_t[first], a_t[first], A), minlength=S * A)
    return nsa.reshape(S, A)


def estimate_opt(data: TrajectoryDataset, dims: tuple[int, int]) -> RewardTable:
    """OPT centroid estimate: 1 on visited pairs, 1/A on unvisited states, else 0."""
    S, A = _check_dims(data, dims)
    visited_pair = np.zeros(S * A, dtype=bool)
    for s_block, a_block in _blocks(data):
        for s_t, a_t in zip(s_block, a_block):  # one step of the block at a time
            visited_pair[_pairs(s_t, a_t, A)] = True
    return opt_table(visited_pair.reshape(S, A))


def _check_pi_min_prime(pi_min_prime: float) -> None:
    if not (0.0 < pi_min_prime < 1.0):
        raise DomainError("pi_min_prime must lie in (0, 1)")


DEFAULT_PI_MIN_PRIME = 1e-6


def _clipped_log(probs: np.ndarray, visited: np.ndarray, pi_min_prime: float, kind: str) -> RewardTable:
    """log_policy of probs clipped at pi_min_prime; unvisited states' rows are log(pi_min_prime)."""
    values = log_policy(np.maximum(pi_min_prime, probs), kind)
    values[~visited] = np.log(pi_min_prime)
    return RewardTable(values)


def _estimate_log(
    data: TrajectoryDataset, dims: tuple[int, int], pi_min_prime: float, kind: str
) -> RewardTable:
    _check_pi_min_prime(pi_min_prime)
    nsa = first_visit_counts(data, dims)
    ns = nsa.sum(axis=1)
    freq = nsa / np.maximum(1, ns)[:, None]
    if np.any((nsa > 0) & (freq < pi_min_prime)):
        warnings.warn(
            "observed action frequencies below pi_min_prime; the estimation "
            "guarantee assumes the true policy stays above the floor",
            stacklevel=3,
        )
    return _clipped_log(freq, ns > 0, pi_min_prime, kind)


def estimate_mce(
    data: TrajectoryDataset, dims: tuple[int, int], pi_min_prime: float = DEFAULT_PI_MIN_PRIME
) -> RewardTable:
    """Log of the clipped empirical policy."""
    return _estimate_log(data, dims, pi_min_prime, MCE)


def estimate_birl(
    data: TrajectoryDataset, dims: tuple[int, int], pi_min_prime: float = DEFAULT_PI_MIN_PRIME
) -> RewardTable:
    """Row-max-normalized log of the clipped empirical policy."""
    return _estimate_log(data, dims, pi_min_prime, BIRL)


def estimate(
    data: TrajectoryDataset, dims: tuple[int, int], kind: str, pi_min_prime: float = DEFAULT_PI_MIN_PRIME
) -> RewardTable:
    """The estimator of the behavior model `kind`; OPT takes no floor."""
    # An if-chain, not a dict built at import: the per-kind names are looked
    # up at call time, so wrappers installed over them see these calls too.
    if kind == OPT:
        return estimate_opt(data, dims)
    if kind == MCE:
        return estimate_mce(data, dims, pi_min_prime)
    if kind == BIRL:
        return estimate_birl(data, dims, pi_min_prime)
    check_kind(kind)  # raises: no behavior model has this kind


def exact_estimate(
    expert: PolicyTable,
    support: frozenset[int] | set[int],
    kind: str,
    pi_min_prime: float = DEFAULT_PI_MIN_PRIME,
) -> RewardTable:
    """Infinite-data limit of `estimate` for a known expert visiting exactly support.

    For OPT this is the closed-form centroid itself.
    """
    if check_kind(kind) == OPT:
        return centroid(CentroidRequest(expert, support, OPT))
    _check_pi_min_prime(pi_min_prime)
    return _clipped_log(expert.probs, support_mask(support, expert.probs.shape[0]), pi_min_prime, kind)


def p_min_h(mdp: TabularMdp, expert: PolicyTable, h: int) -> float:
    """Minimum visit probability over the support within the first h states.

    A length-h trajectory holds states s_1 .. s_h with s_1 fixed at the
    initial state, so h - 1 transition steps are taken.  For each support
    state the chain is made absorbing there and the absorbed mass after the
    h - 1 steps is read off; the minimum over the support is returned.
    """
    if h < 1:
        raise DomainError("h must be >= 1")
    chain = transition_matrix(mdp, expert)
    best = 1.0
    for s in sorted(reachable_support(mdp, expert)):
        if s == mdp.initial_state:
            continue
        absorbing = chain.copy()
        absorbing[s, :] = 0.0
        absorbing[s, s] = 1.0
        x = np.zeros(mdp.num_states)
        x[mdp.initial_state] = 1.0
        for _ in range(h - 1):
            x = x @ absorbing
        best = min(best, float(x[s]))
    return best


def sample_bound(
    kind: str,
    *,
    num_states: int,
    num_actions: int,
    support_size: int,
    delta: float,
    p_min: float,
    horizon: int,
    eps: float | None = None,
    pi_min_prime: float | None = None,
) -> int:
    """Trajectory count guaranteeing the estimator's accuracy statement.

    OPT recovers the centroid exactly with probability 1 - delta; MCE and
    BIRL reach sup-norm error eps.  Requires horizon >= num_states, which is
    what makes every support state reachable within one trajectory.
    """
    if min(support_size, num_states, num_actions) < 1:
        raise DomainError("support_size, num_states and num_actions must be >= 1")
    if horizon < num_states:
        raise DomainError("horizon must be at least the number of states")
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie in (0, 1)")
    if not (0.0 < p_min <= 1.0):
        raise DomainError("p_min must lie in (0, 1]")
    if check_kind(kind) == OPT:
        n = math.log(support_size / delta) / p_min
    else:
        if eps is None or not (0.0 < eps <= 1.0):
            raise DomainError("eps must lie in (0, 1]")
        if pi_min_prime is None or not (0.0 < pi_min_prime < 1.0):
            raise DomainError("pi_min_prime must lie in (0, 1)")
        sa = num_states * num_actions
        if kind == MCE:
            n = 16.0 * math.log(4.0 * sa / delta) ** 2 / (eps**2 * pi_min_prime * p_min)
        else:
            n = 33.0 * math.log(8.0 * sa / delta) ** 2 / (eps**2 * pi_min_prime * p_min)
    return max(1, math.ceil(n))
