"""Monte-Carlo and analytic instruments for the reward-set geometry claims.

The estimators here are the package's independent oracles: hypercube volume
fractions of feasible sets, exact 1-d segment lengths, rejection-sampled
centroids of the bounded sets, manifold-parameterized centroids, and the
cross-environment bias ratio.  Membership never runs per-sample value
iteration: a fixed policy's values and advantages are linear in the reward,
so each policy becomes two fixed matrices (its values, and its advantages
at the free, non-prescribed pairs) applied to a column-laid batch.
The bounded-set oracles build each deterministic policy's maps once per call
and its gap once per batch, flagging the policies that must be optimal.
A block's other work is dense products too: shaping_matrix for the shaping
operator, and the centroid sums over a flat (k, S*A) view.

Sampling is chunked; chunk i of CHUNK samples draws from an independent
counter-derived substream of the seed, so estimates depend only on (seed, n)
no matter how chunks are scheduled.  Within a chunk the samples are drawn
and tested in consecutive blocks of at most BLOCK, so an oracle's
temporaries stay cache-sized.  Consecutive uniform draws give exactly the
values of one draw of their total size: the uniform-box oracles accept the
same samples as whole-chunk draws would, and only the summation order of
the centroid means follows the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .geometry import OPT, BehaviorModel, BoundedSetParams, bounding_box, check_expert, shaping
from .mdp import (PolicyTable, RewardTable, TabularMdp, check_positive, check_table, k_pi, philox,
                  support_mask, w_matrix)

CHUNK = 1 << 17
BLOCK = 1 << 14  # samples drawn and tested at once within a chunk
MAX_ENUMERATED_POLICIES = 4096
BOUNDED_SET_TOL = 1e-9  # slack of _bounded_opt_mask's optimality and bound tests
BIAS_RATIO_GAMMA = 0.999  # discount of both new_env_bias_ratio environments


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo mean with its standard error and acceptance bookkeeping."""

    mean: float | np.ndarray
    std_error: float | np.ndarray
    n_samples: int
    n_accepted: int


def _draws(draw, n: int, seed: int):
    """draw(rng, size) on blocks of at most BLOCK samples; chunk i of CHUNK uses substream i of the seed."""
    if n < 1:
        raise DomainError("n must be >= 1")
    stream = philox(seed)
    for i, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.Generator(stream.jumped(i))
        stop = min(start + CHUNK, n)
        for lo in range(start, stop, BLOCK):
            yield draw(rng, min(BLOCK, stop - lo))


def _uniform_box(mdp: TabularMdp, box: tuple[float, float]):
    """A draw of reward tables with every entry uniform in the box."""
    lo, hi = box
    shape = (mdp.num_states, mdp.num_actions)
    return lambda rng, size: rng.uniform(lo, hi, size=(size, *shape))


def _bernoulli_fraction(draw, hit, n: int, seed: int) -> McEstimate:
    """Share of n draws for which hit holds, with its binomial standard error."""
    hits = sum(int(hit(rewards).sum()) for rewards in _draws(draw, n, seed))
    mean = hits / n
    return McEstimate(
        mean=mean,
        std_error=float(np.sqrt(mean * (1.0 - mean) / n)),
        n_samples=n,
        n_accepted=hits,
    )


def _accumulating_centroid(mdp: TabularMdp, draw, n: int, seed: int, accept=None) -> McEstimate:
    """Mean of the draws that accept keeps (all of them without accept), with its standard error."""
    S, A = mdp.num_states, mdp.num_actions
    total = np.zeros((S, A))
    total_sq = np.zeros((S, A))
    accepted = 0
    for rewards in _draws(draw, n, seed):
        picked = rewards if accept is None else rewards[accept(rewards)]
        flat = picked.reshape(picked.shape[0], S * A)
        accepted += flat.shape[0]
        total += (np.ones(flat.shape[0]) @ flat).reshape(S, A)
        total_sq += np.einsum("ij,ij->j", flat, flat).reshape(S, A)
    if accepted == 0:
        nan = np.full((S, A), np.nan)
        return McEstimate(mean=nan, std_error=nan.copy(), n_samples=n, n_accepted=0)
    mean = total / accepted
    var = np.maximum(total_sq / accepted - mean**2, 0.0)
    if accepted > 1:
        var *= accepted / (accepted - 1)
    return McEstimate(
        mean=mean,
        std_error=np.sqrt(var / accepted),
        n_samples=n,
        n_accepted=accepted,
    )


class _PolicyEvaluator:
    """Exact membership tests for one deterministic policy, as fixed linear maps.

    Over the flattened reward r (index s*A + a), v = value_map @ r and the
    advantages q - v at the free (non-prescribed) pairs are gap_map @ r.
    value_map (S, S*A) holds inv(I - gamma P_pi) in the prescribed pairs'
    columns, zeros elsewhere; gap_map (S*(A-1), S*A) is the free pairs' rows,
    in pair order, of I + gamma P value_map minus value_map repeated per
    action.  A prescribed pair's advantage is 0 identically (Bellman row) and
    adds only 0 to a max, so it has no row.  A batch of n rewards is tested
    as the columns of an (S*A, n) view, one matmul per map.
    """

    def __init__(self, mdp: TabularMdp, actions: np.ndarray):
        S, A = mdp.num_states, mdp.num_actions
        policy = PolicyTable.from_actions(actions, A)
        prescribed = np.arange(S) * A + policy.actions()
        free = np.flatnonzero(np.tile(np.arange(A), S) != np.repeat(policy.actions(), A))
        self.value_map = np.zeros((S, S * A))
        self.value_map[:, prescribed] = np.linalg.inv(w_matrix(mdp, policy))
        self.gap_map = (
            np.eye(S * A)[free]
            + mdp.discount * mdp.transitions.reshape(S * A, S)[free] @ self.value_map
            - self.value_map[free // A]
        )
        if A == 1:  # no free pair: one zero row reads every sample as optimal
            self.gap_map = np.zeros((1, S * A))
        self.k_pi = k_pi(mdp, policy)

    def optimal_mask(self, rewards: np.ndarray) -> np.ndarray:
        r = rewards.reshape(rewards.shape[0], -1).T
        return (self.gap_map @ r).max(axis=0) <= 0.0


def _all_policies(mdp: TabularMdp) -> tuple[np.ndarray, list[_PolicyEvaluator]]:
    """Every deterministic policy: its action rows (lexicographic) and evaluators."""
    if mdp.num_actions**mdp.num_states > MAX_ENUMERATED_POLICIES:
        raise DomainError("instance too large for exhaustive policy enumeration")
    rows = np.array(list(itertools.product(range(mdp.num_actions), repeat=mdp.num_states)))
    return rows, [_PolicyEvaluator(mdp, actions) for actions in rows]


def _bounded_opt_mask(
    evaluators: list[_PolicyEvaluator],
    rewards: np.ndarray,
    c1: float,
    c2: float,
    wanted: np.ndarray | None = None,
) -> np.ndarray:
    """Membership in the bounded OPT set, enumerating every deterministic policy.

    With wanted (one flag per evaluator), some wanted policy must also be
    optimal exactly, max gap <= 0.0 as in optimal_mask.
    """
    n = rewards.shape[0]
    r = rewards.reshape(n, -1).T
    violated = np.zeros(n, dtype=bool)
    any_optimal = np.zeros(n, dtype=bool)
    wanted_optimal = np.zeros(n, dtype=bool)
    for i, ev in enumerate(evaluators):
        gap = ev.gap_map @ r
        worst = gap.max(axis=0)
        if wanted is not None and wanted[i]:
            wanted_optimal |= worst <= 0.0
        optimal = worst <= BOUNDED_SET_TOL
        bounded = np.abs(ev.value_map @ r).max(axis=0) <= c1 * ev.k_pi + BOUNDED_SET_TOL
        # Only optimal samples reach `violated`, and their gaps are at most
        # the tolerance <= c2 + tol; there this is |gap|.max() <= c2 + tol.
        bounded &= gap.min(axis=0) >= -(c2 + BOUNDED_SET_TOL)
        violated |= optimal & ~bounded
        any_optimal |= optimal
    mask = any_optimal & ~violated
    return mask if wanted is None else mask & wanted_optimal


def _bounded_opt_test(params: BoundedSetParams, evaluators: list[_PolicyEvaluator], wanted=None):
    """_bounded_opt_mask under the params' constants; the oracles sample the OPT bounded set only."""
    if params.model.kind != OPT:
        raise DomainError(f"the bounded-set oracles take OPT params, not {params.model.kind.upper()}")
    return partial(_bounded_opt_mask, evaluators, c1=params.c1, c2=params.c2, wanted=wanted)


def mc_volume_fraction(
    mdp: TabularMdp,
    policy: PolicyTable,
    model: BehaviorModel,
    box: tuple[float, float],
    n: int,
    seed: int,
    params: BoundedSetParams | None = None,
) -> McEstimate:
    """Fraction of a uniform sample of the box that makes the policy optimal.

    Only the OPT model carries full-dimensional feasible sets, so only OPT is
    accepted here.  With (OPT) params supplied, membership in the bounded set is
    required as well.
    """
    if model.kind != OPT:
        raise DomainError("volume fractions are defined for the OPT model only")
    check_positive(box[1] - box[0], "the box width hi - lo")
    actions = check_expert(policy, slice(None), OPT, "a volume fraction's policy")
    check_table(mdp, policy.probs, "policy")
    if params is None:
        hit = _PolicyEvaluator(mdp, actions).optimal_mask
    else:
        rows, evaluators = _all_policies(mdp)
        hit = _bounded_opt_test(params, evaluators, wanted=(rows == actions).all(axis=1))
    return _bernoulli_fraction(_uniform_box(mdp, box), hit, n, seed)


def segment_volume_1d(policy: PolicyTable, model: BehaviorModel, box_halfwidth: float) -> float:
    """Exact length of the 1-d MCE/BIRL feasible line inside a centered box.

    On the single-state two-action instance (any discount) the feasible set
    is the line r(a1) = r(a2) + coef * log(pi(a1)/pi(a2)); the returned value
    is the length of its intersection with the box, measured along the r(a2)
    axis.
    """
    if policy.probs.shape != (1, 2):
        raise DomainError(f"policy has shape {policy.probs.shape}, expected (1, 2)")
    if model.kind == OPT:
        raise DomainError("segment volume applies to MCE/BIRL only")
    b = check_positive(box_halfwidth, "box_halfwidth")
    check_expert(policy, slice(None), model.kind, "a segment volume's policy")
    p = policy.probs[0]
    shift = model.coefficient * float(np.log(p[0]) - np.log(p[1]))
    length = min(b, b - shift) - max(-b, -b - shift)
    return max(0.0, float(length))


def mc_centroid_opt(
    mdp: TabularMdp,
    expert: PolicyTable,
    support: frozenset[int] | set[int],
    params: BoundedSetParams,
    n: int,
    seed: int,
) -> McEstimate:
    """Rejection-sampled mean of the bounded OPT set cut to the expert's feasible set.

    Samples uniformly in the outer bounding box; a draw is accepted when it
    lies in the bounded set and some deterministic completion of the expert
    is optimal everywhere.  Zero acceptance is reported, not raised.
    """
    check_table(mdp, expert.probs, "expert")
    on = support_mask(support, mdp.num_states)
    actions = check_expert(expert, on, OPT, "mc_centroid_opt's expert on its support")
    box = bounding_box(params, mdp.discount)
    rows, evaluators = _all_policies(mdp)
    accept = _bounded_opt_test(params, evaluators, wanted=(rows[:, on] == actions[on]).all(axis=1))
    return _accumulating_centroid(mdp, _uniform_box(mdp, box), n, seed, accept)


def mc_centroid_prior(
    mdp: TabularMdp, params: BoundedSetParams, n: int, seed: int
) -> McEstimate:
    """Mean of the bounded OPT set alone (no feasibility predicate)."""
    box = bounding_box(params, mdp.discount)
    accept = _bounded_opt_test(params, _all_policies(mdp)[1])
    return _accumulating_centroid(mdp, _uniform_box(mdp, box), n, seed, accept)


def mc_centroid_manifold(
    mdp: TabularMdp, eta: RewardTable, c1: float, n: int, seed: int
) -> McEstimate:
    """Average of the shaping operator over uniform values; converges to eta.

    Parameterizes the (MCE/BIRL) feasible manifold by the value vector and
    averages r = V(s) - gamma E[V(s')|s,a] + eta(s,a) with V uniform in
    [-c1, +c1]^S; linearity makes eta the exact mean.
    """
    check_positive(c1, "c1")
    check_table(mdp, eta.values, "eta")

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return shaping(mdp, rng.uniform(-c1, c1, size=(size, mdp.num_states))) + eta.values

    return _accumulating_centroid(mdp, draw, n, seed)


def fig_two_state_chain(gamma: float) -> TabularMdp:
    """Two-state chain: action 0 loops in state 0, action 1 jumps to the
    absorbing state 1 where both actions loop."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, :, 1] = 1.0
    return TabularMdp(
        num_states=2, num_actions=2, initial_state=0, transitions=p, discount=gamma
    )


def _bias_ratio_instances(gamma: float) -> tuple[TabularMdp, TabularMdp]:
    # Source: every action loops in place.  Target: action 1 in state 0 jumps.
    p_src = np.zeros((2, 2, 2))
    p_src[0, :, 0] = 1.0
    p_src[1, :, 1] = 1.0
    src = TabularMdp(2, 2, 0, p_src, gamma)
    return src, fig_two_state_chain(gamma)


def new_env_bias_ratio_closed_form(c2: float) -> float:
    """Limit value of the cross-environment ratio as the discounts approach 1."""
    check_positive(c2, "c2")
    if c2 >= 2.0:
        return 1.0 / (3.0 * c2)
    return c2 * c2 / 24.0 - c2 / 4.0 + 0.5


def new_env_bias_ratio(c2: float, n: int, seed: int) -> McEstimate:
    """Cross-environment volume ratio of the bounded prior, estimated by MC.

    Draws uniformly from the bounded feasible slab of the policy (jump, stay)
    in the all-self-loop source environment via its (V, gap) parameterization
    (c1 fixed at 1), then measures how often the policy (stay, stay) is
    optimal in the target environment where action 1 jumps.  The limit value
    is new_env_bias_ratio_closed_form(c2); a ratio different from 1/2 is the
    bias being demonstrated.
    """
    check_positive(c2, "c2")
    src, dst = _bias_ratio_instances(BIAS_RATIO_GAMMA)
    sample_policy = PolicyTable.from_actions([1, 0], 2)  # jump-flavored action in s0, loop in s1
    target = _PolicyEvaluator(dst, np.array([0, 0]))
    v_halfwidth = 1.0 * k_pi(src, sample_policy)  # c1 = 1

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        v = rng.uniform(-v_halfwidth, v_halfwidth, size=(size, 2))
        gaps = rng.uniform(-c2, 0.0, size=(size, 2))
        rewards = shaping(src, v)
        rewards[:, 0, 0] += gaps[:, 0]  # non-prescribed action in s0
        rewards[:, 1, 1] += gaps[:, 1]  # non-prescribed action in s1
        return rewards

    return _bernoulli_fraction(draw, target.optimal_mask, n, seed)
