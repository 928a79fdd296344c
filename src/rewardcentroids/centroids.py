"""Closed-form reward centroids of the bounded feasible sets.

Centroids are reported after rescaling (alpha * r + beta with alpha > 0),
which leaves the induced policy ranking unchanged.  OPT centroids indicate
the expert's actions on visited states and flatten to 1/A elsewhere
(`opt_table`); the MCE and BIRL centroids are `geometry.log_policy` tables.
The offline estimators apply the same two functions to the trajectories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import BIRL, MCE, OPT, check_expert, check_kind, log_policy
from .mdp import PolicyTable, RewardTable, support_mask


@dataclass(frozen=True)
class CentroidRequest:
    """Expert policy, the visited-state set a centroid is built from, and the
    behavior model's kind; S and A are the expert's.  A model's coefficient
    would only rescale the centroid, so the request carries none."""

    expert: PolicyTable
    support: frozenset[int]
    kind: str

    def __post_init__(self):
        kind = check_kind(self.kind)
        on = support_mask(self.support, self.num_states)
        object.__setattr__(self, "support", frozenset(np.flatnonzero(on).tolist()))
        if kind != OPT and not on.all():
            raise DomainError("MCE/BIRL centroids require full support")
        check_expert(self.expert, on, kind, f"the {kind.upper()} centroid's expert on its support")

    @property
    def num_states(self) -> int:
        return self.expert.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.expert.probs.shape[1]


def opt_table(visited_pairs: np.ndarray) -> RewardTable:
    """1 on visited pairs, 0 on the other actions of visited states, 1/A on unvisited states."""
    values = visited_pairs.astype(float)
    values[~visited_pairs.any(axis=1)] = 1.0 / visited_pairs.shape[1]
    return RewardTable(values)


def centroid(req: CentroidRequest) -> RewardTable:
    """The closed-form centroid of the request's model.

    OPT: the `opt_table` of the pairs (s, expert action) over the support.
    MCE and BIRL: `log_policy` of the expert probabilities.
    """
    if req.kind != OPT:
        return RewardTable(log_policy(req.expert.probs, req.kind))
    rows = sorted(req.support)
    visited = np.zeros((req.num_states, req.num_actions), dtype=bool)
    visited[rows, req.expert.actions()[rows]] = True
    return opt_table(visited)


def enumerate_extensions(req: CentroidRequest) -> tuple[list[int], list[tuple[int, ...]]]:
    """Deterministic completions of the expert outside its support.

    Returns the off-support states in increasing order together with all
    action assignments for them, enumerated lexicographically.
    """
    off = sorted(set(range(req.num_states)) - req.support)
    return off, list(itertools.product(range(req.num_actions), repeat=len(off)))


def weighted_centroid_opt(req: CentroidRequest, q) -> RewardTable:
    """OPT centroid under a policy-weighted prior over expert extensions.

    q holds one nonnegative weight per deterministic extension of the expert
    (lexicographic order over off-support states).  On the support the result
    matches `centroid`; off support, entry (s, a) is the q-mass of the
    extensions prescribing a at s, normalized by the total mass.  The uniform
    q therefore reproduces `centroid` exactly.
    """
    if req.kind != OPT:
        raise DomainError("weighted_centroid_opt requires an OPT request")
    off, extensions = enumerate_extensions(req)
    q = np.asarray(q, dtype=float)
    if q.shape != (len(extensions),):
        raise DomainError(
            f"q must hold {len(extensions)} extension weights, got shape {q.shape}"
        )
    q = np.ldexp(q, -np.frexp(q.max())[1])  # a power of two: exact, and the sum cannot overflow
    if not (np.all(q >= 0) and 0 < q.sum() < np.inf):  # NaN fails both
        raise DomainError("q must be finite and nonnegative with positive sum")
    values = centroid(req).values.copy()
    total = q.sum()
    actions = np.array(extensions, dtype=np.intp).reshape(len(extensions), len(off))
    for j, s in enumerate(off):  # bincount adds q in extension order, as a loop would
        values[s, :] = np.bincount(actions[:, j], weights=q, minlength=req.num_actions) / total
    return RewardTable(values)


@dataclass(frozen=True)
class AffineFit:
    alpha: float
    beta: float
    residual_sup: float


def affine_fit(estimate: RewardTable, reference: RewardTable) -> AffineFit:
    """Least-squares (alpha, beta) minimizing ||estimate - alpha*reference - beta||^2.

    The sign of alpha is unconstrained; callers assert alpha > 0 where the
    rescaling convention demands it.  A constant reference makes the design
    degenerate and is rejected.
    """
    if estimate.values.shape != reference.values.shape:
        raise DomainError("estimate and reference must share a shape")
    est = estimate.values.ravel()
    ref = reference.values.ravel()
    if np.ptp(ref) == 0.0:
        raise DomainError("reference must be non-constant for an affine fit")
    design = np.stack([ref, np.ones_like(ref)], axis=1)
    coef, *_ = np.linalg.lstsq(design, est, rcond=None)
    residual = est - design @ coef
    return AffineFit(alpha=float(coef[0]), beta=float(coef[1]), residual_sup=float(np.abs(residual).max()))


def constant_fit(estimate: RewardTable) -> tuple[float, float]:
    """Best constant approximation (beta, residual_sup).

    This is the affine family available when the reference table is constant,
    e.g. when checking an estimate against the zero prior centroid.
    """
    est = estimate.values.ravel()
    beta = float(est.mean())
    return beta, float(np.abs(est - beta).max())
