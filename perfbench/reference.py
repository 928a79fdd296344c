"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the package under test: the grid dynamics, occupancy
solves, optimal values, closed-form centroids and first-visit counts are
rebuilt from the scenario configs and fixtures with plain numpy, and the
linear programs are re-solved with scipy's HiGHS (`linprog`).  scipy is
imported only by the functions that need it, so the timed part of a run
never loads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# left, right, up, down, stay, as (dx, dy); y grows downwards.
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
REVERSED_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0))
CLIP_FLOOR = 1e-6  # pi_min_prime of the exact MCE/BIRL estimates in the scenarios


@dataclass(frozen=True)
class Grid:
    """A gridworld rebuilt from a scenario's `gridworld`/`target` block."""

    width: int
    height: int
    p: np.ndarray  # (S, A, S) transition tensor
    s0: int
    gamma: float
    blocked: tuple[int, ...]

    @property
    def num_states(self) -> int:
        return self.width * self.height


def grid_from_doc(doc: dict) -> Grid:
    w, h = int(doc["width"]), int(doc["height"])
    moves = REVERSED_MOVES if doc.get("reversed", False) else MOVES
    p = np.zeros((w * h, len(moves), w * h))
    for y in range(h):
        for x in range(w):
            for a, (dx, dy) in enumerate(moves):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h):
                    nx, ny = x, y
                p[y * w + x, a, ny * w + nx] = 1.0
    ix, iy = doc["initial_cell"]
    blocked = tuple(sorted(cy * w + cx for cx, cy in doc.get("blocked_cells", [])))
    return Grid(w, h, p, iy * w + ix, float(doc["gamma"]), blocked)


@dataclass(frozen=True)
class Scenario:
    """What a scenario config asks for, read without the package."""

    name: str
    path: Path
    planner: str
    model: str | None
    source: Grid
    target: Grid
    expert: np.ndarray  # (S, A) fixture probabilities

    @property
    def constrained(self) -> bool:
        return bool(self.target.blocked)


def load_scenario(path: Path) -> Scenario:
    config = json.loads(path.read_text())
    source_doc = config["gridworld"]
    target_doc = {**source_doc, **config.get("target", {})}
    fixture = json.loads((path.parent / source_doc["expert_policy_file"]).read_text())
    model = config.get("model")
    if isinstance(model, dict):
        model = model["kind"]
    return Scenario(
        name=path.stem,
        path=path,
        planner=config.get("planner", "centroid"),
        model=model,
        source=grid_from_doc(source_doc),
        target=grid_from_doc(target_doc),
        expert=np.asarray(fixture["probs"], dtype=float),
    )


def policy_chain(p: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return np.einsum("sa,sap->sp", pi, p)


def occupancy(p: np.ndarray, gamma: float, s0: int, pi: np.ndarray) -> np.ndarray:
    """Discounted state-action occupancy of pi from s0, as an (S, A) table."""
    S = p.shape[0]
    e0 = np.zeros(S)
    e0[s0] = 1.0 - gamma
    d_state = np.linalg.solve((np.eye(S) - gamma * policy_chain(p, pi)).T, e0)
    return d_state[:, None] * pi


def flow_residual(p: np.ndarray, gamma: float, s0: int, d: np.ndarray) -> float:
    """Largest violation of the flow equations (and of d >= 0, sum d = 1)."""
    inflow = np.einsum("sap,sa->p", p, d)
    rhs = np.zeros(p.shape[0])
    rhs[s0] = 1.0 - gamma
    residual = np.abs(d.sum(axis=1) - gamma * inflow - rhs).max()
    return float(max(residual, -d.min(), abs(d.sum() - 1.0)))


def reachable(p: np.ndarray, pi: np.ndarray, s0: int) -> frozenset[int]:
    """States reachable from s0 under pi, by breadth-first search."""
    step = policy_chain(p, pi) > 0.0
    seen = {s0}
    frontier = [s0]
    while frontier:
        nxt = []
        for s in frontier:
            for t in np.flatnonzero(step[s]):
                if int(t) not in seen:
                    seen.add(int(t))
                    nxt.append(int(t))
        frontier = nxt
    return frozenset(seen)


def policy_values(p: np.ndarray, gamma: float, r: np.ndarray, pi: np.ndarray) -> np.ndarray:
    S = p.shape[0]
    return np.linalg.solve(np.eye(S) - gamma * policy_chain(p, pi), (pi * r).sum(axis=1))


def optimal_values(p: np.ndarray, gamma: float, r: np.ndarray) -> np.ndarray:
    """V* by policy iteration with exact solves (converges in finitely many steps)."""
    S, A = r.shape
    actions = r.argmax(axis=1)
    for _ in range(10 * S * A):
        pi = np.eye(A)[actions]
        v = policy_values(p, gamma, r, pi)
        q = r + gamma * p @ v
        better = q.max(axis=1) > q[np.arange(S), actions] + 1e-12 * (1.0 + np.abs(v))
        if not better.any():
            return v
        actions = np.where(better, q.argmax(axis=1), actions)
    raise RuntimeError("policy iteration did not converge")


def uniform_policy(S: int, A: int) -> np.ndarray:
    return np.full((S, A), 1.0 / A)


def opt_centroid(expert: np.ndarray, support) -> np.ndarray:
    """1 on the expert's action and 0 elsewhere on the support, 1/A off it."""
    S, A = expert.shape
    values = np.full((S, A), 1.0 / A)
    for s in support:
        values[s] = 0.0
        values[s, int(np.argmax(expert[s]))] = 1.0
    return values


def clipped_log_policy(expert: np.ndarray, support, floor: float, birl: bool) -> np.ndarray:
    """MCE (log pi) or BIRL (log pi - max log pi) table, floored at `floor`,
    with log(floor) on rows outside the support."""
    values = np.full(expert.shape, np.log(floor))
    rows = sorted(support)
    logs = np.log(np.maximum(floor, expert[rows]))
    if birl:
        logs -= logs.max(axis=1, keepdims=True)
    values[rows] = logs
    return values


def _flow_equalities(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    S, A = grid.p.shape[:2]
    a_eq = np.kron(np.eye(S), np.ones((1, A))) - grid.gamma * grid.p.reshape(S * A, S).T
    b_eq = np.zeros(S)
    b_eq[grid.s0] = 1.0 - grid.gamma
    return a_eq, b_eq


def _occupancy_bounds(grid: Grid) -> list[tuple[float, float | None]]:
    A = grid.p.shape[1]
    blocked = set(grid.blocked)
    return [(0.0, 0.0) if s in blocked else (0.0, None) for s in range(grid.num_states) for _ in range(A)]


def _linprog(**kwargs):
    from scipy.optimize import linprog

    res = linprog(method="highs", **kwargs)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return res


def highs_l1_distance(grid: Grid, d_expert: np.ndarray) -> float:
    """min ||d - d_expert||_1 over occupancies of `grid` with no mass on blocked cells."""
    n = d_expert.size
    flow, b_flow = _flow_equalities(grid)
    eye = np.eye(n)
    # variables [d, t]; t >= |d - d_expert|
    a_ub = np.block([[eye, -eye], [-eye, -eye]])
    b_ub = np.concatenate([d_expert.ravel(), -d_expert.ravel()])
    res = _linprog(
        c=np.concatenate([np.zeros(n), np.ones(n)]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.hstack([flow, np.zeros_like(flow)]),
        b_eq=b_flow,
        bounds=_occupancy_bounds(grid) + [(0.0, None)] * n,
    )
    return float(res.fun)


def highs_best_value(grid: Grid, r: np.ndarray) -> float:
    """max V(s0; r) over occupancies of `grid` with no mass on blocked cells."""
    flow, b_flow = _flow_equalities(grid)
    res = _linprog(c=-r.ravel(), A_eq=flow, b_eq=b_flow, bounds=_occupancy_bounds(grid))
    return float(-res.fun / (1.0 - grid.gamma))


def first_visit_counts(states: np.ndarray, actions: np.ndarray, S: int, A: int) -> np.ndarray:
    """(S, A) counts of the action played at each trajectory's first visit to a state.

    Works by sorting (trajectory, state) keys: `np.unique` returns the first
    flat index of each key, and within a trajectory flat order is time order.
    """
    n = states.shape[0]
    keys = (np.arange(n)[:, None] * S + states).ravel()
    _, first = np.unique(keys, return_index=True)
    counts = np.bincount(
        states.ravel()[first] * A + actions.ravel()[first], minlength=S * A
    )
    return counts.reshape(S, A)


def slip_chain(num_states: int, advance: float) -> np.ndarray:
    """Chain where both actions move right with probability `advance`; last state absorbs."""
    p = np.zeros((num_states, 2, num_states))
    for s in range(num_states - 1):
        p[s, :, s + 1] = advance
        p[s, :, s] = 1.0 - advance
    p[-1, :, -1] = 1.0
    return p


def ring_chain(num_states: int) -> np.ndarray:
    """Chain where both actions move to the next state, wrapping around."""
    p = np.zeros((num_states, 2, num_states))
    for s in range(num_states):
        p[s, :, (s + 1) % num_states] = 1.0
    return p
