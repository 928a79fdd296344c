import itertools
from pathlib import Path

import numpy as np
import pytest

from rewardcentroids import gridworld, lp as lp_module, planning
from rewardcentroids.lp import LinearProgram, solve
from rewardcentroids.mdp import MAX_POLICY_ITERATIONS, PolicyTable, TabularMdp, ValueFunctions, _greedy_actions
from rewardcentroids.serialization import load_policy

ROOT = Path(__file__).resolve().parent.parent


def enumerate_optimal_values(mdp: TabularMdp, reward: np.ndarray) -> np.ndarray:
    """Brute-force V*: exact linear solve for every deterministic policy."""
    S, A = mdp.num_states, mdp.num_actions
    best = np.full(S, -np.inf)
    for actions in itertools.product(range(A), repeat=S):
        actions = np.array(actions)
        p_pi = mdp.transitions[np.arange(S), actions]
        r_pi = reward[np.arange(S), actions]
        v = np.linalg.solve(np.eye(S) - mdp.discount * p_pi, r_pi)
        best = np.maximum(best, v)
    return best


def soft_values_by_sweeps(
    mdp: TabularMdp, reward: np.ndarray, lam: float, tol: float = 1e-12
) -> np.ndarray:
    """Reference soft optimum: v <- lam * logsumexp((r + gamma P v) / lam) until
    successive sweeps differ by at most tol * (1 - gamma) / (2 * gamma)."""
    gamma = mdp.discount
    stop = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else np.inf
    v = np.zeros(mdp.num_states)
    while True:
        x = (reward + gamma * mdp.transitions @ v) / lam
        m = x.max(axis=1)
        v_new = lam * (m + np.log(np.exp(x - m[:, None]).sum(axis=1)))
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta <= stop:
            return v


def howard_policy_iteration(mdp: TabularMdp, reward: np.ndarray) -> ValueFunctions:
    """Reference optimum: Howard's policy iteration from the greedy actions of
    the reward, with no warm-up sweeps, each step an exact evaluation."""
    S = mdp.num_states
    rows = np.arange(S)
    actions = _greedy_actions(reward)
    for _ in range(MAX_POLICY_ITERATIONS):
        w = np.eye(S) - mdp.discount * mdp.transitions[rows, actions]
        q = reward + mdp.discount * (mdp.transitions @ np.linalg.solve(w, reward[rows, actions]))
        improved = _greedy_actions(q, actions)
        if np.array_equal(improved, actions):
            v = q.max(axis=1)
            return ValueFunctions(v=v, q=q, advantage=q - v[:, None])
        actions = improved
    raise AssertionError("reference policy iteration did not stop")


def three_state_chain(gamma: float) -> TabularMdp:
    """Chain 0 -> 1 -> 2: in states 0 and 1 action 0 loops and action 1 moves
    one state on; state 2 absorbs.  With reward [[1, 0], [0, 0], [5, 5]] at
    gamma 0.5 the reward of state 2 is two moves from state 0: greedy
    sweeps settle on looping in state 0 (value 2) before that reward (2.5)
    reaches it, so policy iteration needs a second step."""
    p = np.zeros((3, 2, 3))
    for s in (0, 1):
        p[s, 0, s] = 1.0
        p[s, 1, s + 1] = 1.0
    p[2, :, 2] = 1.0
    return TabularMdp(3, 2, 0, p, gamma)


CHAIN_CAP_REWARD = [[1.0, 0.0], [0.0, 0.0], [5.0, 5.0]]


def one_state_mdp(gamma: float = 0.9, num_actions: int = 2) -> TabularMdp:
    return TabularMdp(1, num_actions, 0, np.ones((1, num_actions, 1)), gamma)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def det_policy(actions, num_actions: int) -> PolicyTable:
    return PolicyTable.from_actions(actions, num_actions)


def random_policy(num_states: int, num_actions: int, rng: np.random.Generator) -> PolicyTable:
    """Random stochastic policy with Dirichlet rows."""
    return PolicyTable(rng.dirichlet(np.ones(num_actions), size=num_states))


def solve_permuted(program: LinearProgram, perm: np.ndarray, basis=None) -> np.ndarray:
    """x of `program` solved with its columns and its tie weights permuted by
    perm, from `basis` with its structural columns moved along, put back in
    the original column order."""
    n = program.num_vars
    weights = lp_module.tie_objective(n)
    permuted = LinearProgram(
        program.objective[perm], program.eq_lhs[:, perm], program.eq_rhs,
        program.ub_lhs[:, perm], program.ub_rhs,
    )
    if basis is not None:
        basis = np.array(basis)
        structural = basis < n
        basis[structural] = np.argsort(perm)[basis[structural]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "tie_objective", lambda size: weights[perm])
        sol = solve(permuted, basis)
    x = np.empty(n)
    x[perm] = sol.x
    return x


def lp_bytes(program: LinearProgram) -> int:
    """lp.held_bytes of a built program."""
    ub_rows = program.ub_rhs.size
    return lp_module.held_bytes(program.eq_rhs.size + ub_rows, program.num_vars, ub_rows)


def fig2b_mimic():
    """fig2b's MIMIC inputs (source grid, expert, target grid, constraint) and
    lp_bytes of the program that mimic_policy solves for them."""
    path = ROOT / "configs" / "fig2b.json"
    scenario = gridworld._load_json(path, lambda doc: gridworld._scenario_from_dict(doc, path.parent))
    source, _ = gridworld.build_gridworld(scenario.source)
    target, constraint = gridworld.build_gridworld(scenario.target)
    inputs = (source, load_policy(scenario.source.expert_policy_file), target, constraint)
    programs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planning, "solve", lambda program, basis: programs.append(program) or solve(program, basis))
        planning.mimic_policy(*inputs)
    (program,) = programs
    return inputs, lp_bytes(program)
