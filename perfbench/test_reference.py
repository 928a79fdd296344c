"""Tests of the benchmark's own checkers: each must accept a right answer and
reject a wrong one.

    python3 -m pytest -q perfbench/test_reference.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

CONFIGS = HERE.parent / "configs"


def random_mdp(S: int, A: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(S), size=(S, A))


def random_policy(S: int, A: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(A), size=S)


def test_occupancy_passes_and_perturbed_occupancy_fails_flow_check():
    p, pi = random_mdp(6, 3, 1), random_policy(6, 3, 2)
    d = ref.occupancy(p, 0.9, 0, pi)
    assert ref.flow_residual(p, 0.9, 0, d) <= 1e-12
    moved = d.copy()
    moved[1, 0] += 1e-6
    moved[2, 1] -= 1e-6  # still sums to 1, but breaks the flow equations
    assert ref.flow_residual(p, 0.9, 0, moved) > 1e-9


def test_grid_moves_walls_reversal_and_blocked_cells():
    doc = {"width": 3, "height": 2, "initial_cell": [0, 1], "gamma": 0.5, "blocked_cells": [[2, 0]]}
    grid = ref.grid_from_doc(doc)
    assert grid.s0 == 3 and grid.blocked == (2,)
    assert grid.p[0, 0, 0] == 1.0  # left at the west wall stays
    assert grid.p[0, 1, 1] == 1.0  # right
    assert grid.p[0, 3, 3] == 1.0  # down
    flipped = ref.grid_from_doc({**doc, "reversed": True})
    assert flipped.p[0, 0, 1] == 1.0 and flipped.p[0, 2, 3] == 1.0  # left goes right, up goes down
    assert np.array_equal(flipped.p[:, 4], grid.p[:, 4])  # stay is unchanged


def test_optimal_values_match_enumeration_of_deterministic_policies():
    S, A, gamma = 4, 3, 0.95
    p = random_mdp(S, A, 3)
    r = np.random.default_rng(4).normal(size=(S, A))
    best = np.full(S, -np.inf)
    for actions in itertools.product(range(A), repeat=S):
        best = np.maximum(best, ref.policy_values(p, gamma, r, np.eye(A)[list(actions)]))
    np.testing.assert_allclose(ref.optimal_values(p, gamma, r), best, rtol=0, atol=1e-10)


def test_first_visit_counts_match_a_plain_loop():
    rng = np.random.default_rng(5)
    S, A = 4, 3
    states, actions = rng.integers(S, size=(50, 9)), rng.integers(A, size=(50, 9))
    expected = np.zeros((S, A), dtype=int)
    for traj_s, traj_a in zip(states, actions):
        seen = set()
        for s, a in zip(traj_s, traj_a):
            if s not in seen:
                seen.add(s)
                expected[s, a] += 1
    assert np.array_equal(ref.first_visit_counts(states, actions, S, A), expected)


def test_highs_programs_against_known_optima():
    grid = ref.grid_from_doc({"width": 3, "height": 3, "initial_cell": [0, 0], "gamma": 0.8})
    pi = random_policy(9, 5, 6)
    d = ref.occupancy(grid.p, grid.gamma, grid.s0, pi)
    assert ref.highs_l1_distance(grid, d) == pytest.approx(0.0, abs=1e-9)
    blocked = ref.grid_from_doc({"width": 3, "height": 3, "initial_cell": [0, 0], "gamma": 0.8, "blocked_cells": [[1, 0]]})
    assert ref.highs_l1_distance(blocked, d) > 1e-3  # d visits the blocked cell
    r = np.random.default_rng(7).normal(size=(9, 5))
    v_star = ref.optimal_values(grid.p, grid.gamma, r)[grid.s0]
    assert ref.highs_best_value(grid, r) == pytest.approx(v_star, abs=1e-8)
    assert ref.highs_best_value(blocked, r) <= v_star + 1e-9


def test_closed_form_centroids():
    expert = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(ref.opt_centroid(expert, {0, 2}), [[0, 1], [0.5, 0.5], [1, 0]])
    birl = ref.clipped_log_policy(expert, {1}, 1e-6, birl=True)
    assert np.array_equal(birl[1], [0.0, 0.0]) and np.all(birl[[0, 2]] == np.log(1e-6))


def _scenario_output(sc, policy):
    env = sc.source if sc.planner == "expert" else sc.target
    d = ref.occupancy(env.p, env.gamma, env.s0, policy)
    support = sorted(ref.reachable(sc.source.p, sc.expert, sc.source.s0))
    report = {"support_size": len(support), "support_mass": float(d.sum(axis=1)[support].sum())}
    return d, report, support


def test_suite_check_accepts_behavioral_cloning_and_rejects_a_changed_policy():
    suite = workloads.ScenarioSuite.__new__(workloads.ScenarioSuite)
    suite._refs = {}
    sc = ref.load_scenario(CONFIGS / "figG4b.json")
    S, A = sc.expert.shape
    support = sorted(ref.reachable(sc.source.p, sc.expert, sc.source.s0))
    bc = ref.uniform_policy(S, A)
    bc[support] = sc.expert[support]
    d, report, _ = _scenario_output(sc, bc)
    assert suite._check(sc, bc, d, {**report, "value": None}) == []
    wrong = bc.copy()
    wrong[support[0]] = 1.0 / A
    d, report, _ = _scenario_output(sc, wrong)
    assert any("bc differs" in p for p in suite._check(sc, wrong, d, {**report, "value": None}))


def test_suite_check_rejects_a_suboptimal_centroid_plan():
    suite = workloads.ScenarioSuite.__new__(workloads.ScenarioSuite)
    suite._refs = {}
    sc = ref.load_scenario(CONFIGS / "fig_il_opt.json")
    reward = ref.opt_centroid(sc.expert, ref.reachable(sc.source.p, sc.expert, sc.source.s0))
    for policy, ok in ((sc.expert, True), (ref.uniform_policy(*sc.expert.shape), False)):
        d, report, _ = _scenario_output(sc, policy)
        value = ref.policy_values(sc.target.p, sc.target.gamma, reward, policy)[sc.target.s0]
        problems = suite._check(sc, policy, d, {**report, "value": float(value)})
        assert (problems == []) == ok, problems


def test_monte_carlo_checks_use_standard_errors():
    assert workloads._scalar_within(0.17, 0.001, 1 / 6) == []
    assert workloads._scalar_within(0.18, 0.001, 1 / 6) != []
    est = SimpleNamespace(mean=0.3 * workloads.OPT_CENTROID - 0.1, std_error=np.full((2, 2), 0.01))
    assert workloads._affine_within(est) == []
    est.mean = -est.mean  # alpha < 0
    assert workloads._affine_within(est) != []
    skewed = SimpleNamespace(mean=np.array([[0.0, 0.0], [0.0, 1.0]]), std_error=np.full((2, 2), 0.01))
    assert workloads._constant_within(skewed) != []


def test_estimate_consistency_with_own_counts():
    counts = np.array([[3, 1], [0, 0]])
    floor = 0.05
    mce = np.log(np.maximum(floor, [[0.75, 0.25], [0.0, 0.0]]))
    assert workloads._count_consistency("mce", counts, mce, floor) == []
    assert workloads._count_consistency("mce", counts, mce + 1e-9, floor) != []
    birl = mce - mce.max(axis=1, keepdims=True)
    birl[1] = np.log(floor)
    assert workloads._count_consistency("birl", counts, birl, floor) == []
    assert workloads._count_consistency("birl", counts, mce, floor) != []


def test_a_raised_op_fails_the_run_and_its_time_counts(monkeypatch, capsys):
    import run

    def boom():
        time.sleep(0.05)
        raise RuntimeError("boom")

    class Broken:
        def __init__(self, root, seed, seconds, out_dir):
            self.ops = [
                workloads.Op("fine", lambda: 1.0, lambda out: out, lambda digest: [], 1.0, "calls", round=0),
                workloads.Op("boom", boom, lambda out: out, lambda digest: [], 1.0, "calls", round=0),
            ]

        def finish(self, digests):
            return []

    monkeypatch.setitem(workloads.WORKLOADS, "broken", Broken)
    monkeypatch.setattr(run, "timed_setups", lambda args: [0.1])
    assert run.main(["--workload", "broken", "--seed", "0", "--seconds", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["run_s"]["value"] >= 0.05
