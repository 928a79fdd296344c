import warnings

import numpy as np
import pytest

from rewardcentroids.centroids import CentroidRequest, centroid_birl, centroid_mce, centroid_opt
from rewardcentroids.errors import DomainError
from rewardcentroids.estimators import (
    TrajectoryDataset,
    VisitCounts,
    estimate_birl,
    estimate_mce,
    estimate_opt,
    exact_estimate_birl,
    exact_estimate_mce,
    first_visit_counts,
    p_min_h,
    sample_bound,
    simulate_expert,
)
from rewardcentroids.geometry import BehaviorModel
from rewardcentroids.mclab import fig_two_state_chain
from rewardcentroids.mdp import PolicyTable, TabularMdp, random_mdp

from conftest import det_policy


def cycle_mdp(num_states: int, gamma: float = 0.8, num_actions: int = 2) -> TabularMdp:
    """Every action advances the cycle deterministically."""
    p = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        p[s, :, (s + 1) % num_states] = 1.0
    return TabularMdp(num_states, num_actions, 0, p, gamma)


def slip_chain(num_states: int, advance: float, gamma: float = 0.8) -> TabularMdp:
    """Action 0 advances with the given probability, else stays; absorbing end."""
    p = np.zeros((num_states, 2, num_states))
    for s in range(num_states - 1):
        p[s, :, s + 1] = advance
        p[s, :, s] = 1.0 - advance
    p[-1, :, -1] = 1.0
    return TabularMdp(num_states, 2, 0, p, gamma)


class TestDatasets:
    def test_shapes_validated(self):
        with pytest.raises(DomainError):
            TrajectoryDataset(states=np.zeros((2, 3), int), actions=np.zeros((2, 2), int))

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError):
            TrajectoryDataset(states=-np.ones((1, 2), int), actions=np.zeros((1, 2), int))

    def test_counts_consistency_enforced(self):
        with pytest.raises(DomainError):
            VisitCounts(nsa=np.ones((2, 2), int), ns=np.array([1, 1]))


class TestSimulate:
    def test_deterministic_chain_gives_identical_trajectories(self):
        mdp = cycle_mdp(3)
        expert = det_policy([0, 0, 0], 2)
        data = simulate_expert(mdp, expert, n=5, h=4, seed=9)
        assert np.all(data.states == data.states[0])
        assert np.all(data.states[0] == [0, 1, 2, 0])

    def test_one_state_mdp_stays_home(self):
        mdp = TabularMdp(1, 2, 0, np.ones((1, 2, 1)), 0.5)
        data = simulate_expert(mdp, PolicyTable([[0.5, 0.5]]), n=10, h=6, seed=1)
        assert np.all(data.states == 0)

    def test_seed_determinism(self, rng):
        mdp = random_mdp(3, 2, 0.7, rng)
        expert = PolicyTable(rng.dirichlet(np.ones(2), size=3))
        a = simulate_expert(mdp, expert, 50, 7, seed=123)
        b = simulate_expert(mdp, expert, 50, 7, seed=123)
        c = simulate_expert(mdp, expert, 50, 7, seed=124)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)
        assert not np.array_equal(a.actions, c.actions)

    def test_action_frequencies_within_three_sigma(self):
        mdp = TabularMdp(1, 2, 0, np.ones((1, 2, 1)), 0.5)
        p1 = 0.3
        n = 10_000
        data = simulate_expert(mdp, PolicyTable([[p1, 1 - p1]]), n=n, h=1, seed=42)
        count = int((data.actions == 0).sum())
        sigma = np.sqrt(n * p1 * (1 - p1))
        assert abs(count - n * p1) <= 3 * sigma


class TestFirstVisitCounts:
    def test_first_visit_rule(self):
        data = TrajectoryDataset(states=[[0, 0]], actions=[[0, 1]])
        counts = first_visit_counts(data, (1, 2))
        assert counts.nsa.tolist() == [[1, 0]]

    def test_two_trajectories_disagree(self):
        data = TrajectoryDataset(states=[[0], [0]], actions=[[0], [1]])
        counts = first_visit_counts(data, (1, 2))
        assert counts.nsa.tolist() == [[1, 1]]

    def test_unvisited_state_has_zero_row(self):
        data = TrajectoryDataset(states=[[0, 0]], actions=[[1, 1]])
        counts = first_visit_counts(data, (3, 2))
        assert counts.nsa[1].tolist() == [0, 0]
        assert counts.nsa[2].tolist() == [0, 0]

    def test_out_of_range_rejected(self):
        data = TrajectoryDataset(states=[[5]], actions=[[0]])
        with pytest.raises(DomainError):
            first_visit_counts(data, (2, 2))

    def test_first_visit_action_is_unbiased(self):
        # conditional on visiting a state, the first-visit action ~ pi_E
        mdp = fig_two_state_chain(0.8)
        expert = PolicyTable([[0.4, 0.6], [0.5, 0.5]])
        n = 20_000
        data = simulate_expert(mdp, expert, n=n, h=6, seed=3)
        counts = first_visit_counts(data, (2, 2))
        for s in range(2):
            ns = counts.ns[s]
            p = expert.probs[s, 0]
            sigma = np.sqrt(ns * p * (1 - p))
            assert abs(counts.nsa[s, 0] - ns * p) <= 3 * sigma


class TestEstimators:
    def test_opt_single_pair(self):
        data = TrajectoryDataset(states=[[0]], actions=[[0]])
        est = estimate_opt(data, (2, 2))
        assert est.values == pytest.approx(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_opt_exhaustive_recovers_centroid(self):
        mdp = cycle_mdp(4)
        expert = det_policy([0, 1, 0, 1], 2)
        data = simulate_expert(mdp, expert, n=3, h=4, seed=0)
        est = estimate_opt(data, (4, 2))
        req = CentroidRequest(
            expert=expert, support=frozenset(range(4)), model=BehaviorModel.opt(), num_actions=2
        )
        assert np.array_equal(est.values, centroid_opt(req).values)

    def test_mce_frequency_and_floor(self):
        data = TrajectoryDataset(
            states=[[0], [0], [0], [0]], actions=[[0], [0], [0], [1]]
        )
        est = estimate_mce(data, (2, 2), pi_min_prime=1e-6)
        assert est.values[0, 0] == pytest.approx(np.log(0.75))
        assert est.values[0, 1] == pytest.approx(np.log(0.25))
        assert est.values[1] == pytest.approx([np.log(1e-6)] * 2)

    def test_birl_rows(self):
        data = TrajectoryDataset(
            states=[[0], [0], [0], [0]], actions=[[0], [0], [0], [1]]
        )
        est = estimate_birl(data, (2, 2), pi_min_prime=1e-6)
        assert est.values[0] == pytest.approx([0.0, np.log(1.0 / 3.0)])
        assert est.values[1] == pytest.approx([np.log(1e-6)] * 2)

    def test_birl_single_action_row_shape(self):
        data = TrajectoryDataset(states=[[0], [0]], actions=[[1], [1]])
        est = estimate_birl(data, (1, 2), pi_min_prime=1e-4)
        assert est.values[0, 1] == pytest.approx(0.0)
        assert est.values[0, 0] == pytest.approx(np.log(1e-4 / 1.0))

    def test_pi_min_prime_validated(self):
        data = TrajectoryDataset(states=[[0]], actions=[[0]])
        with pytest.raises(DomainError):
            estimate_mce(data, (1, 1), pi_min_prime=0.0)

    def test_low_frequency_warns(self):
        states = [[0]] * 1000
        actions = [[0]] * 999 + [[1]]
        data = TrajectoryDataset(states=states, actions=actions)
        with pytest.warns(UserWarning):
            estimate_mce(data, (1, 2), pi_min_prime=0.01)

    def test_opt_consistency_at_large_n(self):
        mdp = cycle_mdp(5)
        expert = det_policy([0, 1, 0, 1, 1], 2)
        data = simulate_expert(mdp, expert, n=100_000, h=5, seed=29)
        est = estimate_opt(data, (5, 2))
        reference = centroid_opt(
            CentroidRequest(
                expert=expert, support=frozenset(range(5)),
                model=BehaviorModel.opt(), num_actions=2,
            )
        )
        assert np.array_equal(est.values, reference.values)

    def test_consistency_at_large_n(self):
        mdp = cycle_mdp(5)
        probs = np.tile([0.7, 0.3], (5, 1))
        expert = PolicyTable(probs)
        data = simulate_expert(mdp, expert, n=100_000, h=5, seed=17)
        dims = (5, 2)
        mce = estimate_mce(data, dims)
        birl = estimate_birl(data, dims)
        support = frozenset(range(5))
        mce_ref = centroid_mce(
            CentroidRequest(expert=expert, support=support, model=BehaviorModel.mce(1.0), num_actions=2)
        )
        birl_ref = centroid_birl(
            CentroidRequest(expert=expert, support=support, model=BehaviorModel.birl(1.0), num_actions=2)
        )
        assert np.abs(mce.values - mce_ref.values).max() <= 0.05
        assert np.abs(birl.values - birl_ref.values).max() <= 0.05

    def test_exact_estimates_are_infinite_data_limits(self):
        expert = PolicyTable([[0.7, 0.3], [1.0, 0.0]])
        support = {0}
        mce = exact_estimate_mce(expert, support, 1e-6)
        assert mce.values[0] == pytest.approx([np.log(0.7), np.log(0.3)])
        assert mce.values[1] == pytest.approx([np.log(1e-6)] * 2)
        birl = exact_estimate_birl(expert, support, 1e-6)
        assert birl.values[0] == pytest.approx([0.0, np.log(3 / 7)])
        assert birl.values[1] == pytest.approx([np.log(1e-6)] * 2)

    def test_estimate_with_exact_frequencies_is_the_exact_limit(self):
        # Four trajectories on a 3-state cycle with horizon 2: states 0 and 1
        # are each first-visited four times, state 2 never.  The first-visit
        # frequencies are the expert's quarters exactly, so the estimate and
        # the infinite-data limit over the visited states must agree bit for bit.
        expert = PolicyTable([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]])
        data = TrajectoryDataset(
            states=[[0, 1]] * 4,
            actions=[[0, 0], [1, 1], [1, 0], [1, 1]],
        )
        support = {0, 1}
        for pi_min_prime in (1e-6, 0.3):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                mce = estimate_mce(data, (3, 2), pi_min_prime)
                birl = estimate_birl(data, (3, 2), pi_min_prime)
            # the floor 0.3 clips the observed 0.25, which only the estimate path reports
            assert len(seen) == (2 if pi_min_prime == 0.3 else 0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                exact_mce = exact_estimate_mce(expert, support, pi_min_prime)
                exact_birl = exact_estimate_birl(expert, support, pi_min_prime)
            assert np.array_equal(mce.values, exact_mce.values)
            assert np.array_equal(birl.values, exact_birl.values)


class TestVisitProbability:
    def test_deterministic_chain_reaches_everything(self):
        mdp = cycle_mdp(4)
        expert = det_policy([0] * 4, 2)
        assert p_min_h(mdp, expert, 4) == pytest.approx(1.0)

    def test_two_state_chain_jump(self):
        mdp = fig_two_state_chain(0.5)
        assert p_min_h(mdp, det_policy([1, 0], 2), 2) == pytest.approx(1.0)

    def test_slip_chain_enumeration_oracle(self):
        # brute-force over all length-2 trajectories: states (s1, s2) with
        # s1 = s0; P(visit s2) = 0.5.  (A length-2 trajectory takes a single
        # transition step.)
        mdp = slip_chain(2, advance=0.5)
        expert = PolicyTable(np.full((2, 2), 0.5))
        total = 0.0
        for s2, prob in ((0, 0.5), (1, 0.5)):
            if 1 in (0, s2):
                total += prob
        assert total == 0.5
        assert p_min_h(mdp, expert, 2) == pytest.approx(total)
        assert p_min_h(mdp, expert, 3) == pytest.approx(0.75)

    def test_monotone_in_h_and_reaches_one(self):
        mdp = slip_chain(3, advance=0.6)
        expert = det_policy([0, 0, 0], 2)
        values = [p_min_h(mdp, expert, h) for h in range(1, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_matches_simulation(self):
        mdp = slip_chain(3, advance=0.5)
        expert = PolicyTable(np.full((3, 2), 0.5))
        h = 4
        n = 40_000
        data = simulate_expert(mdp, expert, n=n, h=h, seed=5)
        visited = np.zeros(n, dtype=bool)
        for t in range(h):
            visited |= data.states[:, t] == 2
        rate = visited.mean()
        predicted = p_min_h(mdp, expert, h)
        sigma = np.sqrt(predicted * (1 - predicted) / n)
        assert abs(rate - predicted) <= 4 * sigma


class TestSampleBound:
    def test_opt_example(self):
        n = sample_bound(
            "opt", num_states=4, num_actions=2, support_size=4, delta=0.1,
            p_min=0.5, horizon=4,
        )
        assert n == int(np.ceil(np.log(40.0) / 0.5)) == 8

    def test_mce_formula_shape(self):
        n = sample_bound(
            "mce", num_states=2, num_actions=2, support_size=2, delta=0.1,
            p_min=0.25, horizon=2, eps=1.0, pi_min_prime=0.1,
        )
        expected = np.ceil(16.0 * np.log(4 * 4 / 0.1) ** 2 / (1.0 * 0.1 * 0.25))
        assert n == int(expected)

    def test_birl_constant(self):
        n_birl = sample_bound(
            "birl", num_states=2, num_actions=2, support_size=2, delta=0.1,
            p_min=1.0, horizon=2, eps=0.5, pi_min_prime=0.1,
        )
        expected = np.ceil(33.0 * np.log(8 * 4 / 0.1) ** 2 / (0.25 * 0.1))
        assert n_birl == int(expected)

    def test_clamped_to_one(self):
        n = sample_bound(
            "opt", num_states=1, num_actions=2, support_size=1, delta=0.999,
            p_min=1.0, horizon=1,
        )
        assert n == 1

    def test_rejects_short_horizon(self):
        with pytest.raises(DomainError):
            sample_bound(
                "opt", num_states=5, num_actions=2, support_size=5, delta=0.1,
                p_min=0.5, horizon=4,
            )


class TestExactRecoveryGuarantee:
    def test_exact_recovery_rate(self):
        # stochastic chain, deterministic expert; N prescribed by the bound
        mdp = slip_chain(5, advance=0.8, gamma=0.8)
        expert = det_policy([0] * 5, 2)
        h = 5
        p_min = p_min_h(mdp, expert, h)
        assert p_min == pytest.approx(0.8**4)
        n = sample_bound(
            "opt", num_states=5, num_actions=2, support_size=5, delta=0.1,
            p_min=p_min, horizon=h,
        )
        reference = centroid_opt(
            CentroidRequest(
                expert=expert, support=frozenset(range(5)),
                model=BehaviorModel.opt(), num_actions=2,
            )
        )
        hits = 0
        trials = 200
        for seed in range(trials):
            data = simulate_expert(mdp, expert, n=n, h=h, seed=seed)
            est = estimate_opt(data, (5, 2))
            hits += int(np.array_equal(est.values, reference.values))
        assert hits / trials >= 0.85
