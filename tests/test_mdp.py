import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardcentroids import mdp as mdp_module
from rewardcentroids.centroids import CentroidRequest
from rewardcentroids.errors import DomainError, SolverError
from rewardcentroids.estimators import exact_estimate
from rewardcentroids.geometry import OPT, BehaviorModel, is_feasible
from rewardcentroids.gridworld import GridworldSpec, build_gridworld
from rewardcentroids.mclab import fig_two_state_chain
from rewardcentroids.mdp import (
    OccupancyMeasure,
    PolicyTable,
    RewardTable,
    TabularMdp,
    boltzmann_policy,
    greedy_policy,
    k_pi,
    occupancy_measure,
    policy_evaluation,
    random_mdp,
    reachable_support,
    soft_value_iteration,
    support_mask,
    value_iteration,
    w_matrix,
)
from rewardcentroids.planning import bc_policy, best_case_reward, plan_unconstrained

from conftest import (
    CHAIN_CAP_REWARD,
    det_policy,
    enumerate_optimal_values,
    howard_policy_iteration,
    one_state_mdp,
    random_policy,
    soft_values_by_sweeps,
    three_state_chain,
)


class TestTypes:
    def test_transition_rows_must_be_stochastic(self):
        p = np.ones((1, 2, 1))
        p[0, 0, 0] = 0.5
        with pytest.raises(DomainError):
            TabularMdp(1, 2, 0, p, 0.9)

    def test_negative_probability_rejected(self):
        p = np.zeros((1, 1, 1))
        p[0, 0, 0] = 1.0
        mdp = TabularMdp(1, 1, 0, p, 0.0)
        assert mdp.discount == 0.0
        p2 = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
        with pytest.raises(DomainError):
            TabularMdp(2, 1, 0, p2, 0.5)

    def test_discount_range(self):
        with pytest.raises(DomainError):
            TabularMdp(1, 1, 0, np.ones((1, 1, 1)), 1.0)

    def test_initial_state_range(self):
        with pytest.raises(DomainError):
            TabularMdp(1, 1, 3, np.ones((1, 1, 1)), 0.5)

    def test_reward_rejects_nan(self):
        with pytest.raises(DomainError):
            RewardTable([[np.nan, 0.0]])

    def test_policy_rows_sum_to_one(self):
        with pytest.raises(DomainError):
            PolicyTable([[0.7, 0.2]])

    def test_deterministic_rows_are_the_one_hot_rows(self):
        policy = PolicyTable([[0.0, 1.0], [0.5, 0.5], [1.0 - 1e-13, 1e-13]])
        assert policy.deterministic_rows().tolist() == [True, False, False]

    def test_occupancy_invariants(self):
        with pytest.raises(DomainError):
            OccupancyMeasure([[0.5, 0.4]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_occupancy_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            OccupancyMeasure([[0.5, bad], [0.5, 0.0]])


class TestValueIteration:
    def test_two_self_loop_actions(self):
        mdp = one_state_mdp(0.9)
        vf = value_iteration(mdp, RewardTable([[1.0, 0.0]]))
        assert vf.v == pytest.approx([10.0], abs=1e-9)
        assert vf.q[0] == pytest.approx([10.0, 9.0], abs=1e-9)
        assert vf.advantage[0] == pytest.approx([0.0, -1.0], abs=1e-9)

    def test_zero_reward_fixed_point(self, rng):
        mdp = random_mdp(4, 3, 0.8, rng)
        vf = value_iteration(mdp, RewardTable(np.zeros((4, 3))))
        assert np.all(vf.v == 0.0)
        assert np.all(vf.q == 0.0)

    def test_two_state_chain_matches_policy_enumeration(self):
        mdp = fig_two_state_chain(0.5)
        r = np.zeros((2, 2))
        r[0, 0] = 1.0
        expected = enumerate_optimal_values(mdp, r)
        assert expected == pytest.approx([2.0, 0.0])
        vf = value_iteration(mdp, RewardTable(r))
        assert vf.v == pytest.approx(expected, abs=1e-9)

    def test_accuracy_against_enumeration_on_random_instances(self, rng):
        for _ in range(20):
            mdp = random_mdp(3, 2, 0.85, rng)
            r = rng.normal(size=(3, 2))
            vf = value_iteration(mdp, RewardTable(r))
            assert vf.v == pytest.approx(enumerate_optimal_values(mdp, r), abs=1e-8)

    def test_contraction_of_sweeps(self, rng):
        mdp = random_mdp(5, 3, 0.9, rng)
        r = rng.normal(size=(5, 3))
        v = np.zeros(5)
        deltas = []
        for _ in range(30):
            q = r + mdp.discount * (mdp.transitions @ v)
            v_new = q.max(axis=1)
            deltas.append(np.abs(v_new - v).max())
            v = v_new
        for prev, cur in zip(deltas, deltas[1:]):
            assert cur <= mdp.discount * prev + 1e-12

    def test_advantage_rowwise_max_is_zero(self, rng):
        mdp = random_mdp(4, 3, 0.7, rng)
        vf = value_iteration(mdp, RewardTable(rng.normal(size=(4, 3))))
        assert vf.advantage.max(axis=1) == pytest.approx(np.zeros(4), abs=1e-12)

    @pytest.mark.parametrize("entry", [0, 1])
    @pytest.mark.parametrize("shift", [-1e-14, 0.0, 1e-14])
    def test_exact_tie_resolves_to_lowest_action(self, entry, shift):
        mdp = one_state_mdp(0.9)
        r = np.ones((1, 2))
        r[0, entry] += shift
        reward = RewardTable(r)
        assert greedy_policy(value_iteration(mdp, reward)).actions().tolist() == [0]
        assert plan_unconstrained(mdp, reward).actions().tolist() == [0]

    @settings(max_examples=60, deadline=None)
    @given(
        num_states=st.integers(1, 4),
        num_actions=st.integers(2, 3),
        gamma=st.floats(0.0, 0.999999),
        seed=st.integers(0, 2**31),
    )
    def test_matches_enumeration_up_to_high_discount(self, num_states, num_actions, gamma, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(num_states, num_actions, gamma, rng)
        r = rng.normal(size=(num_states, num_actions))
        best = enumerate_optimal_values(mdp, r)
        bound = 1e-9 * (1.0 + np.abs(best).max()) / (1.0 - gamma)
        vf = value_iteration(mdp, RewardTable(r))
        assert np.abs(vf.v - best).max() <= bound
        revalued = policy_evaluation(mdp, greedy_policy(vf), RewardTable(r))
        assert np.abs(revalued.v - best).max() <= bound

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
    def test_matches_policy_iteration_without_warm_up(self, gamma, rng):
        # The sweeps only choose where Howard's steps start: the certified
        # optimum, and so the greedy policy, is the one plain policy iteration finds.
        cases = [(random_mdp(8, 3, gamma, rng), rng.normal(size=(8, 3))) for _ in range(10)]
        grid, _ = build_gridworld(GridworldSpec(10, 10, (0, 0), gamma))
        cases += [(grid, rng.integers(-1, 2, size=(100, 5)).astype(float)) for _ in range(5)]
        cases += [(grid, (rng.random((100, 5)) < 0.02).astype(float)) for _ in range(5)]
        for mdp, r in cases:
            vf = value_iteration(mdp, RewardTable(r))
            reference = howard_policy_iteration(mdp, r)
            assert np.array_equal(greedy_policy(vf).probs, greedy_policy(reference).probs)
            bound = 1e-12 * (1.0 + np.abs(reference.q).max()) / (1.0 - gamma)
            assert np.abs(vf.q - reference.q).max() <= bound

    def test_step_cap_raises_solver_error(self, monkeypatch):
        # The warm-up sweeps stay in state 0 (reward 1 a step); moving on to
        # state 2 (reward 5 a step, two moves away) is optimal, so a second
        # improvement step is needed.
        mdp = three_state_chain(0.5)
        r = RewardTable(CHAIN_CAP_REWARD)
        assert value_iteration(mdp, r).v == pytest.approx([2.5, 5.0, 10.0])
        monkeypatch.setattr(mdp_module, "MAX_POLICY_ITERATIONS", 1)
        with pytest.raises(SolverError):
            value_iteration(mdp, r)


class TestSoftValueIteration:
    def test_uniform_zero_reward(self):
        mdp = one_state_mdp(0.9)
        soft = soft_value_iteration(mdp, RewardTable([[0.0, 0.0]]), lam=1.0)
        assert soft.v[0] == pytest.approx(10.0 * np.log(2.0), abs=1e-8)

    def test_small_lambda_approaches_hard_optimum(self, rng):
        mdp = random_mdp(3, 2, 0.8, rng)
        r = rng.normal(size=(3, 2))
        hard = value_iteration(mdp, RewardTable(r))
        soft = soft_value_iteration(mdp, RewardTable(r), lam=1e-6)
        assert soft.v == pytest.approx(hard.v, abs=1e-4)

    def test_constant_reward_closed_form(self):
        mdp = one_state_mdp(0.5, num_actions=3)
        c = 0.7
        soft = soft_value_iteration(mdp, RewardTable([[c, c, c]]), lam=2.0)
        assert soft.v[0] == pytest.approx((c + 2.0 * np.log(3.0)) / 0.5, abs=1e-8)

    def test_soft_bellman_identity(self, rng):
        mdp = random_mdp(4, 3, 0.85, rng)
        soft = soft_value_iteration(mdp, RewardTable(rng.normal(size=(4, 3))), lam=0.5)
        lse = 0.5 * np.log(np.exp(soft.q / 0.5).sum(axis=1))
        assert soft.v == pytest.approx(lse, abs=1e-8)

    def test_sweep_cap_raises_solver_error(self, rng, monkeypatch):
        monkeypatch.setattr(mdp_module, "MAX_POLICY_ITERATIONS", 1)
        mdp = random_mdp(3, 2, 0.8, rng)
        with pytest.raises(SolverError):
            soft_value_iteration(mdp, RewardTable(rng.normal(size=(3, 2))), lam=1.0)

    def test_returns_at_discount_where_sweeps_stalled(self, rng):
        # Sweeps stopping on tol * (1 - gamma) / (2 * gamma) never returned here:
        # that step sits below the float spacing of v (|v| ~ 1e5).
        mdp = random_mdp(4, 3, 0.99999, rng)
        r = rng.normal(size=(4, 3))
        soft = soft_value_iteration(mdp, RewardTable(r), lam=1.0)
        scale = 1e-9 * (1.0 + np.abs(soft.v).max())
        top = soft.q.max(axis=1)
        lse = top + np.log(np.exp(soft.q - top[:, None]).sum(axis=1))
        assert np.abs(soft.v - lse).max() <= scale
        assert np.abs(soft.q - r - 0.99999 * mdp.transitions @ soft.v).max() <= scale

    @settings(max_examples=60, deadline=None)
    @given(
        num_states=st.integers(1, 4),
        num_actions=st.integers(2, 3),
        gamma=st.floats(0.0, 0.999999),
        lam=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**31),
    )
    def test_between_hard_optimum_and_entropy_bound(self, num_states, num_actions, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(num_states, num_actions, gamma, rng)
        r = rng.normal(size=(num_states, num_actions))
        best = enumerate_optimal_values(mdp, r)
        slack = 1e-9 * (1.0 + np.abs(best).max()) / (1.0 - gamma)
        v = soft_value_iteration(mdp, RewardTable(r), lam).v
        assert np.all(v >= best - slack)
        assert np.all(v <= best + lam * np.log(num_actions) / (1.0 - gamma) + slack)
        if gamma <= 0.95:
            reference = soft_values_by_sweeps(mdp, r, lam)
            assert np.abs(v - reference).max() <= 1e-9 * (1.0 + np.abs(v).max())


class TestPolicyEvaluation:
    def test_one_state_mixture(self):
        mdp = one_state_mdp(0.9)
        vf = policy_evaluation(mdp, PolicyTable([[0.5, 0.5]]), RewardTable([[1.0, 0.0]]))
        assert vf.v[0] == pytest.approx(5.0)

    def test_indicator_reward_of_own_actions(self, rng):
        mdp = random_mdp(4, 3, 0.6, rng)
        actions = rng.integers(3, size=4)
        policy = det_policy(actions, 3)
        r = np.zeros((4, 3))
        r[np.arange(4), actions] = 1.0
        vf = policy_evaluation(mdp, policy, RewardTable(r))
        assert vf.v == pytest.approx(np.full(4, 1.0 / 0.4))

    def test_two_state_chain_solve(self):
        mdp = fig_two_state_chain(0.5)
        r = np.zeros((2, 2))
        r[1, :] = 1.0
        vf = policy_evaluation(mdp, det_policy([1, 0], 2), RewardTable(r))
        assert vf.v == pytest.approx([1.0, 2.0])

    def test_greedy_policy_reproduces_optimal_value(self, rng):
        mdp = random_mdp(5, 3, 0.9, rng)
        r = RewardTable(rng.normal(size=(5, 3)))
        vf = value_iteration(mdp, r)
        revalued = policy_evaluation(mdp, greedy_policy(vf), r)
        assert revalued.v == pytest.approx(vf.v, abs=2e-10 / 0.1)


class TestOccupancy:
    def test_one_state_matches_policy(self):
        mdp = one_state_mdp(0.9)
        occ = occupancy_measure(mdp, PolicyTable([[0.3, 0.7]]))
        assert occ.d[0] == pytest.approx([0.3, 0.7])

    def test_self_loop_concentrates(self, rng):
        mdp = one_state_mdp(0.5)
        occ = occupancy_measure(mdp, det_policy([1], 2))
        assert occ.d[0] == pytest.approx([0.0, 1.0])

    def test_two_state_chain_flow(self):
        mdp = fig_two_state_chain(0.5)
        policy = PolicyTable([[0.0, 1.0], [0.25, 0.75]])
        occ = occupancy_measure(mdp, policy)
        assert occ.d[0] == pytest.approx([0.0, 0.5])
        assert occ.d[1] == pytest.approx([0.5 * 0.25, 0.5 * 0.75])

    def test_duality_with_policy_evaluation(self, rng):
        for _ in range(10):
            mdp = random_mdp(4, 2, 0.8, rng, initial_state=1)
            policy = random_policy(4, 2, rng)
            r = rng.normal(size=(4, 2))
            occ = occupancy_measure(mdp, policy)
            vf = policy_evaluation(mdp, policy, RewardTable(r))
            lhs = (occ.d * r).sum()
            assert lhs == pytest.approx((1 - 0.8) * vf.v[1], abs=1e-8)

    def test_support_matches_occupancy(self, rng):
        for _ in range(20):
            mdp = random_mdp(5, 2, 0.7, rng)
            probs = rng.dirichlet(np.ones(2), size=5)
            probs[rng.integers(5), :] = [1.0, 0.0]  # inject some exact zeros
            policy = PolicyTable(probs)
            support = reachable_support(mdp, policy)
            marginal = occupancy_measure(mdp, policy).state_marginal()
            assert support == {s for s in range(5) if marginal[s] > 1e-12}


class TestWMatrixAndKpi:
    def test_one_state(self):
        mdp = one_state_mdp(0.9)
        assert w_matrix(mdp, PolicyTable([[0.5, 0.5]])) == pytest.approx(np.array([[0.1]]))
        assert k_pi(mdp, PolicyTable([[0.5, 0.5]])) == pytest.approx(10.0)

    def test_identity_at_zero_discount(self, rng):
        mdp = random_mdp(3, 2, 0.0, rng)
        policy = random_policy(3, 2, rng)
        assert w_matrix(mdp, policy) == pytest.approx(np.eye(3))
        assert k_pi(mdp, policy) == pytest.approx(1.0)

    def test_row_sums(self, rng):
        mdp = random_mdp(4, 3, 0.6, rng)
        w = w_matrix(mdp, random_policy(4, 3, rng))
        assert w.sum(axis=1) == pytest.approx(np.full(4, 0.4))

    def test_two_state_self_loops(self):
        p = np.zeros((2, 2, 2))
        p[0, :, 0] = 1.0
        p[1, :, 1] = 1.0
        mdp = TabularMdp(2, 2, 0, p, 0.5)
        policy = random_policy(2, 2, np.random.default_rng(0))
        assert np.linalg.det(w_matrix(mdp, policy)) == pytest.approx(0.25)
        assert k_pi(mdp, policy) == pytest.approx(2.0)

    def test_k_pi_range_over_random_pairs(self, rng):
        for _ in range(1000):
            gamma = rng.uniform(0.0, 0.99)
            mdp = random_mdp(3, 2, gamma, rng)
            value = k_pi(mdp, random_policy(3, 2, rng))
            assert 1.0 / (1.0 + gamma) - 1e-12 <= value <= 1.0 / (1.0 - gamma) + 1e-9


class TestPolicies:
    def test_boltzmann_uniform_on_equal_q(self):
        policy = boltzmann_policy(np.array([[0.0, 0.0]]), 1.0)
        assert policy.probs[0] == pytest.approx([0.5, 0.5])

    def test_boltzmann_sharpens_to_argmax(self):
        policy = boltzmann_policy(np.array([[1.0, 0.0]]), 1e-4)
        assert policy.probs[0] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_boltzmann_closed_form(self):
        policy = boltzmann_policy(np.array([[1.0, 0.0]]), 1.0)
        e = np.e
        assert policy.probs[0] == pytest.approx([e / (e + 1), 1 / (e + 1)])

    def test_boltzmann_overflow_safe(self):
        policy = boltzmann_policy(np.array([[1e6, 0.0]]), 1.0)
        assert policy.probs[0, 0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.01, 100.0),
        beta=st.floats(-50.0, 50.0),
        seed=st.integers(0, 2**31),
    )
    def test_greedy_sets_invariant_under_rescaling(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(3, 3, 0.8, rng)
        r = rng.normal(size=(3, 3))
        base = value_iteration(mdp, RewardTable(r))
        scaled = value_iteration(mdp, RewardTable(alpha * r + beta))
        base_sets = [set(np.flatnonzero(row >= row.max() - 1e-8)) for row in base.q]
        scaled_sets = [
            set(np.flatnonzero(row >= row.max() - 1e-8 * alpha)) for row in scaled.q
        ]
        assert base_sets == scaled_sets


# Every reader of a support set, called on a 3-state, 2-action instance.
SUPPORT_READERS = {
    "CentroidRequest": lambda mdp, expert, support: CentroidRequest(expert, support, OPT),
    "is_feasible": lambda mdp, expert, support: is_feasible(
        mdp, expert, support, RewardTable(np.zeros((3, 2))), BehaviorModel.opt()
    ),
    "bc_policy": lambda mdp, expert, support: bc_policy(expert, support),
    "best_case_reward": lambda mdp, expert, support: best_case_reward(mdp, expert, support, 0),
    **{
        f"exact_estimate_{kind}": lambda mdp, expert, support, kind=kind: exact_estimate(expert, support, kind)
        for kind in ("opt", "mce", "birl")
    },
}


class TestSupportMask:
    def test_marks_the_given_states(self):
        assert support_mask({2, 0}, 3).tolist() == [True, False, True]
        assert support_mask(np.array([1]), 2).tolist() == [False, True]
        assert not support_mask(frozenset(), 2).any()

    @pytest.mark.parametrize("state", [-1, 3])
    def test_state_outside_the_table_is_a_domain_error(self, state):
        with pytest.raises(DomainError, match="support state out of range"):
            support_mask({0, state}, 3)

    @pytest.mark.parametrize("state", [-1, 3])
    @pytest.mark.parametrize("reader", sorted(SUPPORT_READERS))
    def test_every_support_reader_rejects_a_state_outside_the_table(self, rng, reader, state):
        # -1 would index the last state and 3 would raise an IndexError
        mdp = random_mdp(3, 2, 0.5, rng)
        with pytest.raises(DomainError, match="support state out of range"):
            SUPPORT_READERS[reader](mdp, det_policy([0, 1, 0], 2), {0, state})

    @pytest.mark.parametrize("reader", ["is_feasible", "best_case_reward"])
    def test_expert_of_another_size_is_a_domain_error(self, rng, reader):
        # a 2-state expert for the 3-state MDP, not an IndexError from the mask
        mdp = random_mdp(3, 2, 0.5, rng)
        with pytest.raises(DomainError, match=r"expert has shape \(2, 2\), expected \(3, 2\)"):
            SUPPORT_READERS[reader](mdp, det_policy([0, 1], 2), {0})
