import itertools
import re

import numpy as np
import pytest

from rewardcentroids.centroids import (
    AffineFit,
    CentroidRequest,
    affine_fit,
    centroid,
    constant_fit,
    enumerate_extensions,
    weighted_centroid_opt,
)
from rewardcentroids.errors import DomainError
from rewardcentroids.geometry import BIRL, MCE, OPT, AdvantageGap, BehaviorModel, bounding_box, BoundedSetParams, eta_birl, eta_mce, t_operator, u_operator
from rewardcentroids.mdp import (
    PolicyTable,
    RewardTable,
    greedy_policy,
    policy_evaluation,
    random_mdp,
    value_iteration,
)

from conftest import det_policy


def opt_request(expert, support):
    return CentroidRequest(
        expert=expert,
        support=frozenset(support),
        kind=OPT,
    )


class TestClosedForms:
    def test_opt_partial_support(self):
        expert = det_policy([0, 0], 2)
        r = centroid(opt_request(expert, {0}))
        assert r.values == pytest.approx(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_opt_full_support_is_indicator(self):
        expert = det_policy([1, 0, 1], 2)
        r = centroid(opt_request(expert, {0, 1, 2}))
        expected = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert r.values == pytest.approx(expected)

    def test_opt_empty_support_is_flat(self):
        expert = det_policy([0, 1], 3)
        r = centroid(opt_request(expert, set()))
        assert r.values == pytest.approx(np.full((2, 3), 1.0 / 3.0))

    def test_opt_rejects_stochastic_expert_on_support(self):
        with pytest.raises(DomainError):
            opt_request(PolicyTable([[0.5, 0.5]]), {0})

    def test_mce_uniform(self):
        req = CentroidRequest(
            expert=PolicyTable([[0.5, 0.5]]),
            support=frozenset({0}),
            kind=MCE,
        )
        assert centroid(req).values[0] == pytest.approx([np.log(0.5)] * 2)

    def test_mce_example_row(self):
        req = CentroidRequest(
            expert=PolicyTable([[1 / 3, 2 / 3]]),
            support=frozenset({0}),
            kind=MCE,
        )
        assert centroid(req).values[0] == pytest.approx([np.log(1 / 3), np.log(2 / 3)])

    def test_mce_near_deterministic(self):
        req = CentroidRequest(
            expert=PolicyTable([[1 - 1e-6, 1e-6]]),
            support=frozenset({0}),
            kind=MCE,
        )
        vals = centroid(req).values[0]
        assert vals[0] == pytest.approx(-1e-6, abs=1e-9)
        assert vals[1] == pytest.approx(np.log(1e-6), abs=1e-4)

    def test_mce_requires_full_support(self):
        with pytest.raises(DomainError):
            CentroidRequest(
                expert=PolicyTable([[0.5, 0.5], [0.5, 0.5]]),
                support=frozenset({0}),
                kind=MCE,
            )

    def test_birl_uniform_is_zero(self):
        req = CentroidRequest(
            expert=PolicyTable([[0.5, 0.5]]),
            support=frozenset({0}),
            kind=BIRL,
        )
        assert np.all(centroid(req).values == 0.0)

    def test_birl_example_row(self):
        req = CentroidRequest(
            expert=PolicyTable([[1 / 3, 2 / 3]]),
            support=frozenset({0}),
            kind=BIRL,
        )
        assert centroid(req).values[0] == pytest.approx([np.log(0.5), 0.0])

    def test_birl_rejects_zero_entries(self):
        with pytest.raises(DomainError):
            CentroidRequest(
                expert=det_policy([0], 2),
                support=frozenset({0}),
                kind=BIRL,
            )

    def test_dimensions_are_read_off_the_expert(self):
        req = opt_request(det_policy([0, 2], 3), {1})
        assert (req.num_states, req.num_actions) == (2, 3)

    @pytest.mark.parametrize("kind", ["OPT", "maxent", None])
    def test_unknown_kind_is_a_domain_error(self, kind):
        with pytest.raises(DomainError, match=re.escape(f"unknown behavior model {kind!r}; accepted")):
            CentroidRequest(expert=det_policy([0, 1], 2), support=frozenset({0, 1}), kind=kind)


class TestStructure:
    def test_birl_rowwise_single_zero(self, rng):
        probs = rng.dirichlet(np.ones(3), size=4) * 0.7 + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        req = CentroidRequest(
            expert=PolicyTable(probs),
            support=frozenset(range(4)),
            kind=BIRL,
        )
        vals = centroid(req).values
        assert np.all(vals.max(axis=1) == 0.0)
        assert np.all((vals == 0.0).sum(axis=1) == 1)  # unique rowwise max a.s.

    def test_mce_minus_birl_is_row_constant(self, rng):
        probs = rng.dirichlet(np.ones(3), size=5) * 0.7 + 0.1
        probs /= probs.sum(axis=1, keepdims=True)
        expert = PolicyTable(probs)
        support = frozenset(range(5))
        mce = centroid(
            CentroidRequest(expert=expert, support=support, kind=MCE)
        )
        birl = centroid(
            CentroidRequest(expert=expert, support=support, kind=BIRL)
        )
        diff = mce.values - birl.values
        assert np.ptp(diff, axis=1) == pytest.approx(np.zeros(5), abs=1e-12)


class TestWeightedCentroid:
    def test_uniform_weights_reduce_to_the_centroid(self):
        expert = det_policy([0, 0, 1], 2)
        req = opt_request(expert, {0})
        _, extensions = enumerate_extensions(req)
        q = np.full(len(extensions), 1.0 / len(extensions))
        assert weighted_centroid_opt(req, q).values == pytest.approx(
            centroid(req).values
        )

    def test_point_mass_reproduces_extension_indicator(self):
        expert = det_policy([0, 0], 2)
        req = opt_request(expert, {0})
        off, extensions = enumerate_extensions(req)
        assert off == [1]
        for j, ext in enumerate(extensions):
            q = np.zeros(len(extensions))
            q[j] = 1.0
            vals = weighted_centroid_opt(req, q).values
            expected_row = np.zeros(2)
            expected_row[ext[0]] = 1.0
            assert vals[1] == pytest.approx(expected_row)
            assert vals[0] == pytest.approx([1.0, 0.0])

    def test_two_extensions_half_weights(self):
        expert = det_policy([0, 0], 2)
        req = opt_request(expert, {0})
        vals = weighted_centroid_opt(req, np.array([0.5, 0.5])).values
        assert set(np.round(vals.ravel(), 12)) <= {0.0, 0.5, 1.0}

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
    @pytest.mark.parametrize(
        "q", [np.zeros(2), np.ones(3), [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [-1.0, 2.0]]
    )
    def test_rejects_bad_weights(self, q):
        req = opt_request(det_policy([0, 0], 2), {0})
        with pytest.raises(DomainError, match="^q must"):
            weighted_centroid_opt(req, np.array(q))

    def test_rejects_a_non_opt_request(self):
        req = CentroidRequest(expert=PolicyTable([[0.5, 0.5]]), support=frozenset({0}), kind=MCE)
        with pytest.raises(DomainError, match="^weighted_centroid_opt requires an OPT request$"):
            weighted_centroid_opt(req, np.ones(1))

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_sum_overflows_give_the_uniform_table(self):
        req = opt_request(det_policy([0, 0], 2), {0})
        huge = weighted_centroid_opt(req, np.array([1e308, 1e308])).values
        assert np.array_equal(huge, weighted_centroid_opt(req, np.array([1.0, 1.0])).values)

    def test_against_weighted_rejection_oracle(self):
        # Weighted mean over the bounded OPT set, restricted to rewards whose
        # optimal policy extends the expert, weighting each sample by q of
        # that extension.  Written with raw linear algebra, independent of
        # the closed form it checks.
        rng = np.random.default_rng(77)
        mdp = random_mdp(2, 2, 0.5, rng)
        c1 = c2 = 1.0
        expert = det_policy([0, 0], 2)
        req = opt_request(expert, {0})
        q_by_ext = {(0,): 0.8, (1,): 0.2}

        policies = list(itertools.product(range(2), repeat=2))
        inv_w = {}
        k_of = {}
        for acts in policies:
            p_pi = mdp.transitions[np.arange(2), list(acts)]
            w = np.eye(2) - 0.5 * p_pi
            inv_w[acts] = np.linalg.inv(w)
            k_of[acts] = abs(np.linalg.det(w)) ** -0.5

        lo, hi = bounding_box(
            BoundedSetParams(c1=c1, c2=c2, model=BehaviorModel.opt()), 0.5
        )
        total = np.zeros((2, 2))
        weight_sum = 0.0
        n = 1_500_000
        samples = rng.uniform(lo, hi, size=(n, 2, 2))
        values = {}
        optimal = {}
        for acts in policies:
            r_pi = samples[:, np.arange(2), list(acts)]
            v = r_pi @ inv_w[acts].T
            qtab = samples + 0.5 * np.einsum("sap,np->nsa", mdp.transitions, v)
            gap = qtab - v[:, :, None]
            gap[:, np.arange(2), list(acts)] = 0.0
            values[acts] = v
            optimal[acts] = (gap <= 0.0).all(axis=(1, 2))
        in_bounded = np.ones(n, dtype=bool)
        any_opt = np.zeros(n, dtype=bool)
        for acts in policies:
            r_pi = samples[:, np.arange(2), list(acts)]
            v = values[acts]
            qtab = samples + 0.5 * np.einsum("sap,np->nsa", mdp.transitions, v)
            ok = (np.abs(v) <= c1 * k_of[acts]).all(axis=1)
            ok &= (np.abs(qtab - v[:, :, None]) <= c2).all(axis=(1, 2))
            in_bounded &= ~(optimal[acts] & ~ok)
            any_opt |= optimal[acts]
        in_bounded &= any_opt
        for acts in policies:
            if acts[0] != 0:  # must extend the expert at state 0
                continue
            ext = (acts[1],)
            mask = in_bounded & optimal[acts]
            total += q_by_ext[ext] * samples[mask].sum(axis=0)
            weight_sum += q_by_ext[ext] * mask.sum()
        oracle_mean = total / weight_sum

        closed = weighted_centroid_opt(req, np.array([0.8, 0.2]))
        fit = affine_fit(RewardTable(oracle_mean), closed)
        assert fit.alpha > 0
        assert fit.residual_sup <= 0.05
        # the complemented off-support row is decisively rejected
        printed = closed.values.copy()
        printed[1] = printed[1][::-1]
        bad_fit = affine_fit(RewardTable(oracle_mean), RewardTable(printed))
        assert bad_fit.residual_sup > 3 * fit.residual_sup


class TestAffineFit:
    def test_exact_affine_relation(self, rng):
        ref = RewardTable(rng.normal(size=(3, 2)))
        est = RewardTable(2.0 * ref.values + 3.0)
        fit = affine_fit(est, ref)
        assert fit == AffineFit(alpha=pytest.approx(2.0), beta=pytest.approx(3.0), residual_sup=pytest.approx(0.0, abs=1e-12))

    def test_identity(self, rng):
        ref = RewardTable(rng.normal(size=(2, 2)))
        fit = affine_fit(ref, ref)
        assert fit.alpha == pytest.approx(1.0)
        assert fit.beta == pytest.approx(0.0, abs=1e-12)

    def test_noise_level_reflected_in_residual(self, rng):
        ref = RewardTable(rng.normal(size=(10, 5)))
        noise = rng.uniform(-0.01, 0.01, size=(10, 5))
        fit = affine_fit(RewardTable(ref.values + noise), ref)
        assert fit.residual_sup <= 0.02
        assert fit.residual_sup >= 1e-4

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DomainError, match="^estimate and reference must share a shape$"):
            affine_fit(RewardTable([[1.0, 2.0]]), RewardTable([[1.0, 2.0, 3.0]]))
        with pytest.raises(DomainError, match="^estimate and reference must share a shape$"):
            affine_fit(RewardTable([[1.0, 2.0]]), RewardTable([[1.0], [2.0]]))

    def test_rejects_constant_reference(self):
        with pytest.raises(DomainError):
            affine_fit(RewardTable([[1.0, 2.0]]), RewardTable([[3.0, 3.0]]))

    def test_constant_fit(self):
        beta, residual = constant_fit(RewardTable([[1.0, 3.0]]))
        assert beta == pytest.approx(2.0)
        assert residual == pytest.approx(1.0)


class TestImitationConsistency:
    def _assert_optimal(self, mdp, planned, r_e):
        achieved = policy_evaluation(mdp, planned, r_e).v[mdp.initial_state]
        best = value_iteration(mdp, r_e).v[mdp.initial_state]
        assert achieved == pytest.approx(best, abs=1e-7)

    def test_opt_centroid_recovers_optimal_behavior(self, rng):
        for _ in range(30):
            mdp = random_mdp(4, 3, rng.uniform(0.3, 0.9), rng)
            actions = rng.integers(3, size=4)
            expert = det_policy(actions, 3)
            gaps = -rng.uniform(0.05, 1.0, size=(4, 3))
            gaps[np.arange(4), actions] = 0.0
            r_e = t_operator(mdp, expert, rng.normal(size=4), AdvantageGap(gaps))
            closed = centroid(opt_request(expert, range(4)))
            planned = greedy_policy(value_iteration(mdp, closed))
            self._assert_optimal(mdp, planned, r_e)

    def test_mce_centroid_recovers_optimal_behavior(self, rng):
        for _ in range(30):
            mdp = random_mdp(4, 3, rng.uniform(0.3, 0.9), rng)
            probs = rng.dirichlet(np.ones(3), size=4) * 0.8 + 0.2 / 3
            probs /= probs.sum(axis=1, keepdims=True)
            expert = PolicyTable(probs)
            r_e = u_operator(mdp, eta_mce(expert, 0.7), rng.normal(size=4))
            req = CentroidRequest(
                expert=expert, support=frozenset(range(4)), kind=MCE
            )
            closed = centroid(req)
            planned = greedy_policy(value_iteration(mdp, closed))
            self._assert_optimal(mdp, planned, r_e)

    def test_birl_centroid_recovers_optimal_behavior(self, rng):
        for _ in range(30):
            mdp = random_mdp(4, 3, rng.uniform(0.3, 0.9), rng)
            probs = rng.dirichlet(np.ones(3), size=4) * 0.8 + 0.2 / 3
            probs /= probs.sum(axis=1, keepdims=True)
            expert = PolicyTable(probs)
            r_e = u_operator(mdp, eta_birl(expert, 1.2), rng.normal(size=4))
            req = CentroidRequest(
                expert=expert, support=frozenset(range(4)), kind=BIRL
            )
            closed = centroid(req)
            planned = greedy_policy(value_iteration(mdp, closed))
            self._assert_optimal(mdp, planned, r_e)

    def test_birl_centroid_transfers_to_new_environments(self, rng):
        # Rowwise-zero-max structure: any greedy policy of the centroid earns
        # exactly 0 in every environment, which is the optimal value there.
        probs = rng.dirichlet(np.ones(3), size=4) * 0.8 + 0.2 / 3
        probs /= probs.sum(axis=1, keepdims=True)
        expert = PolicyTable(probs)
        req = CentroidRequest(
            expert=expert, support=frozenset(range(4)), kind=BIRL
        )
        closed = centroid(req)
        assert np.all(closed.values.max(axis=1) == 0.0)
        for _ in range(10):
            new_env = random_mdp(4, 3, rng.uniform(0.1, 0.95), rng, initial_state=int(rng.integers(4)))
            vf = value_iteration(new_env, closed)
            planned = greedy_policy(vf)
            assert vf.v == pytest.approx(np.zeros(4), abs=1e-9)
            assert np.all(planned.actions() == np.argmax(closed.values, axis=1))
