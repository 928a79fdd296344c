import re

import numpy as np
import pytest

from rewardcentroids import mclab
from rewardcentroids.errors import DomainError
from rewardcentroids.geometry import (
    AdvantageGap,
    BehaviorModel,
    BoundedSetParams,
    bounding_box,
    check_expert,
    default_bounded_params,
    eta_birl,
    eta_mce,
    is_feasible,
    is_in_bounded_set,
    shaping,
    shaping_matrix,
    t_matrix,
    t_operator,
    u_operator,
)
from rewardcentroids.mdp import (
    PolicyTable,
    RewardTable,
    boltzmann_policy,
    check_positive,
    random_mdp,
    soft_value_iteration,
    value_iteration,
    w_matrix,
)

from conftest import det_policy, one_state_mdp


def strictly_positive_policy(rng, num_states, num_actions):
    probs = rng.dirichlet(np.ones(num_actions), size=num_states) * 0.8
    probs += 0.2 / num_actions
    return PolicyTable(probs / probs.sum(axis=1, keepdims=True))


class TestBehaviorModel:
    def test_opt_rejects_coefficients(self):
        with pytest.raises(DomainError):
            BehaviorModel("opt", coefficient=1.0)

    @pytest.mark.parametrize("kind", ["maxent", "OPT", None])
    def test_unknown_kind_names_the_accepted_ones(self, kind):
        message = f"unknown behavior model {kind!r}; accepted: ['opt', 'mce', 'birl']"
        with pytest.raises(DomainError, match=re.escape(message)):
            BehaviorModel(kind)

    def test_mce_requires_positive_lambda(self):
        with pytest.raises(DomainError):
            BehaviorModel.mce(0.0)

    @pytest.mark.parametrize(
        "c1, c2, bad",
        [(np.nan, 1.0, "c1"), (1.0, np.nan, "c2"), (np.inf, 1.0, "c1"), (1.0, np.inf, "c2"),
         (0.0, 1.0, "c1"), (1.0, -1.0, "c2")],
    )
    def test_bounded_set_constants_must_be_finite_and_positive(self, c1, c2, bad):
        # a nan passed the old `<= 0` test and made bounding_box (nan, nan)
        with pytest.raises(DomainError, match=f"^{bad} must be finite and positive, not "):
            BoundedSetParams(c1=c1, c2=c2, model=BehaviorModel.opt())


ONE_STATE = one_state_mdp()
HALF = PolicyTable([[0.5, 0.5]])
ZERO = RewardTable(np.zeros((1, 2)))
UNIT_OPT = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())

# every parameter that must be a finite positive number: (name, call taking its value)
POSITIVE_SITES = {
    "BehaviorModel.mce": ("lam", BehaviorModel.mce),
    "BehaviorModel.birl": ("beta", BehaviorModel.birl),
    "BoundedSetParams.c1": ("c1", lambda v: BoundedSetParams(v, 1.0, BehaviorModel.opt())),
    "BoundedSetParams.c2": ("c2", lambda v: BoundedSetParams(1.0, v, BehaviorModel.opt())),
    "soft_value_iteration": ("lam", lambda v: soft_value_iteration(ONE_STATE, ZERO, v)),
    "boltzmann_policy": ("temperature", lambda v: boltzmann_policy(np.zeros((1, 2)), v)),
    "eta_mce": ("lam", lambda v: eta_mce(HALF, v)),
    "eta_birl": ("beta", lambda v: eta_birl(HALF, v)),
    "is_feasible": ("tol", lambda v: is_feasible(ONE_STATE, HALF, {0}, ZERO, BehaviorModel.mce(1.0), v)),
    "is_in_bounded_set": ("tol", lambda v: is_in_bounded_set(ONE_STATE, ZERO, UNIT_OPT, v)),
    "segment_volume_1d": ("box_halfwidth", lambda v: mclab.segment_volume_1d(HALF, BehaviorModel.mce(1.0), v)),
    "mc_centroid_manifold": ("c1", lambda v: mclab.mc_centroid_manifold(ONE_STATE, ZERO, v, 10, 0)),
    "new_env_bias_ratio": ("c2", lambda v: mclab.new_env_bias_ratio(v, 10, 0)),
    "new_env_bias_ratio_closed_form": ("c2", mclab.new_env_bias_ratio_closed_form),
    "mc_volume_fraction": (
        "the box width hi - lo",
        lambda v: mclab.mc_volume_fraction(ONE_STATE, det_policy([0], 2), BehaviorModel.opt(), (0.0, v), 10, 0),
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_positive_parameters_must_be_finite_and_positive(site, value):
    # `x <= 0` let NaN through at these sites, and +inf through most of them
    name, call = POSITIVE_SITES[site]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be finite and positive, not {value!r}$"):
        call(value)


def test_check_positive_takes_finite_positive_numbers_alone():
    assert check_positive(2, "x") == 2.0 and type(check_positive(np.float32(0.5), "x")) is float
    for value in (None, "1.0", np.array([1.0])):
        with pytest.raises(DomainError, match="^x must be finite and positive, not "):
            check_positive(value, "x")


class TestOperators:
    def test_t_operator_zero_case(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        policy = det_policy([0, 1, 0], 2)
        r = t_operator(mdp, policy, np.zeros(3), AdvantageGap(np.zeros((3, 2))))
        assert np.all(r.values == 0.0)

    def test_t_operator_inverts_one_state_example(self):
        mdp = one_state_mdp(0.9)
        gaps = AdvantageGap([[0.0, -1.0]])
        r = t_operator(mdp, det_policy([0], 2), np.array([10.0]), gaps)
        assert r.values[0] == pytest.approx([1.0, 0.0])

    def test_t_operator_round_trip(self, rng):
        for _ in range(20):
            mdp = random_mdp(3, 3, 0.75, rng)
            actions = rng.integers(3, size=3)
            policy = det_policy(actions, 3)
            v = rng.normal(size=3)
            gaps = -rng.uniform(0.05, 1.0, size=(3, 3))
            gaps[np.arange(3), actions] = 0.0
            r = t_operator(mdp, policy, v, AdvantageGap(gaps))
            vf = value_iteration(mdp, r)
            assert vf.v == pytest.approx(v, abs=1e-8)
            assert vf.advantage == pytest.approx(gaps, abs=1e-8)

    def test_t_operator_rejects_stochastic_policy(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        with pytest.raises(DomainError):
            t_operator(mdp, PolicyTable([[0.5, 0.5], [1.0, 0.0]]), np.zeros(2), AdvantageGap(np.zeros((2, 2))))

    def test_one_hot_rows_are_deterministic_without_a_flag(self, rng):
        # determinism is read from the table: PolicyTable(one-hot rows) is
        # the same policy as from_actions, for both operators
        mdp = random_mdp(3, 2, 0.7, rng)
        actions = [1, 0, 1]
        table, built = PolicyTable(np.eye(2)[actions]), PolicyTable.from_actions(actions, 2)
        v = rng.normal(size=3)
        gaps = -rng.uniform(0.05, 1.0, size=(3, 2))
        gaps[np.arange(3), actions] = 0.0
        assert np.array_equal(
            t_operator(mdp, table, v, AdvantageGap(gaps)).values,
            t_operator(mdp, built, v, AdvantageGap(gaps)).values,
        )
        assert np.array_equal(t_matrix(mdp, table), t_matrix(mdp, built))

    def test_u_operator_identity_at_zero_values(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        eta = RewardTable(rng.normal(size=(2, 2)))
        assert u_operator(mdp, eta, np.zeros(2)).values == pytest.approx(eta.values)

    def test_batched_shaping_matches_u_operator_per_row(self, rng):
        for S, A in ((1, 2), (2, 2), (3, 2), (2, 3), (5, 4)):
            mdp = random_mdp(S, A, 0.9, rng)
            eta = RewardTable(rng.normal(size=(S, A)))
            v = rng.uniform(-3.0, 3.0, size=(4, 5, S))
            batched = shaping(mdp, v) + eta.values
            assert batched.shape == (4, 5, S, A)
            matrix = shaping_matrix(mdp)
            assert matrix.shape == (S * A, S)
            for i, j in np.ndindex(4, 5):
                r = u_operator(mdp, eta, v[i, j]).values
                bound = 2.0 * np.finfo(float).eps * (1.0 + np.abs(r).max())
                assert np.abs(batched[i, j] - r).max() <= bound
                # a product of S terms adds up to S roundings of |matrix| @ |v|
                product_error = S * np.finfo(float).eps * (np.abs(matrix) @ np.abs(v[i, j])).max()
                by_matrix = (matrix @ v[i, j]).reshape(S, A) + eta.values
                assert np.abs(by_matrix - r).max() <= bound + product_error

    def test_u_operator_constant_values(self, rng):
        mdp = random_mdp(3, 2, 0.4, rng)
        r = u_operator(mdp, RewardTable(np.zeros((3, 2))), np.full(3, 2.0))
        assert r.values == pytest.approx(np.full((3, 2), 2.0 * 0.6))

    def test_u_operator_round_trip_mce(self, rng):
        for _ in range(10):
            mdp = random_mdp(3, 2, 0.7, rng)
            policy = strictly_positive_policy(rng, 3, 2)
            lam = 0.8
            v = rng.normal(size=3)
            r = u_operator(mdp, eta_mce(policy, lam), v)
            soft = soft_value_iteration(mdp, r, lam)
            assert soft.v == pytest.approx(v, abs=1e-7)
            assert soft.advantage == pytest.approx(lam * np.log(policy.probs), abs=1e-7)

    def test_u_operator_round_trip_birl(self, rng):
        for _ in range(10):
            mdp = random_mdp(3, 2, 0.7, rng)
            policy = strictly_positive_policy(rng, 3, 2)
            beta = 1.3
            v = rng.normal(size=3)
            r = u_operator(mdp, eta_birl(policy, beta), v)
            vf = value_iteration(mdp, r)
            expected_adv = beta * (
                np.log(policy.probs) - np.log(policy.probs.max(axis=1, keepdims=True))
            )
            assert vf.v == pytest.approx(v, abs=1e-7)
            assert vf.advantage == pytest.approx(expected_adv, abs=1e-7)


class TestEta:
    def test_eta_mce_uniform(self):
        assert eta_mce(PolicyTable([[0.5, 0.5]]), 1.0).values[0] == pytest.approx(
            [np.log(0.5)] * 2
        )

    def test_eta_mce_scaling_linearity(self):
        policy = PolicyTable([[1.0 / 3.0, 2.0 / 3.0]])
        assert eta_mce(policy, 2.0).values == pytest.approx(2.0 * eta_mce(policy, 1.0).values)

    def test_eta_mce_rejects_zero_entries(self):
        with pytest.raises(DomainError):
            eta_mce(PolicyTable([[1.0, 0.0]]), 1.0)

    def test_eta_birl_uniform_is_zero(self):
        assert np.all(eta_birl(PolicyTable([[0.5, 0.5]]), 1.0).values == 0.0)

    def test_eta_birl_example(self):
        vals = eta_birl(PolicyTable([[1.0 / 3.0, 2.0 / 3.0]]), 1.0).values[0]
        assert vals == pytest.approx([np.log(0.5), 0.0])

    def test_eta_birl_near_deterministic(self):
        vals = eta_birl(PolicyTable([[1.0 - 1e-6, 1e-6]]), 1.0).values[0]
        assert vals[1] == pytest.approx(np.log(1e-6), abs=1e-5)
        assert vals[0] == pytest.approx(0.0, abs=1e-5)


class TestCheckExpert:
    def test_opt_reads_only_the_masked_rows(self):
        expert = PolicyTable([[0.0, 1.0], [0.5, 0.5]])
        assert check_expert(expert, np.array([True, False]), "opt", "x").tolist() == [1, 0]
        with pytest.raises(DomainError, match="x must be deterministic"):
            check_expert(expert, slice(None), "opt", "x")

    @pytest.mark.parametrize("kind", ["mce", "birl"])
    def test_mce_and_birl_need_strictly_positive_rows(self, kind):
        expert = PolicyTable([[0.5, 0.5], [1.0, 0.0]])
        assert check_expert(expert, np.array([True, False]), kind, "x").tolist() == [0, 0]
        with pytest.raises(DomainError, match="x must be strictly positive"):
            check_expert(expert, slice(None), kind, "x")


class TestFeasibility:
    def test_t_operator_output_is_opt_feasible(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        actions = rng.integers(2, size=3)
        policy = det_policy(actions, 2)
        gaps = -rng.uniform(0.1, 1.0, size=(3, 2))
        gaps[np.arange(3), actions] = 0.0
        r = t_operator(mdp, policy, rng.normal(size=3), AdvantageGap(gaps))
        assert is_feasible(mdp, policy, frozenset(range(3)), r, BehaviorModel.opt())

    def test_u_operator_output_is_mce_feasible(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        policy = strictly_positive_policy(rng, 3, 2)
        r = u_operator(mdp, eta_mce(policy, 1.0), rng.normal(size=3))
        assert is_feasible(mdp, policy, frozenset(range(3)), r, BehaviorModel.mce(1.0))

    def test_wrong_argmax_is_infeasible(self):
        mdp = one_state_mdp(0.9)
        assert not is_feasible(
            mdp,
            det_policy([0], 2),
            frozenset({0}),
            RewardTable([[0.0, 1.0]]),
            BehaviorModel.opt(),
        )

    def test_birl_feasibility_round_trip(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        policy = strictly_positive_policy(rng, 3, 2)
        r = u_operator(mdp, eta_birl(policy, 0.9), rng.normal(size=3))
        assert is_feasible(mdp, policy, frozenset(range(3)), r, BehaviorModel.birl(0.9))

    def test_support_restriction_ignores_off_support_states(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        actions = np.array([0, 1, 0])
        policy = det_policy(actions, 2)
        gaps = np.zeros((3, 2))
        gaps[0, 1] = -0.5
        gaps[1, 0] = -0.5
        gaps[2, 1] = -0.5
        r = t_operator(mdp, policy, rng.normal(size=3), AdvantageGap(gaps))
        # break state 2 by a large bonus on the non-chosen action
        broken = r.values.copy()
        broken[2, 1] += 10.0
        assert is_feasible(mdp, policy, frozenset({0, 1}), RewardTable(broken), BehaviorModel.opt())

    def test_tolerance_must_be_positive(self, rng):
        mdp = one_state_mdp()
        with pytest.raises(DomainError):
            is_feasible(mdp, det_policy([0], 2), {0}, RewardTable([[0.0, 0.0]]), BehaviorModel.opt(), tol=0.0)


class TestBoundedSet:
    def test_zero_reward_inside_for_any_opt_birl_constants(self, rng):
        mdp = random_mdp(3, 2, 0.8, rng)
        zero = RewardTable(np.zeros((3, 2)))
        for model in (BehaviorModel.opt(), BehaviorModel.birl(1.0)):
            params = BoundedSetParams(c1=1e-6, c2=1e-6, model=model)
            assert is_in_bounded_set(mdp, zero, params)

    def test_zero_reward_mce_needs_entropy_slack(self, rng):
        # the soft value of the zero reward is log(A)/(1-gamma), not 0
        mdp = random_mdp(3, 2, 0.8, rng)
        zero = RewardTable(np.zeros((3, 2)))
        model = BehaviorModel.mce(1.0)
        tight = BoundedSetParams(c1=0.5, c2=0.5, model=model)
        assert not is_in_bounded_set(mdp, zero, tight)
        roomy = BoundedSetParams(
            c1=np.log(2.0) / 0.2 + 0.1, c2=np.log(2.0) + 0.1, model=model
        )
        assert is_in_bounded_set(mdp, zero, roomy)

    def test_one_state_boundary_case(self):
        mdp = one_state_mdp(0.9)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        assert is_in_bounded_set(mdp, RewardTable([[1.0, 0.0]]), params)
        assert not is_in_bounded_set(mdp, RewardTable([[1.1, 0.0]]), params)

    def test_mce_violated_value_bound(self, rng):
        mdp = one_state_mdp(0.5)
        params = BoundedSetParams(c1=1.0, c2=5.0, model=BehaviorModel.mce(1.0))
        # constant reward c has soft value (c + log 2) / (1 - gamma) = 2c + 2 log 2
        assert not is_in_bounded_set(mdp, RewardTable([[2.0, 2.0]]), params)

    def test_inclusion_of_unit_hypercube(self, rng):
        for model in (BehaviorModel.opt(), BehaviorModel.mce(1.0), BehaviorModel.birl(1.0)):
            for _ in range(5):
                gamma = rng.uniform(0.1, 0.9)
                mdp = random_mdp(2, 2, gamma, rng)
                params = default_bounded_params(model, gamma, 2)
                r = RewardTable(rng.uniform(-1.0, 1.0, size=(2, 2)))
                assert is_in_bounded_set(mdp, r, params)

    def test_outside_bounding_box_fails(self, rng):
        for _ in range(5):
            gamma = 0.5
            mdp = random_mdp(2, 2, gamma, rng)
            params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
            _, hi = bounding_box(params, gamma)
            r = rng.uniform(-1, 1, size=(2, 2))
            r[0, 0] = hi + 1.0
            assert not is_in_bounded_set(mdp, RewardTable(r), params)


class TestBoundingBox:
    def test_reference_values(self):
        params = BoundedSetParams(c1=19.0, c2=19.0, model=BehaviorModel.opt())
        assert bounding_box(params, 0.9) == pytest.approx((-380.0, 361.0))
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        assert bounding_box(params, 0.0) == pytest.approx((-2.0, 1.0))
        assert bounding_box(params, 0.5) == pytest.approx((-4.0, 3.0))


def abs_dets(mdp, policy):
    """(|det T|, |det W|) of the policy's t_matrix and w_matrix."""
    return abs(np.linalg.det(t_matrix(mdp, policy))), abs(np.linalg.det(w_matrix(mdp, policy)))


class TestTMatrix:
    def test_one_state_two_actions(self):
        det_t, det_w = abs_dets(one_state_mdp(0.9), det_policy([0], 2))
        assert det_t == pytest.approx(0.1)
        assert det_w == pytest.approx(0.1)

    def test_zero_discount_identity(self, rng):
        det_t, det_w = abs_dets(random_mdp(2, 2, 0.0, rng), det_policy([1, 0], 2))
        assert det_t == pytest.approx(1.0)
        assert det_w == pytest.approx(1.0)

    def test_matrix_reproduces_operator(self, rng):
        mdp = random_mdp(3, 3, 0.7, rng)
        actions = rng.integers(3, size=3)
        policy = det_policy(actions, 3)
        v = rng.normal(size=3)
        gaps = -rng.uniform(0.0, 1.0, size=(3, 3))
        gaps[np.arange(3), actions] = 0.0
        packed_gaps = np.concatenate(
            [[gaps[s, a] for a in range(3) if a != actions[s]] for s in range(3)]
        )
        vec = np.concatenate([v, packed_gaps])
        direct = t_operator(mdp, policy, v, AdvantageGap(gaps)).values.ravel()
        assert t_matrix(mdp, policy) @ vec == pytest.approx(direct)

    def test_determinants_agree_on_random_pairs(self, rng):
        for _ in range(1000):
            gamma = rng.uniform(0.0, 0.95)
            mdp = random_mdp(2, 2, gamma, rng)
            policy = det_policy(rng.integers(2, size=2), 2)
            det_t, det_w = abs_dets(mdp, policy)
            assert det_t == pytest.approx(det_w, abs=1e-9)

    def test_determinant_matches_w_matrix(self, rng):
        det_t, det_w = abs_dets(random_mdp(3, 2, 0.8, rng), det_policy([1, 0, 1], 2))
        assert det_t == pytest.approx(det_w)
