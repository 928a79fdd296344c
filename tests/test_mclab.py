import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardcentroids import mclab
from rewardcentroids.errors import DomainError
from rewardcentroids.geometry import (
    BehaviorModel,
    BoundedSetParams,
    bounding_box,
    eta_birl,
    eta_mce,
    is_feasible,
    is_in_bounded_set,
    shaping,
    shaping_matrix,
    t_matrix,
)
from rewardcentroids.mclab import (
    McEstimate,
    _all_policies,
    _bounded_opt_mask,
    _PolicyEvaluator,
    fig_two_state_chain,
    mc_centroid_manifold,
    mc_centroid_opt,
    mc_centroid_prior,
    mc_volume_fraction,
    new_env_bias_ratio,
    new_env_bias_ratio_closed_form,
    segment_volume_1d,
)
from rewardcentroids.mdp import PolicyTable, RewardTable, k_pi, policy_evaluation, random_mdp

from conftest import det_policy, one_state_mdp


class TestSegmentVolume:
    def test_balanced_policy(self):
        length = segment_volume_1d(PolicyTable([[0.5, 0.5]]), BehaviorModel.mce(1.0), 1.0)
        assert length == pytest.approx(2.0, abs=1e-12)

    def test_one_third_policy(self):
        length = segment_volume_1d(PolicyTable([[1.0 / 3.0, 2.0 / 3.0]]), BehaviorModel.mce(1.0), 1.0)
        assert length == pytest.approx(2.0 - np.log(2.0), abs=1e-12)

    def test_extreme_policy_exits_box(self):
        length = segment_volume_1d(PolicyTable([[1.0 - 1e-12, 1e-12]]), BehaviorModel.mce(1.0), 1.0)
        assert length == 0.0

    def test_birl_matches_mce_on_this_instance(self):
        policy = PolicyTable([[0.3, 0.7]])
        a = segment_volume_1d(policy, BehaviorModel.mce(1.0), 1.0)
        b = segment_volume_1d(policy, BehaviorModel.birl(1.0), 1.0)
        assert a == pytest.approx(b)

    def test_policy_of_another_size_is_a_domain_error(self):
        # two rows would be read as the one state's row alone
        with pytest.raises(DomainError, match=r"policy has shape \(2, 2\), expected \(1, 2\)"):
            segment_volume_1d(PolicyTable(np.full((2, 2), 0.5)), BehaviorModel.mce(1.0), 1.0)

    def test_rejects_wrong_shape_and_model(self):
        with pytest.raises(DomainError, match=r"policy has shape \(1, 3\), expected \(1, 2\)"):
            segment_volume_1d(PolicyTable(np.full((1, 3), 1.0 / 3.0)), BehaviorModel.mce(1.0), 1.0)
        with pytest.raises(DomainError):
            segment_volume_1d(PolicyTable([[0.5, 0.5]]), BehaviorModel.opt(), 1.0)


def _rewards_near_policy(mdp, actions, rng, n, v_halfwidth, gap_range):
    """Rewards whose values under `actions` are uniform in +-v_halfwidth and whose
    advantages at the other actions are uniform in gap_range."""
    S, A = mdp.num_states, mdp.num_actions
    v = rng.uniform(-v_halfwidth, v_halfwidth, size=(n, S))
    gaps = rng.uniform(*gap_range, size=(n, S, A))
    gaps[:, np.arange(S), actions] = 0.0
    return v[:, :, None] - mdp.discount * np.einsum("sap,np->nsa", mdp.transitions, v) + gaps


# (S, A): 2x2 cannot tell states from actions; the other two can
SHAPES = ((2, 2), (3, 2), (2, 3))


class TestBatchedMembership:
    def test_matches_scalar_feasibility(self, rng):
        # tol 0.0, as the oracles use it: the prescribed pairs must give exact zeros
        for S, A in SHAPES:
            mdp = random_mdp(S, A, 0.6, rng)
            actions = rng.integers(A, size=S)
            policy = det_policy(actions, A)
            rewards = np.concatenate([
                rng.uniform(-2.0, 2.0, size=(150, S, A)),
                _rewards_near_policy(mdp, actions, rng, 150, 1.0, (-1.0, 0.3)),
            ])
            mask = _PolicyEvaluator(mdp, actions).optimal_mask(rewards)
            assert mask.any() and not mask.all()
            support = frozenset(range(S))
            for i in range(0, 300, 7):
                scalar = is_feasible(
                    mdp, policy, support, RewardTable(rewards[i]), BehaviorModel.opt(), tol=1e-9
                )
                assert scalar == bool(mask[i]), (S, A, i)

    def test_matches_scalar_bounded_set(self, rng):
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        lo, hi = bounding_box(params, 0.6)
        for S, A in SHAPES:
            mdp = random_mdp(S, A, 0.6, rng)
            actions = rng.integers(A, size=S)
            # the uniform box almost never hits the set; the slab of one
            # policy, widened by 10%, lands on both sides of every bound
            halfwidth = 1.1 * k_pi(mdp, det_policy(actions, A))
            rewards = np.concatenate([
                rng.uniform(lo, hi, size=(150, S, A)),
                _rewards_near_policy(mdp, actions, rng, 150, halfwidth, (-1.1, 0.1)),
            ])
            mask = _bounded_opt_mask(_all_policies(mdp)[1], rewards, 1.0, 1.0)
            assert mask.any() and not mask.all()
            for i in range(0, 300, 7):
                scalar = is_in_bounded_set(mdp, RewardTable(rewards[i]), params)
                assert scalar == bool(mask[i]), (S, A, i)

    def test_wanted_flags_match_the_two_pass_form(self, rng):
        # wanted-and-optimal in the one enumeration == optimal_mask of the
        # target (or of any completion off the support) AND the bounded mask
        lo, hi = bounding_box(BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt()), 0.6)
        for S, A in SHAPES:
            mdp = random_mdp(S, A, 0.6, rng)
            actions = rng.integers(A, size=S)
            halfwidth = 1.1 * k_pi(mdp, det_policy(actions, A))
            rewards = np.concatenate([
                rng.uniform(lo, hi, size=(150, S, A)),
                _rewards_near_policy(mdp, actions, rng, 150, halfwidth, (-1.1, 0.1)),
            ])
            rows, evaluators = _all_policies(mdp)
            bounded = _bounded_opt_mask(evaluators, rewards, 1.0, 1.0)
            for wanted in ((rows == actions).all(axis=1), rows[:, 0] == actions[0]):
                two_pass = np.logical_or.reduce(
                    [_PolicyEvaluator(mdp, row).optimal_mask(rewards) for row in rows[wanted]]
                ) & bounded
                one_pass = _bounded_opt_mask(evaluators, rewards, 1.0, 1.0, wanted)
                assert two_pass.any() and not two_pass.all(), (S, A)
                np.testing.assert_array_equal(one_pass, two_pass)


def _full_gap_map(mdp, evaluator, actions):
    """The advantage map over every pair, prescribed rows zeroed."""
    S, A = mdp.num_states, mdp.num_actions
    gap_map = (
        np.eye(S * A)
        + mdp.discount * mdp.transitions.reshape(S * A, S) @ evaluator.value_map
        - np.repeat(evaluator.value_map, A, axis=0)
    )
    gap_map[np.arange(S) * A + actions] = 0.0
    return gap_map


def _reference_bounded_mask(mdp, rewards, c1, c2, wanted=None):
    """The bounded OPT mask over full gap maps, with the |gap| bound."""
    r = rewards.reshape(rewards.shape[0], -1).T
    rows, evaluators = _all_policies(mdp)
    any_optimal, violated, wanted_optimal = (np.zeros(r.shape[1], dtype=bool) for _ in range(3))
    for i, (actions, ev) in enumerate(zip(rows, evaluators)):
        gap = _full_gap_map(mdp, ev, actions) @ r
        optimal = gap.max(axis=0) <= mclab.BOUNDED_SET_TOL
        if wanted is not None and wanted[i]:
            wanted_optimal |= gap.max(axis=0) <= 0.0
        bounded = np.abs(ev.value_map @ r).max(axis=0) <= c1 * ev.k_pi + mclab.BOUNDED_SET_TOL
        bounded &= np.abs(gap).max(axis=0) <= c2 + mclab.BOUNDED_SET_TOL
        violated |= optimal & ~bounded
        any_optimal |= optimal
    mask = any_optimal & ~violated
    return mask if wanted is None else mask & wanted_optimal


class TestFreeRowMaps:
    """The gap maps keep only the free pairs' rows; every mask is unchanged."""

    @pytest.mark.parametrize("S, A", SHAPES)
    def test_masks_match_full_gap_maps(self, rng, S, A):
        mdp = random_mdp(S, A, 0.6, rng)
        lo, hi = bounding_box(BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt()), 0.6)
        rows, evaluators = _all_policies(mdp)
        for actions in rows[:: max(1, len(rows) // 3)]:
            halfwidth = 1.1 * k_pi(mdp, det_policy(actions, A))
            rewards = np.concatenate([
                rng.uniform(lo, hi, size=(200, S, A)),
                _rewards_near_policy(mdp, actions, rng, 400, halfwidth, (-1.1, 0.1)),
            ])
            r = rewards.reshape(len(rewards), -1).T
            ev = _PolicyEvaluator(mdp, actions)
            optimal = ev.optimal_mask(rewards)
            assert optimal.any() and not optimal.all()
            np.testing.assert_array_equal(optimal, (_full_gap_map(mdp, ev, actions) @ r).max(axis=0) <= 0.0)
            for wanted in (None, (rows == actions).all(axis=1)):
                mask = _bounded_opt_mask(evaluators, rewards, 1.0, 1.0, wanted)
                reference = _reference_bounded_mask(mdp, rewards, 1.0, 1.0, wanted)
                assert reference.any() and not reference.all()
                np.testing.assert_array_equal(mask, reference)

    def test_one_action_mdp_reads_every_sample_as_optimal(self, rng):
        for mdp in (one_state_mdp(0.9, num_actions=1), random_mdp(3, 1, 0.6, rng)):
            policy = det_policy(np.zeros(mdp.num_states, dtype=int), 1)
            est = mc_volume_fraction(mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), 1_000, 0)
            assert est.mean == 1.0 and est.n_accepted == 1_000

    def test_shaping_matches_the_expectation_formula(self, rng):
        for S, A in ((1, 2), *SHAPES, (5, 4)):
            mdp = random_mdp(S, A, 0.9, rng)
            matrix = shaping_matrix(mdp)
            for v in (rng.uniform(-3.0, 3.0, size=S), rng.uniform(-3.0, 3.0, size=(4, 5, S))):
                by_einsum = v[..., :, None] - mdp.discount * np.einsum("sap,...p->...sa", mdp.transitions, v)
                shaped = shaping(mdp, v)
                assert shaped.shape == (*v.shape[:-1], S, A)
                # per sample: the bound of u_operator's rows plus S roundings
                # of |matrix| @ |v| (tests/test_geometry.py)
                eps, rows = np.finfo(float).eps, v.reshape(-1, S)
                bound = 2.0 * eps * (1.0 + np.abs(by_einsum).reshape(-1, S * A).max(axis=1))
                bound += S * eps * (np.abs(rows) @ np.abs(matrix).T).max(axis=1)
                assert np.all(np.abs(shaped - by_einsum).reshape(-1, S * A).max(axis=1) <= bound)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_centroid_moments_match_numpy(self, rng, bounded):
        # two whole blocks and a ragged one, all in the first chunk
        mdp = random_mdp(2, 3, 0.5, rng)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        draw = mclab._uniform_box(mdp, bounding_box(params, mdp.discount) if bounded else (-1.0, 3.0))
        accept = partial(_bounded_opt_mask, _all_policies(mdp)[1], c1=1.0, c2=1.0) if bounded else None
        n = 2 * mclab.BLOCK + 5
        est = mclab._accumulating_centroid(mdp, draw, n, 7, accept)
        picked = np.concatenate([b if accept is None else b[accept(b)] for b in mclab._draws(draw, n, 7)])
        k = picked.shape[0]
        assert est.n_accepted == k and k > 1
        np.testing.assert_allclose(est.mean, picked.mean(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(est.std_error, picked.std(axis=0, ddof=1) / np.sqrt(k), rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    S=st.integers(1, 4),
    A=st.integers(2, 3),
    gamma=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**31),
)
def test_linear_maps_reproduce_policy_evaluation(S, A, gamma, seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(S, A, gamma, rng)
    actions = rng.integers(A, size=S)
    evaluator = _PolicyEvaluator(mdp, actions)
    rewards = rng.uniform(-1.0, 1.0, size=(5, S, A))
    r = rewards.reshape(5, -1).T
    values, gaps = evaluator.value_map @ r, evaluator.gap_map @ r
    # one row per free (non-prescribed) pair s*A + a, in pair order
    free = [s * A + a for s in range(S) for a in range(A) if a != actions[s]]
    assert evaluator.gap_map.shape == (S * (A - 1), S * A)
    for i in range(5):
        exact = policy_evaluation(mdp, det_policy(actions, A), RewardTable(rewards[i]))
        atol = 1e-9 * (1.0 + np.abs(exact.v).max()) / (1.0 - gamma)
        np.testing.assert_allclose(values[:, i], exact.v, rtol=0.0, atol=atol)
        np.testing.assert_allclose(gaps[:, i], exact.advantage.ravel()[free], rtol=0.0, atol=atol)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.999])
@pytest.mark.parametrize("S, A", [(1, 2), (2, 3), (3, 2), (4, 3)])
def test_maps_are_the_rows_of_the_inverse_t_operator(rng, S, A, gamma):
    mdp = random_mdp(S, A, gamma, rng)
    for actions in rng.integers(A, size=(4, S)):
        ev = _PolicyEvaluator(mdp, actions)
        product = np.vstack([ev.value_map, ev.gap_map]) @ t_matrix(mdp, det_policy(actions, A))
        np.testing.assert_allclose(product, np.eye(S * A), rtol=0.0, atol=1e-9 / (1.0 - gamma))


def test_bias_ratio_draw_is_shaping_plus_the_free_pair_gaps(monkeypatch):
    draws = []
    monkeypatch.setattr(mclab, "_bernoulli_fraction", lambda draw, hit, n, seed: draws.append(draw))
    new_env_bias_ratio(3.0, 10, 0)
    src, _ = mclab._bias_ratio_instances(mclab.BIAS_RATIO_GAMMA)
    rewards = draws[0](np.random.default_rng(5), 1_000)
    same = np.random.default_rng(5)
    halfwidth = k_pi(src, det_policy([1, 0], 2))
    v = same.uniform(-halfwidth, halfwidth, size=(1_000, 2))
    gaps = same.uniform(-3.0, 0.0, size=(1_000, 2))
    expected = shaping(src, v)
    terms = np.abs(expected) + 3.0  # every action loops: one shaping product, then a gap of at most c2
    expected[:, 0, 0] += gaps[:, 0]
    expected[:, 1, 1] += gaps[:, 1]
    assert np.all(np.abs(rewards - expected) <= 4.0 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("S, A", SHAPES)
def test_bounded_oracles_respect_the_enumeration_cap(S, A, rng, monkeypatch):
    mdp = random_mdp(S, A, 0.5, rng)
    params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
    policy = det_policy(np.zeros(S, dtype=int), A)
    oracles = (
        lambda: mc_volume_fraction(mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), 1, 0, params),
        lambda: mc_centroid_opt(mdp, policy, frozenset({0}), params, 1, 0),
        lambda: mc_centroid_prior(mdp, params, 1, 0),
    )
    monkeypatch.setattr(mclab, "MAX_ENUMERATED_POLICIES", A**S)
    for oracle in oracles:
        oracle()
    monkeypatch.setattr(mclab, "MAX_ENUMERATED_POLICIES", A**S - 1)
    for oracle in oracles:
        with pytest.raises(DomainError):
            oracle()


def test_every_oracle_rejects_no_samples(rng):
    mdp = random_mdp(2, 2, 0.5, rng)
    params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
    policy = det_policy([0, 1], 2)
    oracles = (
        lambda n: mc_volume_fraction(mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), n, 0),
        lambda n: mc_centroid_opt(mdp, policy, frozenset({0}), params, n, 0),
        lambda n: mc_centroid_prior(mdp, params, n, 0),
        lambda n: mc_centroid_manifold(mdp, RewardTable(np.zeros((2, 2))), 1.0, n, 0),
        lambda n: new_env_bias_ratio(1.0, n, 0),
    )
    for oracle in oracles:
        with pytest.raises(DomainError, match="n must be >= 1"):
            oracle(0)


@pytest.mark.parametrize("oracle", ["volume_fraction", "centroid_opt", "centroid_prior"])
@pytest.mark.parametrize("model", [BehaviorModel.mce(1.0), BehaviorModel.birl(1.0)])
def test_bounded_oracles_reject_non_opt_params(rng, oracle, model):
    # membership is tested against the OPT bounded set only, so MCE or BIRL
    # params would be sampled as OPT ones without a word
    mdp = random_mdp(2, 2, 0.5, rng)
    params = BoundedSetParams(c1=1.0, c2=1.0, model=model)
    policy = det_policy([0, 1], 2)
    calls = {
        "volume_fraction": lambda: mc_volume_fraction(mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), 10, 0, params),
        "centroid_opt": lambda: mc_centroid_opt(mdp, policy, frozenset({0}), params, 10, 0),
        "centroid_prior": lambda: mc_centroid_prior(mdp, params, 10, 0),
    }
    with pytest.raises(DomainError, match=f"take OPT params, not {model.kind.upper()}"):
        calls[oracle]()


class TestBlockDraws:
    """Drawing and testing each chunk in BLOCK-sized pieces changes no membership."""

    PARAMS = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())

    def test_bounded_mask_of_a_batch_is_its_row_wise_mask(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        lo, hi = bounding_box(self.PARAMS, mdp.discount)
        actions = np.array([0, 1])
        halfwidth = 1.1 * k_pi(mdp, det_policy(actions, 2))
        n = 3 * mclab.BLOCK + 5
        rewards = np.concatenate([
            rng.uniform(lo, hi, size=(n // 2, 2, 2)),
            _rewards_near_policy(mdp, actions, rng, n - n // 2, halfwidth, (-1.1, 0.1)),
        ])
        rows, evaluators = _all_policies(mdp)
        wanted = (rows == actions).all(axis=1)
        batch = _bounded_opt_mask(evaluators, rewards, 1.0, 1.0, wanted)
        row_wise = [_bounded_opt_mask(evaluators, r[None], 1.0, 1.0, wanted)[0] for r in rewards]
        assert batch.any() and not batch.all()
        np.testing.assert_array_equal(batch, row_wise)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_accepted_count_does_not_depend_on_the_block_size(self, rng, monkeypatch, bounded):
        # 2.5 chunks: two whole chunks of 8 blocks and a ragged last one
        mdp = random_mdp(2, 2, 0.5, rng)
        extra = (self.PARAMS,) if bounded else ()
        box = bounding_box(self.PARAMS, mdp.discount) if bounded else (-1.0, 1.0)
        n = 5 * mclab.CHUNK // 2 + 7

        def accepted():
            est = mc_volume_fraction(mdp, det_policy([0, 1], 2), BehaviorModel.opt(), box, n, 11, *extra)
            return est.n_accepted

        blocked = accepted()
        monkeypatch.setattr(mclab, "BLOCK", mclab.CHUNK)
        assert blocked > 0 and accepted() == blocked

    @pytest.mark.parametrize(
        "oracle",
        [
            lambda mdp: mc_volume_fraction(
                mdp, det_policy([0, 0], 2), BehaviorModel.opt(),
                bounding_box(TestBlockDraws.PARAMS, mdp.discount), 200_000, 3, TestBlockDraws.PARAMS,
            ),
            lambda mdp: mc_centroid_manifold(mdp, RewardTable(np.zeros((2, 2))), 1.0, 200_000, 3),
        ],
        ids=["bounded_volume", "manifold"],
    )
    def test_oracle_peak_memory(self, rng, oracle):
        # whole-chunk draws peaked at 14.6 and 10.1 MiB
        mdp = random_mdp(2, 2, 0.5, rng)
        tracemalloc.start()
        try:
            oracle(mdp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestVolumeFraction:
    def test_rejects_non_opt_model(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        with pytest.raises(DomainError):
            mc_volume_fraction(
                mdp, det_policy([0, 0], 2), BehaviorModel.mce(1.0), (-1, 1), 10, 0
            )

    def test_rejects_a_policy_of_another_shape(self, rng):
        # a one-state policy would broadcast over both states of the chain
        mdp = fig_two_state_chain(0.9)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        one_state = det_policy([0], 2)
        with pytest.raises(DomainError):
            mc_volume_fraction(mdp, one_state, BehaviorModel.opt(), (-1.0, 1.0), 10, 0)
        with pytest.raises(DomainError):
            mc_volume_fraction(mdp, one_state, BehaviorModel.opt(), (-1.0, 1.0), 10, 0, params)
        with pytest.raises(DomainError):
            mc_centroid_opt(mdp, one_state, frozenset({0}), params, 10, 0)

    def test_fractions_partition_the_box(self, rng):
        # the four deterministic-policy regions tile the hypercube a.s.
        mdp = fig_two_state_chain(0.9)
        total = 0.0
        var = 0.0
        for actions in ([0, 0], [0, 1], [1, 0], [1, 1]):
            est = mc_volume_fraction(
                mdp, det_policy(actions, 2), BehaviorModel.opt(), (-1, 1), 200_000, 3
            )
            total += est.mean
            var += est.std_error**2
        assert abs(total - 1.0) <= 3 * np.sqrt(var) + 1e-9

    def test_bias_on_two_state_chain(self):
        # visibly unequal hypercube fractions for the two stay/jump policies
        mdp = fig_two_state_chain(0.999)
        stay = mc_volume_fraction(
            mdp, det_policy([0, 0], 2), BehaviorModel.opt(), (-1, 1), 400_000, 5
        )
        jump = mc_volume_fraction(
            mdp, det_policy([1, 0], 2), BehaviorModel.opt(), (-1, 1), 400_000, 5
        )
        sigma = np.hypot(stay.std_error, jump.std_error)
        assert abs(stay.mean - jump.mean) >= 5 * sigma
        assert stay.mean == pytest.approx(1.0 / 6.0, abs=0.01)

    def test_one_hot_table_is_the_deterministic_policy(self):
        # a one-hot PolicyTable needs no flag: same estimate as from_actions
        mdp = fig_two_state_chain(0.9)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        table, built = PolicyTable(np.eye(2)[[0, 0]]), det_policy([0, 0], 2)
        for extra in ((), (params,)):
            a = mc_volume_fraction(mdp, table, BehaviorModel.opt(), (-1, 1), 20_000, 4, *extra)
            b = mc_volume_fraction(mdp, built, BehaviorModel.opt(), (-1, 1), 20_000, 4, *extra)
            assert (a.mean, a.std_error, a.n_accepted) == (b.mean, b.std_error, b.n_accepted)

    def test_seed_reproducibility(self, rng):
        mdp = fig_two_state_chain(0.9)
        a = mc_volume_fraction(mdp, det_policy([0, 0], 2), BehaviorModel.opt(), (-1, 1), 50_000, 9)
        b = mc_volume_fraction(mdp, det_policy([0, 0], 2), BehaviorModel.opt(), (-1, 1), 50_000, 9)
        assert a.mean == b.mean and a.n_accepted == b.n_accepted


class TestBoundedVolumes:
    def test_equal_volumes_across_policies(self, rng):
        # every deterministic policy's bounded feasible slab has volume 2^S
        mdp = random_mdp(2, 2, 0.5, rng)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        lo, hi = bounding_box(params, 0.5)
        box_volume = (hi - lo) ** 4
        estimates = []
        for actions in ([0, 0], [0, 1], [1, 0], [1, 1]):
            est = mc_volume_fraction(
                mdp, det_policy(actions, 2), BehaviorModel.opt(), (lo, hi),
                600_000, 21, params=params,
            )
            estimates.append((est.mean * box_volume, est.std_error * box_volume))
        for value, err in estimates:
            assert abs(value - 4.0) <= 3 * err
        for (v1, e1) in estimates:
            for (v2, e2) in estimates:
                assert abs(v1 - v2) <= 3 * np.hypot(e1, e2)

    def test_mce_bounded_slab_is_policy_free(self):
        # With c2 above the log(1/pi_min) threshold, the bounded MCE set cuts
        # each policy's feasible line to the same value range |V| <= c1, so
        # the slab volume cannot depend on the policy.  Checked through the
        # membership machinery: the parameterized family lies inside for
        # every policy, the endpoints just outside fail, and a sub-threshold
        # c2 empties the slab entirely.
        from rewardcentroids.geometry import u_operator

        mdp = one_state_mdp(0.5)
        c1 = 2.0
        pi_min = 1.0 / 3.0
        policies = (PolicyTable([[0.5, 0.5]]), PolicyTable([[pi_min, 1 - pi_min]]))
        model = BehaviorModel.mce(1.0)
        good = BoundedSetParams(c1=c1, c2=np.log(1.0 / pi_min) + 1e-6, model=model)
        for policy in policies:
            eta = eta_mce(policy, 1.0)
            for v in np.linspace(-c1, c1, 9):
                r = u_operator(mdp, eta, np.array([v]))
                assert is_in_bounded_set(mdp, r, good)
            outside = u_operator(mdp, eta, np.array([c1 + 0.01]))
            assert not is_in_bounded_set(mdp, outside, good)
        tight = BoundedSetParams(c1=c1, c2=0.9 * np.log(1.0 / pi_min), model=model)
        skewed_eta = eta_mce(policies[1], 1.0)
        for v in np.linspace(-c1, c1, 9):
            r = u_operator(mdp, skewed_eta, np.array([v]))
            assert not is_in_bounded_set(mdp, r, tight)


class TestCentroidEstimates:
    def test_manifold_mean_recovers_eta_mce(self, rng):
        mdp = random_mdp(3, 2, 0.8, rng)
        policy = PolicyTable(rng.dirichlet(np.ones(2), size=3) * 0.5 + 0.25)
        eta = eta_mce(policy, 1.0)
        est = mc_centroid_manifold(mdp, eta, 2.0, 50_000, 3)
        assert np.all(np.abs(est.mean - eta.values) <= 4.0 * est.std_error)

    def test_manifold_mean_recovers_eta_birl(self, rng):
        mdp = random_mdp(3, 2, 0.8, rng)
        policy = PolicyTable(rng.dirichlet(np.ones(2), size=3) * 0.5 + 0.25)
        eta = eta_birl(policy, 1.0)
        est = mc_centroid_manifold(mdp, eta, 2.0, 50_000, 3)
        assert np.all(np.abs(est.mean - eta.values) <= 4.0 * est.std_error)

    def test_manifold_zero_eta(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        est = mc_centroid_manifold(mdp, RewardTable(np.zeros((2, 2))), 1.0, 20_000, 1)
        assert np.all(np.abs(est.mean) <= 4.0 * est.std_error)

    def test_manifold_std_error_scales_with_halfwidth(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        eta = RewardTable(np.zeros((2, 2)))
        small = mc_centroid_manifold(mdp, eta, 1.0, 40_000, 2)
        large = mc_centroid_manifold(mdp, eta, 2.0, 40_000, 2)
        ratio = large.std_error / small.std_error
        assert ratio == pytest.approx(np.full((2, 2), 2.0), rel=0.1)

    def test_convergence_rate_scaling(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        expert = det_policy([0, 0], 2)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        small = mc_centroid_opt(mdp, expert, {0}, params, 200_000, 5)
        large = mc_centroid_opt(mdp, expert, {0}, params, 800_000, 5)
        ratio = float(np.median(small.std_error / large.std_error))
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_zero_acceptance_is_reported_not_raised(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        expert = det_policy([0, 0], 2)
        # a vanishing advantage bound makes the accepted slab measure ~c2^2
        # inside an O(1) box, so nothing is ever accepted
        params = BoundedSetParams(c1=1.0, c2=1e-9, model=BehaviorModel.opt())
        est = mc_centroid_opt(mdp, expert, {0}, params, 1_000, 0)
        assert est.n_accepted == 0
        assert np.all(np.isnan(est.mean))

    def test_prior_centroid_is_constant_table(self, rng):
        mdp = random_mdp(2, 2, 0.5, rng)
        params = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())
        est = mc_centroid_prior(mdp, params, 400_000, 8)
        centered = est.mean - est.mean.mean()
        assert np.all(np.abs(centered) <= 4.0 * est.std_error)


class TestNewEnvRatio:
    def test_closed_form_values(self):
        assert new_env_bias_ratio_closed_form(1.0) == pytest.approx(7.0 / 24.0)
        assert new_env_bias_ratio_closed_form(3.0) == pytest.approx(1.0 / 9.0)

    def test_boundary_continuity_at_two(self):
        low = new_env_bias_ratio_closed_form(2.0 - 1e-12)
        high = new_env_bias_ratio_closed_form(2.0)
        assert low == pytest.approx(high, abs=1e-9)
        assert high == pytest.approx(1.0 / 6.0)

    def test_mc_matches_closed_form(self):
        for c2 in (1.0, 2.0, 3.0):
            est = new_env_bias_ratio(c2, 150_000, 13)
            target = new_env_bias_ratio_closed_form(c2)
            assert abs(est.mean - target) <= 3.5 * est.std_error

    def test_estimate_type(self):
        est = new_env_bias_ratio(1.0, 1_000, 0)
        assert isinstance(est, McEstimate)
        assert est.n_samples == 1_000
