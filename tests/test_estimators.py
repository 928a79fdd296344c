import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardcentroids.centroids import CentroidRequest, centroid
from rewardcentroids.errors import DomainError
from rewardcentroids import estimators
from rewardcentroids.estimators import (
    DEFAULT_PI_MIN_PRIME,
    TrajectoryDataset,
    _candidates,
    _draw,
    estimate,
    estimate_birl,
    estimate_mce,
    estimate_opt,
    exact_estimate,
    first_visit_counts,
    p_min_h,
    sample_bound,
    simulate_expert,
)
from rewardcentroids.geometry import BIRL, MCE, OPT, log_policy
from rewardcentroids.gridworld import build_gridworld, spec_from_dict
from rewardcentroids.mclab import fig_two_state_chain
from rewardcentroids.mdp import PolicyTable, TabularMdp, random_mdp, reachable_support
from rewardcentroids.serialization import load_policy, save_trajectories

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


def dense_draw(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Oracle draw: the first column whose cdf is >= u, over whole rows."""
    return np.minimum((cdf[rows] < u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def dense_simulate(mdp: TabularMdp, expert: PolicyTable, n: int, h: int, seed: int):
    """Oracle sampler: `dense_draw` on the same stream (action at t, then state at t + 1)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    S, A = mdp.num_states, mdp.num_actions
    policy_cdf = np.cumsum(expert.probs, axis=1)
    trans_cdf = np.cumsum(mdp.transitions, axis=2).reshape(S * A, S)
    states = np.empty((n, h), dtype=np.int64)
    actions = np.empty((n, h), dtype=np.int64)
    states[:, 0] = mdp.initial_state
    for t in range(h):
        actions[:, t] = dense_draw(policy_cdf, states[:, t], rng.random(n))
        if t + 1 < h:
            states[:, t + 1] = dense_draw(trans_cdf, states[:, t] * A + actions[:, t], rng.random(n))
    return states, actions


def sparse_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Probability rows over the last axis with about half their entries exactly 0."""
    probs = rng.random(shape) * (rng.random(shape) < 0.5)
    probs[..., -1] += probs.sum(axis=-1) == 0
    return probs / probs.sum(axis=-1, keepdims=True)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fig3a_grid() -> tuple[TabularMdp, PolicyTable]:
    doc = json.loads((CONFIGS / "fig3a.json").read_text())["gridworld"]
    grid, _ = build_gridworld(spec_from_dict(doc, base_dir=CONFIGS))
    return grid, load_policy(CONFIGS / doc["expert_policy_file"])


def ring_chain() -> tuple[TabularMdp, PolicyTable]:
    """Acceptance criterion 09's 5-state ring and its 0.9/0.1 expert."""
    p = np.zeros((5, 2, 5))
    for s in range(5):
        p[s, :, (s + 1) % 5] = 1.0
    return TabularMdp(5, 2, 0, p, 0.8), PolicyTable(np.tile([0.9, 0.1], (5, 1)))


def trajectory_digest(data: TrajectoryDataset) -> str:
    """sha256 of the (n, h) indices widened to int64, C order, whatever the dataset's own layout."""
    states, actions = (np.ascontiguousarray(x, dtype=np.int64) for x in (data.states, data.actions))
    return hashlib.sha256(states.tobytes() + actions.tobytes()).hexdigest()


def traced_peak(call):
    """call() and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def widened(data: TrajectoryDataset) -> TrajectoryDataset:
    """The same trajectories as int64 (n, h) arrays in C order."""
    return TrajectoryDataset(states=data.states.astype(np.int64), actions=data.actions.astype(np.int64))


class TestDatasets:
    def test_shapes_validated(self):
        with pytest.raises(DomainError):
            TrajectoryDataset(states=np.zeros((2, 3), int), actions=np.zeros((2, 2), int))

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError, match="^state/action indices must be nonnegative$"):
            TrajectoryDataset(states=-np.ones((1, 2), int), actions=np.zeros((1, 2), int))

    def test_no_trajectories_is_a_dataset(self):
        data = TrajectoryDataset(states=np.zeros((0, 3), int), actions=np.zeros((0, 3), int))
        assert data.num_trajectories == 0 and data.horizon == 3

    @pytest.mark.parametrize("frozen_view", [False, True])
    def test_an_input_that_can_still_be_written_is_copied(self, frozen_view):
        # x is already in the dataset's layout: the transpose of a C-ordered (h, n) owner
        owner = np.array(np.arange(12).reshape(3, 4), dtype=np.uint8)  # owns its memory
        x = owner.T
        if frozen_view:
            x.setflags(write=False)  # the view is read-only, its owner is not
        data = TrajectoryDataset(states=x, actions=x)
        assert not np.shares_memory(data.states, x) and not np.shares_memory(data.actions, x)
        before = data.states.copy()
        owner[:] = 7
        assert np.array_equal(data.states, before) and np.array_equal(data.actions, before)

    def test_an_input_with_a_read_only_owner_is_kept(self):
        owner = np.array(np.arange(12).reshape(3, 4), dtype=np.uint8)  # owns its memory
        owner.setflags(write=False)
        data = TrajectoryDataset(states=owner.T, actions=owner.T)
        assert np.shares_memory(data.states, owner) and np.shares_memory(data.actions, owner)
        # in another layout it is copied
        data = TrajectoryDataset(states=owner, actions=owner)
        assert not np.shares_memory(data.states, owner)

    def test_zero_length_trajectories_rejected(self):
        with pytest.raises(DomainError, match="^trajectories must have length >= 1$"):
            TrajectoryDataset(states=np.zeros((2, 0), int), actions=np.zeros((2, 0), int))

    @pytest.mark.parametrize(
        "states, actions",
        [
            ([[0, 1.7]], [[0, 1]]),
            ([[0, 1]], np.array([[False, True]])),
            (np.zeros((1, 2)), np.zeros((1, 2), int)),
            ([[]], [[]]),
        ],
    )
    def test_non_integer_indices_rejected(self, states, actions):
        with pytest.raises(DomainError, match="integer"):
            TrajectoryDataset(states=states, actions=actions)

    def test_uint64_indices_are_read_as_intp(self):
        data = TrajectoryDataset(states=np.array([[0, 1, 1]], np.uint64), actions=np.array([[1, 0, 1]], np.uint64))
        assert data.states.dtype == data.actions.dtype == np.intp
        assert first_visit_counts(data, (2, 2)).tolist() == [[0, 1], [1, 0]]
        with pytest.raises(DomainError, match="nonnegative"):
            TrajectoryDataset(states=np.array([[2**63]], np.uint64), actions=np.zeros((1, 1), np.uint64))


class TestSimulate:
    def test_deterministic_chain_gives_identical_trajectories(self):
        mdp = cycle_mdp(3)
        expert = det_policy([0, 0, 0], 2)
        data = simulate_expert(mdp, expert, n=5, h=4, seed=9)
        assert np.all(data.states == data.states[0])
        assert np.all(data.states[0] == [0, 1, 2, 0])

    @pytest.mark.parametrize("n, h", [(0, 4), (5, 0)])
    def test_counts_below_one_rejected(self, n, h):
        with pytest.raises(DomainError, match="^n and h must be >= 1$"):
            simulate_expert(cycle_mdp(3), det_policy([0, 0, 0], 2), n=n, h=h, seed=0)

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

    # sha256 of states.tobytes() + actions.tobytes() (int64 (n, h) in C order,
    # little-endian), computed with the full-row sampler of commit daf832d
    PINNED = {
        ("grid", 1): "5e21112ac8d2522c44dae38e25c0015b47585bfe4fe1ea0b94f681081acc3bcf",
        ("grid", 2): "847255a46ce0f357a92fe4e0b5847e0203d8f5244296b57beeca873e7ab663dc",
        ("grid", 3): "202c3f46c1d17a14810e8ae3bf1da44f1523fe700266d0a1d7359bb30d4facd2",
        ("ring", 0): "5c3d1602e30d55068ffc375ad25e0deb66f53c0ae714ca13b8b9a7d622476579",
        ("ring", 7): "fd4c8d868972067ab5901c9a05dc3b39840186780522af747518aee1adc19ab8",
        ("ring", 14): "eff63ccece375c4d214057acf8bdc58aaf90c8e01ca182d7212ce5f9e15a3831",
    }

    @pytest.mark.parametrize("setup, seed", sorted(PINNED))
    def test_trajectories_match_pinned_digest(self, setup, seed):
        if setup == "grid":
            mdp, expert = fig3a_grid()
            n, h = 500, 100
        else:
            mdp, expert = ring_chain()
            n, h = 45_949, 5  # criterion 09's MCE sample_bound
        data = simulate_expert(mdp, expert, n, h, seed)
        assert trajectory_digest(data) == self.PINNED[setup, seed]

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(1, 6),
        A=st.integers(1, 4),
        h=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_sampler_on_sparse_mdps(self, S, A, h, seed):
        rng = np.random.default_rng(seed)
        mdp = TabularMdp(S, A, int(rng.integers(S)), sparse_rows(rng, (S, A, S)), 0.5)
        expert = PolicyTable(sparse_rows(rng, (S, A)))
        states, actions = dense_simulate(mdp, expert, 300, h, seed)
        # the default block, and blocks of 7 that do not divide n = 300
        for block in (estimators.BLOCK, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(estimators, "BLOCK", block)
                data = simulate_expert(mdp, expert, 300, h, seed)
            assert np.array_equal(data.states, states)
            assert np.array_equal(data.actions, actions)

    # The rollout buffers' type changes at S·A = 256 (states, which also hold
    # s·A + a), A = 256 (actions) and S·A = 65,536.
    @pytest.mark.parametrize("S, A", [(51, 5), (16, 16), (1, 256), (2, 32_768)])
    def test_matches_dense_sampler_at_buffer_type_boundaries(self, S, A):
        rng = np.random.default_rng(S * A)
        mdp = TabularMdp(S, A, S - 1, sparse_rows(rng, (S, A, S)), 0.5)
        expert = PolicyTable(sparse_rows(rng, (S, A)))
        data = simulate_expert(mdp, expert, 40, 6, seed=S)
        states, actions = dense_simulate(mdp, expert, 40, 6, seed=S)
        assert np.array_equal(data.states, states)
        assert np.array_equal(data.actions, actions)
        # the dataset keeps the rollout's compact types, time-major and read-only
        assert data.states.dtype == np.min_scalar_type(S * A)
        assert data.actions.dtype == np.min_scalar_type(A)
        for arr in (data.states, data.actions):
            assert arr.shape == (40, 6) and arr.T.flags.c_contiguous and not arr.flags.writeable
            assert not arr.T.flags.writeable

    def test_simulated_dataset_holds_the_read_only_rollout_buffers(self):
        mdp, expert = ring_chain()
        data = simulate_expert(mdp, expert, 50, 5, seed=0)
        for arr in (data.states, data.actions):
            owner = arr.base
            assert isinstance(owner, np.ndarray) and owner.shape == (5, 50)
            assert owner.flags.owndata and not owner.flags.writeable

    def test_grid_rollout_peak_memory(self):
        # fig3a's grid expert at n = 10,000, h = 100: the rollout holds its
        # uint16 states and uint8 actions (3 bytes a step) once, plus 1 MiB.
        mdp, expert = fig3a_grid()
        n, h = 10_000, 100
        _, peak = traced_peak(lambda: simulate_expert(mdp, expert, n, h, seed=1))
        assert peak <= n * h * 3 + 2**20

    def test_rollout_peak_above_its_data_does_not_grow_with_n(self):
        mdp, expert = ring_chain()
        above = []
        for n in (30_000, 120_000):
            data, peak = traced_peak(lambda: simulate_expert(mdp, expert, n, 5, seed=0))
            above.append(peak - data.states.nbytes - data.actions.nbytes)
        assert abs(above[1] - above[0]) < 0.25 * 2**20

    def test_rollout_over_the_size_limit_is_rejected_before_allocating(self):
        # a 3x3 grid at n = 10**8, h = 100: one byte a state and one an
        # action, twice over, plus 32 bytes a trajectory
        mdp, _ = build_gridworld(spec_from_dict({"width": 3, "height": 3, "initial_cell": [0, 0], "gamma": 0.9}))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"100,000,000 trajectories of 100 steps \(n, h\) "
                               r"need 41,199 MiB of trajectory buffers, over the 512 MiB limit"):
                simulate_expert(mdp, PolicyTable(np.full((9, 5), 0.2)), 10**8, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_rollout_at_the_size_limit_runs(self, monkeypatch):
        # 2 states and 2 actions: (2 * h * 2 + 32) bytes a trajectory, 48 at h = 4
        mdp = cycle_mdp(2)
        monkeypatch.setattr(estimators, "MAX_ROLLOUT_BYTES", 10 * 48)
        simulate_expert(mdp, det_policy([0, 0], 2), 10, 4, seed=0)
        with pytest.raises(DomainError, match="11 trajectories of 4 steps"):
            simulate_expert(mdp, det_policy([0, 0], 2), 11, 4, seed=0)


class TestBlocks:
    """First-visit counts and estimates do not depend on the block size or grow with n."""

    @pytest.mark.parametrize("setup", ["grid", "ring"])
    def test_blocks_of_seven_match_the_default_block(self, setup, monkeypatch):
        if setup == "grid":
            (mdp, expert), n, h = fig3a_grid(), 2_000, 100
        else:
            # criterion 09's MCE sample_bound, over the default BLOCK too
            (mdp, expert), n, h = ring_chain(), 45_949, 5
        dims = (mdp.num_states, mdp.num_actions)
        data = simulate_expert(mdp, expert, n, h, seed=5)
        counts = first_visit_counts(data, dims)
        estimates = {kind: estimate(data, dims, kind).values for kind in (OPT, MCE, BIRL)}
        monkeypatch.setattr(estimators, "BLOCK", 7)
        assert np.array_equal(first_visit_counts(data, dims), counts)
        for kind, values in estimates.items():
            assert np.array_equal(estimate(data, dims, kind).values, values), kind

    @pytest.mark.parametrize("count", [first_visit_counts, estimate_opt])
    def test_peak_above_the_data_does_not_grow_with_n(self, count):
        mdp, expert = ring_chain()
        peaks = []
        for n in (30_000, 120_000):
            data = simulate_expert(mdp, expert, n, 5, seed=0)
            peaks.append(traced_peak(lambda: count(data, (5, 2)))[1])
        assert abs(peaks[1] - peaks[0]) < 0.25 * 2**20


class TestCompactDataset:
    """A dataset in the rollout's compact types gives what its int64 copy gives."""

    @pytest.fixture(scope="class")
    def grid_data(self):
        mdp, expert = fig3a_grid()
        data = simulate_expert(mdp, expert, 2_000, 100, seed=5)
        assert data.states.dtype == np.uint16 and data.actions.dtype == np.uint8
        return data, (mdp.num_states, mdp.num_actions)

    def test_counts_and_estimates_match_the_int64_copy(self, grid_data):
        data, dims = grid_data
        wide = widened(data)
        assert wide.states.dtype == np.int64
        compact_counts, wide_counts = first_visit_counts(data, dims), first_visit_counts(wide, dims)
        assert np.array_equal(compact_counts, wide_counts)
        for kind in ("opt", "mce", "birl"):
            assert np.array_equal(estimate(data, dims, kind).values, estimate(wide, dims, kind).values), kind

    def test_pair_index_above_the_index_type_is_counted(self):
        # s·A + a reaches 499 on uint8 indices: it must not wrap at 256
        rng = np.random.default_rng(3)
        S, A, n, h = 100, 5, 40, 30
        states = rng.integers(S, size=(n, h)).astype(np.uint8)
        actions = rng.integers(A, size=(n, h)).astype(np.uint8)
        compact = TrajectoryDataset(states=states, actions=actions)
        wide = TrajectoryDataset(states=states.astype(np.int64), actions=actions.astype(np.int64))
        counts = first_visit_counts(compact, (S, A))
        assert counts[S // 2 :].sum() > 0
        assert np.array_equal(counts, first_visit_counts(wide, (S, A)))
        assert np.array_equal(estimate_opt(compact, (S, A)).values, estimate_opt(wide, (S, A)).values)

    def test_saved_file_matches_the_int64_copy(self, grid_data, tmp_path):
        data, _ = grid_data
        save_trajectories(data, tmp_path / "compact.jsonl")
        save_trajectories(widened(data), tmp_path / "wide.jsonl")
        assert (tmp_path / "compact.jsonl").read_bytes() == (tmp_path / "wide.jsonl").read_bytes()


class TestDraw:
    """`_draw` over `_candidates` picks the column the dense count picks."""

    @staticmethod
    def check(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> None:
        values, idx = _candidates(cdf)
        assert np.array_equal(_draw(values, idx, rows, u), dense_draw(cdf, rows, u))

    @settings(max_examples=100, deadline=None)
    @given(
        num_rows=st.integers(1, 6),
        width=st.integers(1, 10),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_count(self, num_rows, width, seed):
        rng = np.random.default_rng(seed)
        cdf = np.cumsum(sparse_rows(rng, (num_rows, width)), axis=1)
        # u at, just above and just below every cdf value, plus 0, 1 and uniforms
        edges = np.concatenate([cdf.ravel(), [0.0, 1.0]])
        u = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0), rng.random(50)])
        u = np.clip(u, 0.0, 1.0)
        self.check(cdf, rng.integers(num_rows, size=u.size), u)

    def test_zero_u_lands_on_column_zero(self):
        cdf = np.cumsum([[0.0, 0.0, 0.5, 0.5], [0.25, 0.0, 0.75, 0.0]], axis=1)
        rows = np.array([0, 1])
        u = np.zeros(2)
        self.check(cdf, rows, u)
        assert _draw(*_candidates(cdf), rows, u).tolist() == [0, 0]

    def test_row_summing_below_one_clips_to_last_column(self):
        cdf = np.cumsum([[0.1] * 10], axis=1)
        assert cdf[0, -1] < 1.0
        rows = np.zeros(3, dtype=np.int64)
        u = np.array([np.nextafter(cdf[0, -1], 2.0), 1.0, cdf[0, -1]])
        self.check(cdf, rows, u)
        assert _draw(*_candidates(cdf), rows, u).tolist() == [9, 9, 9]


class TestFirstVisitCounts:
    def test_first_visit_rule(self):
        data = TrajectoryDataset(states=[[0, 0]], actions=[[0, 1]])
        counts = first_visit_counts(data, (1, 2))
        assert counts.tolist() == [[1, 0]]

    @pytest.mark.parametrize("dims", [(0, 2), (1, 0)])
    def test_dims_below_one_rejected(self, dims):
        data = TrajectoryDataset(states=[[0, 0]], actions=[[0, 1]])
        with pytest.raises(DomainError, match="^dims must be positive$"):
            first_visit_counts(data, dims)

    def test_two_trajectories_disagree(self):
        data = TrajectoryDataset(states=[[0], [0]], actions=[[0], [1]])
        counts = first_visit_counts(data, (1, 2))
        assert counts.tolist() == [[1, 1]]

    def test_counts_are_an_int64_table(self):
        counts = first_visit_counts(TrajectoryDataset(states=[[0, 2]], actions=[[1, 0]]), (3, 2))
        assert counts.dtype == np.int64
        assert counts.shape == (3, 2)

    def test_unvisited_state_has_zero_row(self):
        data = TrajectoryDataset(states=[[0, 0]], actions=[[1, 1]])
        counts = first_visit_counts(data, (3, 2))
        assert counts[1].tolist() == [0, 0]
        assert counts[2].tolist() == [0, 0]

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
            ns = counts[s].sum()
            p = expert.probs[s, 0]
            sigma = np.sqrt(ns * p * (1 - p))
            assert abs(counts[s, 0] - ns * p) <= 3 * sigma

    @settings(max_examples=100, deadline=None)
    @given(
        S=st.integers(1, 5),
        A=st.integers(1, 3),
        n=st.integers(1, 30),
        h=st.integers(1, 12),
        seed=st.integers(0, 2**31),
    )
    def test_matches_sort_based_count(self, S, A, n, h, seed):
        # few states and long trajectories: most states are visited repeatedly
        rng = np.random.default_rng(seed)
        states = rng.integers(S, size=(n, h))
        actions = rng.integers(A, size=(n, h))
        keys = (np.arange(n)[:, None] * S + states).ravel()
        _, first = np.unique(keys, return_index=True)
        expected = np.zeros((S, A), dtype=np.int64)
        np.add.at(expected, (states.ravel()[first], actions.ravel()[first]), 1)
        counts = first_visit_counts(TrajectoryDataset(states=states, actions=actions), (S, A))
        assert np.array_equal(counts, expected)


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
            expert=expert, support=frozenset(range(4)), kind=OPT
        )
        assert np.array_equal(est.values, centroid(req).values)

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
        reference = centroid(
            CentroidRequest(
                expert=expert, support=frozenset(range(5)),
                kind=OPT,
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
        mce_ref = centroid(
            CentroidRequest(expert=expert, support=support, kind=MCE)
        )
        birl_ref = centroid(
            CentroidRequest(expert=expert, support=support, kind=BIRL)
        )
        assert np.abs(mce.values - mce_ref.values).max() <= 0.05
        assert np.abs(birl.values - birl_ref.values).max() <= 0.05

    def test_exact_estimates_are_infinite_data_limits(self):
        expert = PolicyTable([[0.7, 0.3], [1.0, 0.0]])
        support = {0}
        mce = exact_estimate(expert, support, "mce", 1e-6)
        assert mce.values[0] == pytest.approx([np.log(0.7), np.log(0.3)])
        assert mce.values[1] == pytest.approx([np.log(1e-6)] * 2)
        birl = exact_estimate(expert, support, "birl", 1e-6)
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
                exact_mce = exact_estimate(expert, support, "mce", pi_min_prime)
                exact_birl = exact_estimate(expert, support, "birl", pi_min_prime)
            assert np.array_equal(mce.values, exact_mce.values)
            assert np.array_equal(birl.values, exact_birl.values)


FIXTURE_EXPERTS = ("expert_right_stop.json", "expert_band_drift.json")


class TestDispatch:
    """`estimate` and `exact_estimate` on fig3a's grid with each fixture expert."""

    @pytest.mark.parametrize("fixture", FIXTURE_EXPERTS)
    def test_estimate_is_the_per_kind_estimator(self, fixture):
        mdp, _ = fig3a_grid()
        expert = load_policy(CONFIGS / fixture)
        data = simulate_expert(mdp, expert, 300, 40, 7)
        dims = (mdp.num_states, mdp.num_actions)
        assert np.array_equal(estimate(data, dims, "opt").values, estimate_opt(data, dims).values)
        for kind, per_kind in (("mce", estimate_mce), ("birl", estimate_birl)):
            for floor in (DEFAULT_PI_MIN_PRIME, 1e-3):
                expected = per_kind(data, dims, floor).values
                assert np.array_equal(estimate(data, dims, kind, floor).values, expected)
            assert np.array_equal(estimate(data, dims, kind).values, per_kind(data, dims).values)

    @pytest.mark.parametrize("fixture", FIXTURE_EXPERTS)
    @pytest.mark.parametrize("kind", ["mce", "birl"])
    def test_exact_estimate_clips_and_logs_the_expert(self, fixture, kind):
        mdp, _ = fig3a_grid()
        expert = load_policy(CONFIGS / fixture)
        support = reachable_support(mdp, expert)
        for floor in (DEFAULT_PI_MIN_PRIME, 1e-3):
            expected = log_policy(np.maximum(floor, expert.probs), kind)
            expected[sorted(set(range(mdp.num_states)) - support)] = np.log(floor)
            assert np.array_equal(exact_estimate(expert, support, kind, floor).values, expected)

    def test_exact_opt_estimate_is_the_centroid(self):
        mdp, _ = fig3a_grid()
        expert = load_policy(CONFIGS / "expert_right_stop.json")
        support = reachable_support(mdp, expert)
        rows = sorted(support)
        expected = np.full(expert.probs.shape, 1.0 / mdp.num_actions)
        expected[rows] = 0.0
        expected[rows, expert.actions()[rows]] = 1.0
        assert np.array_equal(exact_estimate(expert, support, "opt").values, expected)

    def test_exact_opt_estimate_needs_a_deterministic_expert(self):
        mdp, _ = fig3a_grid()
        expert = load_policy(CONFIGS / "expert_band_drift.json")
        with pytest.raises(DomainError, match="deterministic"):
            exact_estimate(expert, reachable_support(mdp, expert), "opt")

    def test_unknown_kind_is_rejected(self):
        data = TrajectoryDataset(states=[[0]], actions=[[0]])
        with pytest.raises(DomainError, match="^unknown behavior model 'opt2'; accepted: "):
            estimate(data, (1, 1), "opt2")
        with pytest.raises(DomainError, match="^unknown behavior model 'opt2'; accepted: "):
            exact_estimate(PolicyTable([[1.0]]), {0}, "opt2")

    def test_estimators_are_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed over a per-kind estimator sees the dispatched call
        calls = []
        original = estimators.estimate_birl

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(estimators, "estimate_birl", recording)
        data = TrajectoryDataset(states=[[0]], actions=[[0]])
        estimate(data, (1, 2), "birl", 0.01)
        assert len(calls) == 1 and calls[0][1:] == ((1, 2), 0.01)


class TestVisitProbability:
    def test_deterministic_chain_reaches_everything(self):
        mdp = cycle_mdp(4)
        expert = det_policy([0] * 4, 2)
        assert p_min_h(mdp, expert, 4) == pytest.approx(1.0)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(DomainError, match="^h must be >= 1$"):
            p_min_h(cycle_mdp(4), det_policy([0] * 4, 2), 0)

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

    def test_rejects_an_unknown_kind_as_every_kind_check_does(self):
        with pytest.raises(DomainError, match=r"^unknown behavior model 'x'; accepted: "):
            sample_bound(
                "x", num_states=2, num_actions=2, support_size=2, delta=0.1,
                p_min=0.5, horizon=2, eps=0.5, pi_min_prime=0.1,
            )

    def test_rejects_short_horizon(self):
        with pytest.raises(DomainError):
            sample_bound(
                "opt", num_states=5, num_actions=2, support_size=5, delta=0.1,
                p_min=0.5, horizon=4,
            )

    @pytest.mark.parametrize("kind", ["opt", "mce"])
    @pytest.mark.parametrize(
        "sizes",
        [
            {"support_size": 0, "num_states": 2, "num_actions": 2},
            {"support_size": 2, "num_states": 0, "num_actions": 2},
            {"support_size": 2, "num_states": 2, "num_actions": 0},
        ],
    )
    def test_rejects_empty_sizes(self, kind, sizes):
        with pytest.raises(DomainError, match="must be >= 1"):
            sample_bound(kind, **sizes, delta=0.1, p_min=0.5, horizon=2, eps=0.5, pi_min_prime=0.1)


    @pytest.mark.parametrize("field, value, message", [
        ("delta", 0.0, r"delta must lie in \(0, 1\)"),
        ("delta", 1.0, r"delta must lie in \(0, 1\)"),
        ("p_min", 0.0, r"p_min must lie in \(0, 1\]"),
        ("p_min", 1.5, r"p_min must lie in \(0, 1\]"),
        ("eps", None, r"eps must lie in \(0, 1\]"),
        ("eps", 1.5, r"eps must lie in \(0, 1\]"),
        ("pi_min_prime", None, r"pi_min_prime must lie in \(0, 1\)"),
        ("pi_min_prime", 1.0, r"pi_min_prime must lie in \(0, 1\)"),
    ])
    def test_rejects_values_out_of_range(self, field, value, message):
        args = dict(num_states=2, num_actions=2, support_size=2, delta=0.1, p_min=0.5, horizon=2,
                    eps=0.5, pi_min_prime=0.1)
        with pytest.raises(DomainError, match=f"^{message}$"):
            sample_bound("mce", **{**args, field: value})


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
        reference = centroid(
            CentroidRequest(
                expert=expert, support=frozenset(range(5)),
                kind=OPT,
            )
        )
        hits = 0
        trials = 200
        for seed in range(trials):
            data = simulate_expert(mdp, expert, n=n, h=h, seed=seed)
            est = estimate_opt(data, (5, 2))
            hits += int(np.array_equal(est.values, reference.values))
        assert hits / trials >= 0.85
