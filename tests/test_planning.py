import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rewardcentroids import lp as lp_module, planning
from rewardcentroids.centroids import CentroidRequest, centroid
from rewardcentroids.errors import DomainError, InfeasibleConstraintError, SolverError
from rewardcentroids.geometry import OPT, BehaviorModel, is_feasible, shaping_matrix
from rewardcentroids.gridworld import NUM_GRID_ACTIONS, GridworldSpec, build_gridworld, run_scenario
from rewardcentroids.lp import LinearProgram, solve
from rewardcentroids.mclab import fig_two_state_chain
from rewardcentroids.mdp import (
    MAX_LP_BYTES,
    OccupancyMeasure,
    PolicyTable,
    RewardTable,
    occupancy_measure,
    policy_evaluation,
    random_mdp,
    value_iteration,
)
from rewardcentroids.planning import (
    ConstraintSpec,
    bc_policy,
    best_case_reward,
    mimic_policy,
    plan_constrained,
    plan_unconstrained,
    policy_from_occupancy,
    suboptimality_bound,
)

from conftest import det_policy, fig2b_mimic, one_state_mdp, random_policy, solve_permuted

ROOT = Path(__file__).resolve().parent.parent
# The scenarios that solve an occupancy LP: six MIMIC programs, then two
# constrained plans.
LP_SCENARIOS = ("fig2b", "fig2d", "fig3b", "fig3d", "fig4a", "fig4d", "fig4e", "figG4d")


def flow_matrix(mdp):
    """Row s, column (s', a'): [s == s'] - gamma p(s | s', a')."""
    S, A = mdp.num_states, mdp.num_actions
    lhs = np.repeat(np.eye(S), A, axis=1)
    return lhs - mdp.discount * mdp.transitions.reshape(S * A, S).T


def flow_residual(mdp, d):
    rhs = np.zeros(mdp.num_states)
    rhs[mdp.initial_state] = 1.0 - mdp.discount
    return float(np.abs(flow_matrix(mdp) @ d.ravel() - rhs).max())


def dense_l1_optimum(target, d_e, constraint=None):
    """Optimum of the u/v program: d = d_E + u - v, minimize sum(u + v).

    Its sum(u - v) row is the flow rows' sum over (1 - gamma), so the program
    has no basis of its own; the value is read from its dual, max eq_rhs y -
    ub_rhs z over eq_lhs^T y - ub_lhs^T z <= 1 with y free and z >= 0, which
    starts from the slack basis.
    """
    sa = d_e.size
    flow = flow_matrix(target)
    rhs = np.zeros(target.num_states)
    rhs[target.initial_state] = 1.0 - target.discount
    eq_lhs = np.vstack([np.hstack([flow, -flow]), np.concatenate([np.ones(sa), -np.ones(sa)])])
    eq_rhs = np.concatenate([rhs - flow @ d_e, [1.0 - d_e.sum()]])
    ub_lhs = np.hstack([-np.eye(sa), np.eye(sa)])  # d >= 0
    ub_rhs = d_e.copy()
    if constraint is not None:
        c = constraint.cost.values.ravel()
        ub_lhs = np.vstack([ub_lhs, np.concatenate([c, -c])])
        ub_rhs = np.append(ub_rhs, (1.0 - target.discount) * constraint.budget - c @ d_e)
    dual_lhs = np.hstack([eq_lhs.T, -eq_lhs.T, -ub_lhs.T])
    dual_objective = -np.concatenate([eq_rhs, -eq_rhs, -ub_rhs])
    sol = solve(LinearProgram(dual_objective, np.zeros((0, dual_lhs.shape[1])), [], dual_lhs, np.ones(2 * sa)))
    return -sol.objective_value


def slack_constraint(mdp, scale=1.0):
    budget = scale / (1.0 - mdp.discount) + 1.0
    return ConstraintSpec(
        cost=RewardTable(np.full((mdp.num_states, mdp.num_actions), scale)),
        budget=budget,
    )


class TestUnconstrained:
    def test_centroid_recovers_expert_on_full_support(self, rng):
        mdp = random_mdp(4, 3, 0.8, rng)
        expert = det_policy(rng.integers(3, size=4), 3)
        req = CentroidRequest(
            expert=expert, support=frozenset(range(4)),
            kind=OPT,
        )
        planned = plan_unconstrained(mdp, centroid(req))
        assert np.array_equal(planned.actions(), expert.actions())

    def test_zero_reward_breaks_ties_to_first_action(self, rng):
        mdp = random_mdp(3, 3, 0.5, rng)
        planned = plan_unconstrained(mdp, RewardTable(np.zeros((3, 3))))
        assert np.all(planned.actions() == 0)

    def test_matches_constrained_with_slack_budget(self, rng):
        for _ in range(10):
            mdp = random_mdp(4, 2, 0.75, rng)
            r = RewardTable(rng.normal(size=(4, 2)))
            plan = plan_constrained(mdp, r, slack_constraint(mdp))
            best = value_iteration(mdp, r).v[mdp.initial_state]
            assert plan.value == pytest.approx(best, abs=1e-6)


class TestConstrained:
    def test_budget_forbids_costly_action(self):
        mdp = one_state_mdp(0.9)
        plan = plan_constrained(
            mdp,
            RewardTable([[1.0, 0.0]]),
            ConstraintSpec(cost=RewardTable([[1.0, 0.0]]), budget=0.0),
        )
        assert plan.policy.probs[0] == pytest.approx([0.0, 1.0])
        assert plan.value == pytest.approx(0.0, abs=1e-9)

    def test_unavoidable_cost_is_infeasible(self, monkeypatch):
        # The min-cost policy is over budget, so no LP is solved.
        monkeypatch.setattr(planning, "solve", None)
        mdp = one_state_mdp(0.9)
        with pytest.raises(InfeasibleConstraintError):
            plan_constrained(
                mdp,
                RewardTable([[1.0, 0.0]]),
                ConstraintSpec(cost=RewardTable([[1.0, 1.0]]), budget=0.0),
            )

    def test_budget_respected_by_extracted_policy(self, rng):
        for _ in range(20):
            mdp = random_mdp(4, 3, 0.7, rng)
            r = RewardTable(rng.normal(size=(4, 3)))
            cost = RewardTable(rng.uniform(0.0, 1.0, size=(4, 3)))
            budget = float(rng.uniform(0.5, 2.0))
            spec = ConstraintSpec(cost=cost, budget=budget)
            try:
                plan = plan_constrained(mdp, r, spec)
            except InfeasibleConstraintError:
                continue
            cost_value = policy_evaluation(mdp, plan.policy, cost).v[mdp.initial_state]
            assert cost_value <= budget + 1e-6

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            ConstraintSpec(cost=RewardTable([[0.0]]), budget=-1.0)

    def test_gridworld_program_starts_at_its_optimum(self, gridworld_programs):
        # figG4d's 500-variable, 101-row program: the greedy policy of its
        # reward meets the budget, so its basis is optimal and the solve takes
        # no phase-2 pivot.
        program, basis = gridworld_programs[LP_SCENARIOS.index("figG4d")]
        sol = solve(program, basis)
        assert sol.pivots[0] == 0


@pytest.fixture(scope="module")
def gridworld_programs(tmp_path_factory):
    """(program, starting basis) of each scenario in LP_SCENARIOS."""
    programs = []

    def recording_solve(program, basis=None):
        programs.append((program, basis))
        return solve(program, basis)

    out = tmp_path_factory.mktemp("lp_scenarios")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planning, "solve", recording_solve)
        for name in LP_SCENARIOS:
            run_scenario(name, ROOT / "configs" / f"{name}.json", out)
    assert len(programs) == len(LP_SCENARIOS)
    return programs


class TestUniqueOptimum:
    @pytest.mark.parametrize("index", range(len(LP_SCENARIOS)), ids=LP_SCENARIOS)
    def test_same_x_from_any_start_and_column_order(self, gridworld_programs, index):
        # The other start is the basis of a random deterministic policy, its
        # ub-row part set from that policy's own occupancy by the planner's
        # rule: the first draw that solve accepts.
        program, basis = gridworld_programs[index]
        warm = solve(program, basis)
        S = program.eq_rhs.size
        draws = np.random.default_rng(index)
        for _ in range(20):
            actions = draws.integers(NUM_GRID_ACTIONS, size=S)
            flow = np.arange(S) * NUM_GRID_ACTIONS + actions
            d = np.zeros(S * NUM_GRID_ACTIONS)
            d[flow] = np.linalg.solve(program.eq_lhs[:, flow], program.eq_rhs)
            other = planning._start_basis(program, actions, d)
            try:
                start = solve(program, other)
                break
            except DomainError:
                continue
        else:
            pytest.fail("no random policy's basis is feasible")
        assert warm.pivots != start.pivots
        perm = np.random.default_rng(index).permutation(program.num_vars)
        assert np.abs(warm.x - start.x).max() <= 1e-12
        assert np.abs(solve_permuted(program, perm, basis) - warm.x).max() <= 1e-12


class TestCrash:
    """The crash policy is the first greedy policy to meet the budget: of the
    gain, of gain - M * cost, then of -cost."""

    @pytest.mark.parametrize(("name", "most"), [("fig2b", 2), ("fig4e", 11)])
    def test_gridworld_program_starts_near_its_optimum(self, gridworld_programs, name, most):
        # Started from the expert's actions, fig2b's program takes 97 phase-2
        # pivots; started from its min-cost policy, fig4e's takes 91.
        program, basis = gridworld_programs[LP_SCENARIOS.index(name)]
        assert solve(program, basis).pivots[0] <= most

    @pytest.fixture
    def separated(self, rng):
        """An MDP, gain and cost whose three crash policies have distinct cost
        values c1 > c2 > c3; their actions and cost values."""
        for _ in range(50):
            mdp = random_mdp(4, 3, 0.8, rng)
            gain = rng.normal(size=(4, 3))
            cost = rng.uniform(0.0, 1.0, size=(4, 3)) ** 2
            big_m = np.ptp(gain) / (1.0 - mdp.discount) + 1.0
            candidates = []
            for table in (gain, gain - big_m * cost, -cost):
                policy = plan_unconstrained(mdp, RewardTable(table))
                value = policy_evaluation(mdp, policy, RewardTable(cost)).v[mdp.initial_state]
                candidates.append((policy.actions(), value))
            (_, c1), (_, c2), (_, c3) = candidates
            if c1 > c2 + 1e-3 and c2 > c3 + 1e-3:
                return mdp, gain, cost, candidates
        pytest.fail("no instance separates the three crash policies")

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_returns_the_first_greedy_policy_within_budget(self, separated, first):
        # The budget is the candidate's own cost value, which the ones before
        # it exceed.
        mdp, gain, cost, candidates = separated
        expected, budget = candidates[first]
        actions, d = planning._crash(mdp, gain, ConstraintSpec(RewardTable(cost), budget), "")
        assert np.array_equal(actions, expected)
        assert d == pytest.approx(occupancy_measure(mdp, det_policy(expected, 3)).d.ravel())

    def test_without_a_budget_returns_the_greedy_policy_of_the_gain(self, separated):
        mdp, gain, _, candidates = separated
        actions, _ = planning._crash(mdp, gain, None, "")
        assert np.array_equal(actions, candidates[0][0])

    def test_budget_below_the_least_cost_solves_no_program(self, monkeypatch, rng, separated):
        mdp, gain, cost, candidates = separated
        spec = ConstraintSpec(RewardTable(cost), 0.99 * candidates[2][1])
        monkeypatch.setattr(planning, "solve", None)
        with pytest.raises(InfeasibleConstraintError):
            plan_constrained(mdp, RewardTable(gain), spec)
        with pytest.raises(InfeasibleConstraintError):
            mimic_policy(mdp, random_policy(4, 3, rng), mdp, spec)


class TestCertificate:
    @pytest.mark.parametrize("field", ["x", "dual"])
    @pytest.mark.parametrize("planner", ["plan_constrained", "mimic_policy"])
    def test_perturbed_solution_is_refused(self, monkeypatch, rng, field, planner):
        # Moving x breaks the initial state's flow row; moving its multiplier
        # opens a duality gap of (1 - gamma) * 1e-6.
        def perturbed_solve(program, basis=None):
            sol = solve(program, basis)
            moved = getattr(sol, field).copy()
            moved[0] += 1e-6
            return dataclasses.replace(sol, **{field: moved})

        mdp = random_mdp(4, 2, 0.8, rng)
        r = RewardTable(rng.normal(size=(4, 2)))
        expert = random_policy(4, 2, rng)

        def run():
            if planner == "plan_constrained":
                return plan_constrained(mdp, r, slack_constraint(mdp))
            return mimic_policy(mdp, expert, mdp)

        run()  # the unperturbed solution is certified
        monkeypatch.setattr(planning, "solve", perturbed_solve)
        with pytest.raises(SolverError, match="not certified"):
            run()


class TestPolicyFromOccupancy:
    def test_normalizes_rows(self):
        occ = OccupancyMeasure(np.array([[0.15, 0.35], [0.2, 0.3]]))
        policy = policy_from_occupancy(occ)
        assert policy.probs[0] == pytest.approx([0.3, 0.7])
        assert policy.probs[1] == pytest.approx([0.4, 0.6])

    def test_zero_mass_rows_go_uniform(self):
        occ = OccupancyMeasure(np.array([[0.5, 0.5], [0.0, 0.0]]))
        policy = policy_from_occupancy(occ)
        assert policy.probs[1] == pytest.approx([0.5, 0.5])

    def test_round_trip_through_flow(self, rng):
        for _ in range(10):
            mdp = random_mdp(4, 2, 0.8, rng)
            occ = occupancy_measure(mdp, random_policy(4, 2, rng))
            back = occupancy_measure(mdp, policy_from_occupancy(occ))
            assert back.d == pytest.approx(occ.d, abs=1e-8)


class TestMimic:
    def test_same_environment_is_exact(self):
        mdp = fig_two_state_chain(0.5)
        expert = det_policy([1, 0], 2)
        result = mimic_policy(mdp, expert, mdp)
        assert result.l1_distance == pytest.approx(0.0, abs=1e-8)
        for s in (0, 1):
            assert result.policy.actions()[s] == expert.actions()[s]

    def test_one_state_recovers_expert(self):
        mdp = one_state_mdp(0.6)
        expert = PolicyTable([[0.25, 0.75]])
        result = mimic_policy(mdp, expert, mdp)
        assert result.policy.probs[0] == pytest.approx([0.25, 0.75], abs=1e-9)

    def test_beats_bc_occupancy_distance(self, rng):
        # MIMIC optimizes the L1 distance over all feasible occupancies, so it
        # is at least as close as the BC policy's occupancy.
        for _ in range(5):
            src = random_mdp(4, 2, 0.7, rng)
            dst = random_mdp(4, 2, 0.7, rng)
            expert = random_policy(4, 2, rng)
            d_e = occupancy_measure(src, expert).d
            result = mimic_policy(src, expert, dst)
            bc = bc_policy(expert, frozenset(range(4)))
            bc_distance = float(np.abs(occupancy_measure(dst, bc).d - d_e).sum())
            assert result.l1_distance <= bc_distance + 1e-7

    def test_respects_constraints(self):
        mdp = fig_two_state_chain(0.5)
        expert = det_policy([1, 0], 2)
        avoid_s1 = np.zeros((2, 2))
        avoid_s1[1, :] = 1.0
        result = mimic_policy(
            mdp, expert, mdp, ConstraintSpec(cost=RewardTable(avoid_s1), budget=0.0)
        )
        assert result.occupancy.state_marginal()[1] == pytest.approx(0.0, abs=1e-9)
        assert result.l1_distance > 0.5  # forced away from the expert's occupancy
        unavoidable = np.zeros((2, 2))
        unavoidable[0, :] = 1.0  # the initial state always carries mass
        with pytest.raises(InfeasibleConstraintError):
            mimic_policy(
                mdp, expert, mdp, ConstraintSpec(cost=RewardTable(unavoidable), budget=0.0)
            )

    def test_full_support_expert_on_a_blocked_grid_is_certified(self):
        # A full-support expert gives one support row per pair: a degenerate
        # program on which a ratio test that ties within PIVOT_TOL of the
        # minimum ended on an infeasible basis (primal residual 1.58e-09
        # against a bound of 1.29e-09).  HiGHS gives 0.5847936693.
        source, _ = build_gridworld(GridworldSpec(10, 10, (0, 0), 0.9))
        target, blocked = build_gridworld(
            GridworldSpec(10, 10, (0, 0), 0.9, reversed=True, blocked_cells=((5, 5), (5, 4)))
        )
        expert = PolicyTable(np.random.default_rng(3).dirichlet(np.ones(5) * 0.3, size=100))
        result = mimic_policy(source, expert, target, blocked)
        assert result.l1_distance == pytest.approx(0.5847936693, abs=1e-9)


class TestLpSize:
    """An occupancy LP is size-checked before any program-sized array is built."""

    @pytest.fixture(scope="class")
    def fig2b(self):
        return fig2b_mimic()

    def test_mimic_over_the_limit_raises_before_allocating(self, fig2b, monkeypatch):
        inputs, size = fig2b
        monkeypatch.setattr(planning, "MAX_LP_BYTES", size - 1)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^an occupancy LP of 106 rows and 506 variables needs "):
                mimic_policy(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the expert's S x S occupancy solve; the flow rows alone take 405 KB
        assert peak < size / 3

    def test_mimic_at_the_limit_solves(self, fig2b, monkeypatch):
        inputs, size = fig2b
        monkeypatch.setattr(planning, "MAX_LP_BYTES", size)
        assert mimic_policy(*inputs).l1_distance > 0.0

    def test_constrained_plan_at_and_over_the_limit(self, monkeypatch):
        # 2 flow rows and the budget row; 4 variables and one slack: 8 * 3 * (2 * 6 + 3) bytes
        mdp = fig_two_state_chain(0.5)
        constraint = ConstraintSpec(cost=RewardTable(np.zeros((2, 2))), budget=0.0)
        monkeypatch.setattr(planning, "MAX_LP_BYTES", 360)
        plan_constrained(mdp, RewardTable(np.eye(2)), constraint)
        monkeypatch.setattr(planning, "MAX_LP_BYTES", 359)
        with pytest.raises(DomainError, match=r"^an occupancy LP of 3 rows and 4 variables needs "):
            plan_constrained(mdp, RewardTable(np.eye(2)), constraint)

    def test_mimic_program_is_built_in_place(self, fig2b):
        # The build peaks at the program's own arrays and one shaping_matrix,
        # the flow rows before they are copied into eq_lhs: no block is copied.
        (source, expert, target, constraint), _ = fig2b
        d_e = occupancy_measure(source, expert).d.ravel()
        objective = np.zeros(d_e.size)
        tracemalloc.start()
        try:
            program = planning._occupancy_lp(target, objective, constraint, d_e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(getattr(program, field.name).nbytes for field in dataclasses.fields(program))
        assert peak <= own + shaping_matrix(target).nbytes

    @pytest.mark.parametrize("side, support, constrained, mib", [
        (42, 0, True, 261),  # every constrained plan on the largest grid: 274 MB
        (23, 5 * 23 * 23, True, 461),  # full-support MIMIC: 484 MB
        (24, 5 * 24 * 24, False, 547),  # 573 MB, over 512 MiB
    ])
    def test_limit_on_grid_programs(self, monkeypatch, side, support, constrained, mib):
        S, A = side * side, NUM_GRID_ACTIONS
        ub_rows = constrained + support
        rows, variables = S + ub_rows, S * A + support
        size = lp_module.held_bytes(rows, variables, ub_rows)
        fits = size <= MAX_LP_BYTES
        assert fits == (mib < MAX_LP_BYTES // 2**20)
        # _occupancy_lp counts the same program and refuses it before it reads
        # a table: the stand-in has none, so no 42x42 table is built.
        shape = SimpleNamespace(num_states=S, num_actions=A)
        constraint = ConstraintSpec(cost=RewardTable(np.zeros((1, 1))), budget=0.0) if constrained else None
        d_e = np.zeros(S * A)
        d_e[:support] = 1.0
        if fits:
            monkeypatch.setattr(planning, "MAX_LP_BYTES", size - 1)
        limit = planning.MAX_LP_BYTES // 2**20
        message = rf"^an occupancy LP of {rows:,} rows and {variables:,} variables needs {mib} MiB .* over the {limit} MiB limit$"
        with pytest.raises(DomainError, match=message):
            planning._occupancy_lp(shape, np.zeros(S * A), constraint, d_e)


class TestOccupancyLp:
    """One builder lays out both programs: the flow rows, the budget row, then
    one row and one unit-cost w_i per pair of the expert's support."""

    @pytest.fixture
    def inputs(self, rng):
        mdp = random_mdp(4, 3, 0.8, rng)
        cost = RewardTable(rng.uniform(0.0, 1.0, size=(4, 3)))
        d_e = occupancy_measure(mdp, det_policy([0, 2, 1, 0], 3)).d.ravel()
        return mdp, rng.normal(size=12), ConstraintSpec(cost, 2.0), d_e

    @pytest.mark.parametrize("constrained", [False, True])
    def test_zero_expert_occupancy_gives_the_plan_program(self, inputs, constrained):
        mdp, objective, constraint, _ = inputs
        constraint = constraint if constrained else None
        program = planning._occupancy_lp(mdp, objective, constraint, np.zeros(12))
        assert program.num_vars == 12 and program.ub_lhs.shape == (int(constrained), 12)
        assert np.array_equal(program.objective, objective)
        assert np.abs(program.eq_lhs - flow_matrix(mdp)).max() <= 1e-15
        assert np.array_equal(program.eq_rhs, (1.0 - mdp.discount) * np.eye(4)[mdp.initial_state])
        if constrained:
            assert np.array_equal(program.ub_lhs[0], constraint.cost.values.ravel())
            assert program.ub_rhs[0] == (1.0 - mdp.discount) * constraint.budget

    def test_support_rows_follow_the_budget_row(self, inputs):
        mdp, objective, constraint, d_e = inputs
        plan = planning._occupancy_lp(mdp, objective, constraint, np.zeros(12))
        program = planning._occupancy_lp(mdp, objective, constraint, d_e)
        support = np.flatnonzero(d_e)
        k = support.size
        assert 0 < k < 12 and program.num_vars == 12 + k
        assert np.array_equal(program.objective, np.concatenate([objective, np.ones(k)]))
        assert np.array_equal(program.eq_lhs, np.hstack([plan.eq_lhs, np.zeros((4, k))]))
        assert np.array_equal(program.ub_lhs[0], np.append(plan.ub_lhs[0], np.zeros(k)))
        rows = np.zeros((k, 12))
        rows[np.arange(k), support] = -1.0
        assert np.array_equal(program.ub_lhs[1:], np.hstack([rows, -np.eye(k)]))
        assert np.array_equal(program.ub_rhs, np.append(plan.ub_rhs, -d_e[support]))


class TestMimicOptimum:
    """The sparse d + w program reaches the optimum of the dense u/v program."""

    def check(self, src, expert, dst, constraint=None):
        d_e = occupancy_measure(src, expert).d.ravel()
        result = mimic_policy(src, expert, dst, constraint)
        assert result.l1_distance == pytest.approx(
            dense_l1_optimum(dst, d_e, constraint), abs=1e-9
        )
        assert flow_residual(dst, result.occupancy.d) <= 1e-9
        return d_e

    def instances(self, rng, count=8):
        for _ in range(count):
            S, A = int(rng.integers(4, 7)), int(rng.integers(2, 4))
            gamma = float(rng.uniform(0.5, 0.9))
            yield S, A, random_mdp(S, A, gamma, rng), random_mdp(S, A, gamma, rng)

    def test_full_support_experts(self, rng):
        for S, A, src, dst in self.instances(rng):
            d_e = self.check(src, random_policy(S, A, rng), dst)
            assert np.all(d_e > 0)

    def test_deterministic_experts(self, rng):
        for S, A, src, dst in self.instances(rng):
            d_e = self.check(src, det_policy(rng.integers(A, size=S), A), dst)
            assert np.any(d_e == 0)

    def test_experts_under_cost_budget(self, rng):
        for S, A, src, dst in self.instances(rng):
            cost = RewardTable(rng.uniform(0.0, 1.0, size=(S, A)))
            # between the cheapest and the uniform policy's cost value, so the
            # budget is feasible and usually binding
            uniform = PolicyTable(np.full((S, A), 1.0 / A))
            floor = value_iteration(dst, RewardTable(-cost.values)).v[dst.initial_state]
            top = policy_evaluation(dst, uniform, cost).v[dst.initial_state]
            budget = float(-floor + rng.uniform(0.0, 1.0) * (top + floor))
            self.check(src, random_policy(S, A, rng), dst, ConstraintSpec(cost, budget))


class TestBaselines:
    def test_bc_full_support_is_expert(self, rng):
        expert = random_policy(3, 2, rng)
        assert np.array_equal(
            bc_policy(expert, frozenset(range(3))).probs, expert.probs
        )

    def test_bc_empty_support_is_uniform(self, rng):
        expert = random_policy(3, 2, rng)
        assert np.all(bc_policy(expert, frozenset()).probs == 0.5)

    def test_bc_partial_support(self, rng):
        expert = random_policy(3, 2, rng)
        mixed = bc_policy(expert, frozenset({1}))
        assert mixed.probs[1] == pytest.approx(expert.probs[1])
        assert mixed.probs[0] == pytest.approx([0.5, 0.5])

    def test_best_case_reward_is_feasible(self, rng):
        for seed in range(10):
            mdp = random_mdp(4, 3, 0.7, rng)
            expert = det_policy(rng.integers(3, size=4), 3)
            support = frozenset({0, 1})
            r = best_case_reward(mdp, expert, support, seed)
            assert is_feasible(mdp, expert, support, r, BehaviorModel.opt())

    def test_best_case_reward_is_seeded(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        expert = det_policy([0, 1, 0], 2)
        a = best_case_reward(mdp, expert, frozenset({0}), 11)
        b = best_case_reward(mdp, expert, frozenset({0}), 11)
        c = best_case_reward(mdp, expert, frozenset({0}), 12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_best_case_expert_uniquely_optimal_on_support(self, rng):
        mdp = random_mdp(3, 2, 0.6, rng)
        expert = det_policy([1, 0, 1], 2)
        support = frozenset(range(3))
        r = best_case_reward(mdp, expert, support, 4)
        vf = value_iteration(mdp, r)
        gaps = vf.q - vf.v[:, None]
        for s in range(3):
            for a in range(2):
                if a != expert.actions()[s]:
                    assert gaps[s, a] < -1e-6


class TestSuboptimalityBound:
    def test_identical_rewards_give_zero(self, rng):
        mdp = random_mdp(3, 2, 0.5, rng)
        r = RewardTable(rng.normal(size=(3, 2)))
        lhs, rhs = suboptimality_bound(mdp, r, r, slack_constraint(mdp))
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_single_entry_perturbation(self, rng):
        mdp = random_mdp(3, 2, 0.5, rng)
        r = RewardTable(rng.normal(size=(3, 2)))
        bumped = r.values.copy()
        bumped[1, 1] += 0.25
        lhs, rhs = suboptimality_bound(mdp, RewardTable(bumped), r, slack_constraint(mdp))
        assert rhs == pytest.approx(0.5)
        assert lhs <= rhs + 1e-9

    def test_holds_on_random_pairs(self, rng):
        for _ in range(50):
            mdp = random_mdp(4, 3, 0.6, rng)
            r_ref = RewardTable(rng.normal(size=(4, 3)))
            r_hat = RewardTable(r_ref.values + rng.normal(scale=0.3, size=(4, 3)))
            cost = RewardTable(rng.uniform(0.0, 1.0, size=(4, 3)))
            # a budget above the uniform policy's cost value keeps it feasible
            uniform = PolicyTable(np.full((4, 3), 1.0 / 3.0))
            floor = policy_evaluation(mdp, uniform, cost).v[mdp.initial_state]
            budget = float(floor + rng.uniform(0.0, 1.0))
            lhs, rhs = suboptimality_bound(
                mdp, r_hat, r_ref, ConstraintSpec(cost=cost, budget=budget)
            )
            assert lhs <= rhs + 1e-7
