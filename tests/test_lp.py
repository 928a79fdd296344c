import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewardcentroids import lp as lp_module, planning
from rewardcentroids.errors import DomainError, SolverError
from rewardcentroids.gridworld import GridworldSpec, build_gridworld
from rewardcentroids.lp import (
    LinearProgram,
    LpSolution,
    solve,
    tie_objective,
)
from rewardcentroids.mdp import RewardTable, occupancy_measure
from rewardcentroids.planning import ConstraintSpec, plan_unconstrained

from conftest import solve_permuted

NO_EQ = dict(eq_lhs=np.zeros((0, 0)), eq_rhs=[])


def ub_program(c, A, b):
    n = np.atleast_1d(np.asarray(c)).size
    return LinearProgram(
        objective=c, eq_lhs=np.zeros((0, n)), eq_rhs=[], ub_lhs=A, ub_rhs=b
    )


def brute_force_min(c, A, b):
    """Vertex enumeration over active sets of [A; -I]; assumes boundedness."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(rows.shape[0]), n):
        square = rows[list(combo)]
        if abs(np.linalg.det(square)) < 1e-10:
            continue
        x = np.linalg.solve(square, rhs[list(combo)])
        if np.all(A @ x <= b + 1e-9) and np.all(x >= -1e-9):
            value = float(c @ x)
            if best is None or value < best:
                best = value
    return best


class TestExamples:
    def test_simple_maximization(self):
        sol = solve(ub_program([-1.0], [[1.0]], [1.0]))
        assert sol.x == pytest.approx([1.0])
        assert sol.objective_value == pytest.approx(-1.0)

    def test_degenerate_face_resolved_by_tie_weights(self):
        sol = solve(ub_program([-1.0, -1.0], [[1.0, 1.0]], [1.0]))
        assert sol.objective_value == pytest.approx(-1.0)
        # both vertices are optimal; the one with the smaller tie weight wins
        expected = [1.0, 0.0] if tie_objective(2)[0] < tie_objective(2)[1] else [0.0, 1.0]
        assert sol.x == pytest.approx(expected)

    def test_unbounded(self):
        with pytest.raises(SolverError, match="unbounded"):
            solve(ub_program([-1.0], [[-1.0]], [0.0]))

    def test_singular_final_basis_is_solver_error(self, monkeypatch):
        # the duals' solve is the only np.linalg.solve of a solve
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SolverError, match="singular"):
            solve(ub_program([-1.0], [[1.0]], [1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            LinearProgram(
                objective=[np.inf], eq_lhs=np.zeros((0, 1)), eq_rhs=[],
                ub_lhs=[[1.0]], ub_rhs=[1.0],
            )

    def test_program_without_rows_rejected(self):
        with pytest.raises(DomainError, match="^program needs at least one constraint$"):
            solve(ub_program([1.0], np.zeros((0, 1)), []))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DomainError):
            LinearProgram(
                objective=[1.0, 2.0], eq_lhs=[[1.0, 0.0]], eq_rhs=[1.0, 2.0],
                ub_lhs=np.zeros((0, 2)), ub_rhs=[],
            )

    def test_iteration_limit_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(lp_module, "MAX_ITERS", 1)
        with pytest.raises(SolverError):
            solve(ub_program([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]))


class TestAgainstBruteForce:
    def test_random_bounded_programs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 7))
            c = rng.normal(size=n)
            A = np.vstack([rng.normal(size=(m, n)), np.ones(n)])
            b = np.concatenate([rng.uniform(0.2, 2.0, size=m), [rng.uniform(1.0, 5.0)]])
            reference = brute_force_min(c, A, b)
            sol = solve(ub_program(c, A, b))
            assert sol.objective_value == pytest.approx(reference, abs=1e-8)

    def test_constraint_residuals(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            c = rng.normal(size=n)
            A = np.vstack([rng.normal(size=(2, n)), np.ones(n)])
            b = np.concatenate([rng.uniform(0.5, 2.0, size=2), [3.0]])
            sol = solve(ub_program(c, A, b))
            scale = 1e-7 * (1.0 + np.abs(b).max())
            assert np.all(A @ sol.x <= b + scale)
            assert np.all(sol.x >= -scale)

    @pytest.mark.parametrize("budget", [0.0, 0.5])
    @pytest.mark.parametrize("planner", ["plan", "mimic"])
    def test_degenerate_grid_programs(self, planner, budget):
        # A 2x1 grid reversed, its second cell blocked: the reward and the
        # source expert both lead there, and a budget of 0 shuts it.  The
        # programs are built and started as the planners build and start them.
        goal = RewardTable([[0.0] * 5, [1.0] * 5])
        source, _ = build_gridworld(GridworldSpec(2, 1, (0, 0), 0.9))
        target, blocked = build_gridworld(
            GridworldSpec(2, 1, (0, 0), 0.9, reversed=True, blocked_cells=((1, 0),))
        )
        constraint = ConstraintSpec(blocked.cost, budget)
        if planner == "plan":
            gain = goal.values
            program = planning._occupancy_lp(target, -gain.ravel(), constraint, np.zeros(10))
        else:
            d_e = occupancy_measure(source, plan_unconstrained(source, goal)).d.ravel()
            gain = (d_e > 0).astype(float).reshape(2, 5)
            program = planning._occupancy_lp(target, np.zeros(10), constraint, d_e)
        actions, d = planning._crash(target, gain, constraint, "")
        sol = solve(program, planning._start_basis(program, actions, d))
        # each equality row as two <= rows
        A = np.vstack([program.eq_lhs, -program.eq_lhs, program.ub_lhs])
        b = np.concatenate([program.eq_rhs, -program.eq_rhs, program.ub_rhs])
        assert sol.objective_value == pytest.approx(brute_force_min(program.objective, A, b), abs=1e-9)


def assert_dual_certificate(c, A, b, sol):
    y = sol.dual
    assert y @ b == pytest.approx(sol.objective_value, abs=1e-7)
    assert np.all(c - A.T @ y >= -1e-7)  # dual feasibility
    assert np.all(y <= 1e-9)  # <= rows carry nonpositive multipliers


class TestDuality:
    def test_certificates_on_random_programs(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            c = rng.normal(size=n)
            A = np.vstack([rng.normal(size=(3, n)), np.ones(n)])
            b = np.concatenate([rng.uniform(0.2, 2.0, size=3), [rng.uniform(1.0, 4.0)]])
            sol = solve(ub_program(c, A, b))
            assert_dual_certificate(c, A, b, sol)

    def test_equality_duals(self, rng):
        # Equality rows built so that a random pair of columns is a feasible
        # basis, completed by the slack of the bounding row.
        for _ in range(50):
            n = 4
            c = rng.normal(size=n)
            A = rng.normal(size=(2, n))
            start = rng.choice(n, size=2, replace=False)
            beq = A[:, start] @ rng.uniform(0.5, 1.5, size=2)
            lp = LinearProgram(
                objective=c, eq_lhs=A, eq_rhs=beq, ub_lhs=np.ones((1, n)), ub_rhs=[10.0],
            )
            sol = solve(lp, basis=np.append(start, n))
            rhs_all = np.concatenate([beq, [10.0]])
            assert sol.dual @ rhs_all == pytest.approx(sol.objective_value, abs=1e-6)


class TestDegeneracy:
    # Each of these programs makes Dantzig pricing cycle forever at the origin;
    # with the iteration limit at 100 they also show that the fallback to
    # Bland's rule engages after a stall as long as the candidate columns.
    def test_cycling_prone_instance_terminates(self, monkeypatch):
        # classic Beale-style degenerate instance
        monkeypatch.setattr(lp_module, "MAX_ITERS", 100)
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        A = np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        sol = solve(ub_program(c, A, b))
        assert sol.objective_value == pytest.approx(-0.05)

    def test_beale_original_terminates(self, monkeypatch):
        # Beale (1955)
        monkeypatch.setattr(lp_module, "MAX_ITERS", 100)
        c = np.array([-0.75, 20.0, -0.5, 6.0])
        A = np.array(
            [
                [0.25, -8.0, -1.0, 9.0],
                [0.5, -12.0, -0.5, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        sol = solve(ub_program(c, A, b))
        assert sol.objective_value == pytest.approx(-1.25)
        assert_dual_certificate(c, A, b, sol)

    def test_chvatal_example_terminates(self, monkeypatch):
        # Chvatal, Linear Programming (1983), the cycling example of chapter 3
        monkeypatch.setattr(lp_module, "MAX_ITERS", 100)
        c = np.array([-10.0, 57.0, 9.0, 24.0])
        A = np.array(
            [
                [0.5, -5.5, -2.5, 9.0],
                [0.5, -1.5, -0.5, 1.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        sol = solve(ub_program(c, A, b))
        assert sol.objective_value == pytest.approx(-1.0)
        assert_dual_certificate(c, A, b, sol)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_random_degenerate_programs(self, n, m, seed):
        # Small integer data with zero right-hand sides: many vertices sit on
        # more than n active constraints, and reduced costs often tie.
        rng = np.random.default_rng(seed)
        c = rng.integers(-3, 4, size=n).astype(float)
        A = np.vstack([rng.integers(-2, 3, size=(m, n)), np.ones(n)]).astype(float)
        b = np.concatenate([rng.choice([0.0, 0.0, 1.0, 2.0], size=m), [float(rng.integers(1, 4))]])
        sol = solve(ub_program(c, A, b))
        assert sol.objective_value == pytest.approx(brute_force_min(c, A, b), abs=1e-8)
        assert_dual_certificate(c, A, b, sol)

    def test_leaving_row_ties_only_at_the_exact_minimum_ratio(self):
        # Row 1's ratio lies PIVOT_TOL / 2 above row 0's.  Tying every ratio
        # within PIVOT_TOL of the minimum would pick row 1, the lower basis
        # index, and drive row 0's basic value to -PIVOT_TOL / 2.
        tab = np.array([[1.0, 1.0], [1.0, 1.0 + lp_module.PIVOT_TOL / 2]])
        basis = np.array([3, 2])
        assert lp_module._ratio_leaving(tab, basis, 0) == 0
        tab[1, -1] = 1.0  # an exact tie still goes to the lowest basis index
        assert lp_module._ratio_leaving(tab, basis, 0) == 1

    def test_solution_type(self):
        sol = solve(ub_program([-1.0], [[1.0]], [1.0]))
        assert isinstance(sol, LpSolution)
        assert sol.pivots == (1, 0)  # one phase-2 pivot, no tie pivot


class TestTieStage:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        dup=st.integers(1, 4),
        as_equality=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_duplicated_columns_same_x_under_permutation(self, n, m, dup, as_equality, seed):
        # Duplicated columns give a face of optima whenever one of them
        # carries mass; the tie stage must pick the same point of it.
        rng = np.random.default_rng(seed)
        c = rng.integers(-3, 4, size=n).astype(float)
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        copies = rng.integers(0, n, size=dup)
        c = np.concatenate([c, c[copies]])
        A = np.hstack([A, A[:, copies]])
        b = rng.choice([0.0, 0.0, 1.0, 2.0], size=m)
        total = np.ones((1, c.size))
        if as_equality:
            # x_j = 2 on the first column j that keeps every ub row feasible
            fits = np.flatnonzero(np.all(b[:, None] - 2.0 * A >= 0.0, axis=0))
            if fits.size == 0:
                return
            program = LinearProgram(c, total, [2.0], A, b)
            basis = np.append(fits[0], c.size + np.arange(m))
        else:
            program = ub_program(c, np.vstack([A, total]), np.append(b, 2.0))
            basis = None
        sol = solve(program, basis)
        perm = rng.permutation(c.size)
        assert np.abs(solve_permuted(program, perm, basis) - sol.x).max() <= 1e-9

    def test_tie_pivots_are_counted(self):
        # min 0 over x1 + x2 <= 1 with x1 = 1 forced: the whole feasible
        # segment is optimal and the tie weights choose its end x2 = 0.
        program = LinearProgram([0.0, 0.0], [[1.0, 1.0]], [1.0], np.zeros((0, 2)), [])
        sol = solve(program, basis=[int(np.argmax(tie_objective(2)))])
        assert sol.pivots == (0, 1)
        assert sol.x[np.argmin(tie_objective(2))] == pytest.approx(1.0)


class TestStartBasis:
    def test_same_answer_from_every_feasible_start(self, rng):
        # Equality rows built so that a random set of columns is a feasible
        # basis; duplicated columns make the optimum non-unique.  Every
        # triple of the 8 columns that solve accepts (with the slack of the
        # bounding row) must reach the same x.
        for _ in range(50):
            m, n = 3, 6
            A = rng.normal(size=(m, n))
            A = np.hstack([A, A[:, :2]])
            start = rng.choice(n, size=m, replace=False)
            b = A[:, start] @ rng.uniform(0.5, 1.5, size=m)
            c = rng.integers(-2, 3, size=n).astype(float)
            c = np.concatenate([c, c[:2]])
            program = LinearProgram(c, A, b, np.ones((1, n + 2)), [10.0])
            xs = []
            for triple in itertools.combinations(range(n + 2), m):
                try:
                    sol = solve(program, basis=np.append(triple, n + 2))
                except DomainError:
                    continue
                xs.append(sol.x)
            assert len(xs) >= 2
            assert np.abs(np.array(xs) - xs[0]).max() <= 1e-9

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([0], "one distinct"),
            ([0, 0], "one distinct"),
            ([0, 5], "one distinct"),
            ([0, 1], "singular"),
            ([0, 4], "not primal feasible"),
            (None, "needs a starting basis"),
        ],
    )
    def test_bad_start_basis_is_domain_error(self, basis, message):
        # x0 + x1 = 1 with x0, x1 the same column, and x2 - x3 <= -1, whose
        # slack (column 4) would start at -1.
        program = LinearProgram(
            [1.0, 1.0, 0.0, 0.0], [[1.0, 1.0, 0.0, 0.0]], [1.0],
            [[0.0, 0.0, 1.0, -1.0]], [-1.0],
        )
        with pytest.raises(DomainError, match=message):
            solve(program, basis=basis)

    def test_slack_start_needs_nonnegative_rhs(self):
        with pytest.raises(DomainError, match="not primal feasible"):
            solve(ub_program([1.0], [[-1.0]], [-1.0]))
