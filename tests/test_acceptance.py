"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Everything is seeded; the whole suite targets a desk-scale runtime.
"""

import itertools
import json
from pathlib import Path

import numpy as np

from rewardcentroids.centroids import (
    CentroidRequest,
    affine_fit,
    centroid,
    constant_fit,
)
from rewardcentroids.estimators import (
    estimate_birl,
    estimate_mce,
    estimate_opt,
    p_min_h,
    sample_bound,
    simulate_expert,
)
from rewardcentroids.geometry import (
    BIRL,
    MCE,
    OPT,
    AdvantageGap,
    BehaviorModel,
    BoundedSetParams,
    bounding_box,
    eta_birl,
    eta_mce,
    t_operator,
    u_operator,
)
from rewardcentroids.gridworld import build_gridworld, run_scenario, spec_from_dict
from rewardcentroids.lp import LinearProgram, solve
from rewardcentroids.mclab import (
    fig_two_state_chain,
    mc_centroid_manifold,
    mc_centroid_opt,
    mc_centroid_prior,
    mc_volume_fraction,
    new_env_bias_ratio,
    new_env_bias_ratio_closed_form,
    segment_volume_1d,
)
from rewardcentroids.mdp import (
    PolicyTable,
    RewardTable,
    TabularMdp,
    greedy_policy,
    occupancy_measure,
    policy_evaluation,
    random_mdp,
    reachable_support,
    value_iteration,
)
from rewardcentroids.planning import (
    ConstraintSpec,
    plan_constrained,
    suboptimality_bound,
)
from rewardcentroids.serialization import load_policy

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDENS = ROOT / "goldens"


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def shared_small_instance() -> TabularMdp:
    rng = np.random.Generator(np.random.Philox(key=2024))
    return random_mdp(2, 2, 0.5, rng)


OPT_PARAMS_UNIT = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())


def test_criterion_01_hypercube_bias_fraction():
    mdp = fig_two_state_chain(0.999)
    policy = PolicyTable.from_actions([0, 0], 2)
    est = mc_volume_fraction(
        mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), 2_000_000, seed=7
    )
    gap = abs(est.mean - 1.0 / 6.0)
    report(1, gap <= 0.01, f"|{est.mean:.5f} - 1/6| = {gap:.5f} <= 0.01")


def test_criterion_02_exact_segment_lengths():
    balanced = segment_volume_1d(PolicyTable([[0.5, 0.5]]), BehaviorModel.mce(1.0), 1.0)
    skewed = segment_volume_1d(PolicyTable([[1.0 / 3.0, 2.0 / 3.0]]), BehaviorModel.mce(1.0), 1.0)
    ok = abs(balanced - 2.0) <= 1e-12 and abs(skewed - (2.0 - np.log(2.0))) <= 1e-12
    report(2, ok, f"lengths ({balanced:.15f}, {skewed:.15f}) vs (2, 2-log2) at 1e-12")


def test_criterion_03_bounded_set_volumes_unbiased():
    mdp = shared_small_instance()
    lo, hi = bounding_box(OPT_PARAMS_UNIT, mdp.discount)
    box_volume = (hi - lo) ** 4
    target = 4.0  # 2^S * c1^S * c2^(S(A-1))
    estimates = []
    for idx, actions in enumerate(itertools.product(range(2), repeat=2)):
        est = mc_volume_fraction(
            mdp, PolicyTable.from_actions(list(actions), 2), BehaviorModel.opt(),
            (lo, hi), 10_000_000, seed=100 + idx, params=OPT_PARAMS_UNIT,
        )
        estimates.append((est.mean * box_volume, est.std_error * box_volume))
    within = all(abs(v - target) <= 3 * e for v, e in estimates)
    pairwise = all(
        abs(v1 - v2) <= 3 * np.hypot(e1, e2)
        for (v1, e1), (v2, e2) in itertools.combinations(estimates, 2)
    )
    detail = ", ".join(f"{v:.3f}+-{e:.3f}" for v, e in estimates)
    report(3, within and pairwise, f"volumes [{detail}] vs {target}")


def test_criterion_04_centroid_matches_closed_form():
    mdp = shared_small_instance()
    expert = PolicyTable.from_actions([0, 0], 2)
    support = frozenset({0})
    est = mc_centroid_opt(mdp, expert, support, OPT_PARAMS_UNIT, 10_000_000, seed=11)
    closed = centroid(
        CentroidRequest(expert=expert, support=support, kind=OPT)
    )
    fit = affine_fit(RewardTable(est.mean), closed)
    bound = max(0.02, 4.0 * float(np.max(est.std_error)))
    ok = fit.alpha > 0 and fit.residual_sup <= bound
    report(
        4, ok,
        f"alpha={fit.alpha:.4f}>0, residual={fit.residual_sup:.4f} <= {bound:.4f} "
        f"({est.n_accepted} accepted)",
    )


def test_criterion_05_manifold_centroids():
    rng = np.random.Generator(np.random.Philox(key=5))
    mdp = random_mdp(3, 2, 0.8, rng)
    probs = rng.dirichlet(np.ones(2), size=3) * 0.6 + 0.2
    probs /= probs.sum(axis=1, keepdims=True)
    policy = PolicyTable(probs)
    worst = 0.0
    for eta in (eta_mce(policy, 1.0), eta_birl(policy, 1.0)):
        est = mc_centroid_manifold(mdp, eta, 2.0, 100_000, seed=23)
        ratio = np.abs(est.mean - eta.values) / (4.0 * est.std_error)
        worst = max(worst, float(ratio.max()))
    report(5, worst <= 1.0, f"max per-entry gap / (4 se) = {worst:.3f} <= 1 for both etas")


def test_criterion_06_prior_centroid_is_constant():
    mdp = shared_small_instance()
    est = mc_centroid_prior(mdp, OPT_PARAMS_UNIT, 2_000_000, seed=31)
    _, residual = constant_fit(RewardTable(est.mean))
    bound = 4.0 * float(np.max(est.std_error))
    report(
        6, residual <= bound,
        f"constant-fit residual {residual:.5f} <= {bound:.5f} ({est.n_accepted} accepted)",
    )


def test_criterion_07_new_environment_bias_ratio():
    parts = []
    ok = True
    for c2 in (1.0, 3.0):
        est = new_env_bias_ratio(c2, 400_000, seed=41)
        target = new_env_bias_ratio_closed_form(c2)
        sig = abs(est.mean - target) / est.std_error
        half_sig = abs(est.mean - 0.5) / est.std_error
        ok &= sig <= 3.0 and half_sig >= 5.0
        parts.append(f"c2={c2}: {est.mean:.4f} vs {target:.4f} ({sig:.2f} sigma, {half_sig:.0f} from 1/2)")
    report(7, ok, "; ".join(parts))


def _slip_chain(num_states: int, advance: float, gamma: float = 0.8) -> TabularMdp:
    p = np.zeros((num_states, 2, num_states))
    for s in range(num_states - 1):
        p[s, :, s + 1] = advance
        p[s, :, s] = 1.0 - advance
    p[-1, :, -1] = 1.0
    return TabularMdp(num_states, 2, 0, p, gamma)


def test_criterion_08_exact_recovery_rate():
    mdp = _slip_chain(5, advance=0.8)
    expert = PolicyTable.from_actions([0] * 5, 2)
    horizon = 5
    p_min = p_min_h(mdp, expert, horizon)
    n = sample_bound(
        "opt", num_states=5, num_actions=2, support_size=5, delta=0.1,
        p_min=p_min, horizon=horizon,
    )
    reference = centroid(
        CentroidRequest(
            expert=expert, support=frozenset(range(5)),
            kind=OPT,
        )
    )
    hits = sum(
        int(np.array_equal(
            estimate_opt(simulate_expert(mdp, expert, n, horizon, seed), (5, 2)).values,
            reference.values,
        ))
        for seed in range(200)
    )
    rate = hits / 200
    report(8, rate >= 0.85, f"exact recovery {rate:.1%} >= 85% (N={n}, p_min={p_min:.4f})")


def test_criterion_09_estimator_error_rates():
    S, A = 5, 2
    p = np.zeros((S, A, S))
    for s in range(S):
        p[s, :, (s + 1) % S] = 1.0
    mdp = TabularMdp(S, A, 0, p, 0.8)
    expert = PolicyTable(np.tile([0.9, 0.1], (S, 1)))
    horizon, eps, delta, floor = 5, 0.5, 0.1, 0.05
    p_min = p_min_h(mdp, expert, horizon)
    support = frozenset(range(S))
    refs = {
        "mce": centroid(
            CentroidRequest(expert=expert, support=support, kind=MCE)
        ),
        "birl": centroid(
            CentroidRequest(expert=expert, support=support, kind=BIRL)
        ),
    }
    estimators = {"mce": estimate_mce, "birl": estimate_birl}
    rates = {}
    for kind in ("mce", "birl"):
        n = sample_bound(
            kind, num_states=S, num_actions=A, support_size=S, delta=delta,
            p_min=p_min, horizon=horizon, eps=eps, pi_min_prime=floor,
        )
        hits = 0
        for seed in range(200):
            data = simulate_expert(mdp, expert, n, horizon, seed * 7 + (kind == "birl"))
            est = estimators[kind](data, (S, A), floor)
            hits += int(np.abs(est.values - refs[kind].values).max() <= eps)
        rates[kind] = hits / 200
    ok = all(rate >= 0.85 for rate in rates.values())
    report(9, ok, f"sup-norm <= {eps} rates: mce {rates['mce']:.1%}, birl {rates['birl']:.1%}")


def test_criterion_10_imitation_consistency():
    rng = np.random.Generator(np.random.Philox(key=10))
    failures = 0
    for trial in range(200):
        gamma = float(rng.uniform(0.3, 0.9))
        mdp = random_mdp(4, 3, gamma, rng, initial_state=int(rng.integers(4)))
        model_kind = ("opt", "mce", "birl")[trial % 3]
        if model_kind == "opt":
            actions = rng.integers(3, size=4)
            expert = PolicyTable.from_actions(actions, 3)
            gaps = -rng.uniform(0.05, 1.0, size=(4, 3))
            gaps[np.arange(4), actions] = 0.0
            r_e = t_operator(mdp, expert, rng.normal(size=4), AdvantageGap(gaps))
            req = CentroidRequest(
                expert=expert, support=frozenset(range(4)),
                kind=OPT,
            )
            closed = centroid(req)
        else:
            probs = rng.dirichlet(np.ones(3), size=4) * 0.8 + 0.2 / 3
            probs /= probs.sum(axis=1, keepdims=True)
            expert = PolicyTable(probs)
            if model_kind == "mce":
                r_e = u_operator(mdp, eta_mce(expert, 0.9), rng.normal(size=4))
                req = CentroidRequest(
                    expert=expert, support=frozenset(range(4)),
                    kind=MCE,
                )
                closed = centroid(req)
            else:
                r_e = u_operator(mdp, eta_birl(expert, 1.1), rng.normal(size=4))
                req = CentroidRequest(
                    expert=expert, support=frozenset(range(4)),
                    kind=BIRL,
                )
                closed = centroid(req)
        planned = greedy_policy(value_iteration(mdp, closed))
        achieved = policy_evaluation(mdp, planned, r_e).v[mdp.initial_state]
        best = value_iteration(mdp, r_e).v[mdp.initial_state]
        failures += int(abs(achieved - best) > 1e-7)
    report(10, failures == 0, f"{200 - failures}/200 centroid plans optimal under the true reward")


def test_criterion_11_planning_error_bound():
    rng = np.random.Generator(np.random.Philox(key=11))
    violations = 0
    for _ in range(500):
        mdp = random_mdp(4, 3, float(rng.uniform(0.3, 0.8)), rng)
        r_ref = RewardTable(rng.normal(size=(4, 3)))
        r_hat = RewardTable(r_ref.values + rng.normal(scale=0.4, size=(4, 3)))
        cost = RewardTable(rng.uniform(0.0, 1.0, size=(4, 3)))
        uniform = PolicyTable(np.full((4, 3), 1.0 / 3.0))
        floor = policy_evaluation(mdp, uniform, cost).v[mdp.initial_state]
        spec = ConstraintSpec(cost=cost, budget=float(floor + rng.uniform(0.0, 1.0)))
        lhs, rhs = suboptimality_bound(mdp, r_hat, r_ref, spec)
        violations += int(lhs > rhs + 1e-7)
    report(11, violations == 0, f"lhs <= rhs on 500/500 perturbation pairs")


def _brute_force_min(c, A, b):
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


def test_criterion_12_lp_engine():
    rng = np.random.Generator(np.random.Philox(key=12))
    lp_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        c = rng.normal(size=n)
        A = np.vstack([rng.normal(size=(m, n)), np.ones(n)])
        b = np.concatenate([rng.uniform(0.2, 2.0, size=m), [rng.uniform(1.0, 5.0)]])
        sol = solve(LinearProgram(objective=c, eq_lhs=np.zeros((0, n)), eq_rhs=[], ub_lhs=A, ub_rhs=b))
        reference = _brute_force_min(c, A, b)
        lp_mismatches += int(abs(sol.objective_value - reference) > 1e-8)
    vi_mismatches = 0
    for _ in range(100):
        S, A_ = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.2, 0.9))
        mdp = random_mdp(S, A_, gamma, rng, initial_state=int(rng.integers(S)))
        r = RewardTable(rng.normal(size=(S, A_)))
        slack = ConstraintSpec(
            cost=RewardTable(np.ones((S, A_))), budget=1.0 / (1.0 - gamma) + 1.0
        )
        plan = plan_constrained(mdp, r, slack)
        best = value_iteration(mdp, r).v[mdp.initial_state]
        vi_mismatches += int(abs(plan.value - best) > 1e-6)
    ok = lp_mismatches == 0 and vi_mismatches == 0
    report(
        12, ok,
        f"brute-force agreement 200/{200 - lp_mismatches} LPs, LP-vs-VI 100/{100 - vi_mismatches} MDPs",
    )


def _first_differing_line(golden: Path, produced: Path) -> str:
    """The first line where `produced` departs from `golden`, for diagnosis."""
    want = golden.read_text().splitlines()
    got = produced.read_text().splitlines() if produced.exists() else []
    pairs = itertools.zip_longest(want, got, fillvalue="<end of file>")
    for i, (w, g) in enumerate(pairs, start=1):
        if w != g:
            return f"line {i}: golden {w.strip()!r}, produced {g.strip()!r}"
    return "no line differs"


def _scenario_environment(config_path: Path):
    config = json.loads(config_path.read_text())
    source_spec = spec_from_dict(config["gridworld"], base_dir=config_path.parent)
    target_doc = dict(config["gridworld"])
    target_doc.update(config.get("target", {}))
    target_doc["expert_policy_file"] = None
    target_spec = spec_from_dict(target_doc)
    source, _ = build_gridworld(source_spec)
    target, _ = build_gridworld(target_spec)
    expert = load_policy(source_spec.expert_policy_file)
    return config, source, target, expert


def test_criterion_13_figure_pipeline(tmp_path):
    from rewardcentroids.estimators import exact_estimate

    names = sorted(p.stem for p in CONFIGS.glob("fig*.json"))
    assert names, "scenario configs missing"
    mismatched: list[str] = []
    reports = {}
    for name in names:
        reports[name] = run_scenario(name, CONFIGS / f"{name}.json", tmp_path)
        for golden in GOLDENS.glob(f"{name}_*" ):
            produced = tmp_path / golden.name
            if not produced.exists() or produced.read_bytes() != golden.read_bytes():
                entry = golden.name
                if golden.name.endswith("_report.json"):
                    entry += f" ({_first_differing_line(golden, produced)})"
                mismatched.append(entry)
    golden_ok = not mismatched

    # support attraction for every MCE/BIRL centroid scenario
    attraction_ok = True
    for name in names:
        config, source, target, expert = _scenario_environment(CONFIGS / f"{name}.json")
        if config.get("planner") != "centroid":
            continue
        model = config.get("model")
        kind = model["kind"] if isinstance(model, dict) else model
        if kind not in ("mce", "birl"):
            continue
        support = reachable_support(source, expert)
        est = exact_estimate(expert, support, kind, 1e-6)
        rows = sorted(support)
        played = expert.probs[rows] > 0
        on_support_min = est.values[rows][played].min()
        off_rows = sorted(set(range(source.num_states)) - support)
        off_max = est.values[off_rows].max()
        attraction_ok &= off_max < on_support_min
        uniform = PolicyTable(np.full((target.num_states, target.num_actions), 0.2))
        uniform_mass = occupancy_measure(target, uniform).state_marginal()[rows].sum()
        planned_mass = reports[name].occupancy.state_marginal()[rows].sum()
        attraction_ok &= planned_mass > uniform_mass

    # OPT imitation in the unchanged environment reproduces the expert
    config, source, _, expert = _scenario_environment(CONFIGS / "fig_il_opt.json")
    support = reachable_support(source, expert)
    il_policy = reports["fig_il_opt"].policy
    il_ok = all(il_policy.actions()[s] == expert.actions()[s] for s in support)

    ok = golden_ok and attraction_ok and il_ok
    report(
        13, ok,
        f"{len(names)} scenarios; goldens byte-match: {golden_ok} "
        f"(mismatched: {mismatched if mismatched else 'none'}); "
        f"support-attraction: {attraction_ok}; OPT-IL: {il_ok}",
    )
