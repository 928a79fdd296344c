"""Command-line front end.

Subcommands: centroid, estimate, simulate, plan, mimic, geometry, gridworld,
render.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import mclab
from .centroids import CentroidRequest, affine_fit, centroid, constant_fit
from .errors import DomainError, SolverError
from .estimators import DEFAULT_PI_MIN_PRIME, check_rollout_size, estimate, simulate_expert
from .geometry import BIRL, MCE, OPT, BehaviorModel, BoundedSetParams, bounding_box, eta_birl, eta_mce
from .gridworld import GridworldSpec, build_gridworld, run_scenario, spec_from_dict
from .mdp import PolicyTable, RewardTable, TabularMdp, philox, random_mdp
from .planning import mimic_policy, plan
from .render import render_grid_svg
from . import serialization as ser


@contextmanager
def _about(*paths):
    """A DomainError raised inside, other than a SolverError, prefixed with
    the input files it is about; the error keeps its type."""
    try:
        yield
    except SolverError:
        raise
    except DomainError as exc:
        files = ", ".join(str(p) for p in paths if p)
        raise type(exc)(f"{files}: {exc}") from exc


def _emit(doc: dict, out: str | None) -> None:
    if out:
        ser._dump_json(doc, out)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_centroid(args) -> int:
    policy = ser.load_policy(args.policy)
    if args.model == OPT:
        if args.support is None:
            raise DomainError("the OPT centroid needs --support")
        support = ser.load_support(args.support)
    else:
        support = frozenset(range(policy.probs.shape[0]))
    with _about(args.policy, args.support):
        reward = centroid(CentroidRequest(expert=policy, support=support, kind=args.model))
    _emit(ser.reward_to_dict(reward), args.out)
    return 0


def _cmd_estimate(args) -> int:
    if args.num_states < 1 or args.num_actions < 1:
        raise DomainError("--num-states and --num-actions must be >= 1")
    if args.model != OPT and not 0.0 < args.pi_min_prime < 1.0:
        raise DomainError("--pi-min-prime must lie in (0, 1)")
    data = ser.load_trajectories(args.data)
    with _about(args.data):
        table = estimate(data, (args.num_states, args.num_actions), args.model, args.pi_min_prime)
    _emit(ser.reward_to_dict(table), args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.n < 1 or args.h < 1:
        raise DomainError("--n and --h must be >= 1")
    mdp = ser.load_mdp(args.mdp)
    check_rollout_size(mdp, args.n, args.h, "--n, --h")
    policy = ser.load_policy(args.policy)
    with _about(args.mdp, args.policy):
        data = simulate_expert(mdp, policy, args.n, args.h, args.seed)
    ser.save_trajectories(data, args.out)
    return 0


def _cmd_plan(args) -> int:
    mdp = ser.load_mdp(args.mdp)
    reward = ser.load_reward(args.reward)
    constraint = ser.load_constraint(args.constraint) if args.constraint else None
    with _about(args.mdp, args.reward, args.constraint):
        result = plan(mdp, reward, constraint)
    _emit(
        {
            "policy": ser.policy_to_dict(result.policy),
            "occupancy": ser.occupancy_to_dict(result.occupancy),
            "value": result.value,
        },
        args.out,
    )
    return 0


def _cmd_mimic(args) -> int:
    source = ser.load_mdp(args.source_mdp)
    target = ser.load_mdp(args.target_mdp)
    policy = ser.load_policy(args.policy)
    constraint = ser.load_constraint(args.constraint) if args.constraint else None
    with _about(args.source_mdp, args.policy, args.target_mdp, args.constraint):
        result = mimic_policy(source, policy, target, constraint)
    _emit(
        {
            "policy": ser.policy_to_dict(result.policy),
            "occupancy": ser.occupancy_to_dict(result.occupancy),
            "l1_distance": result.l1_distance,
        },
        args.out,
    )
    return 0


def _sigmas(estimate: float, target: float, std_error: float) -> float:
    if std_error == 0:
        return 0.0 if estimate == target else float("inf")
    return abs(estimate - target) / std_error


def _report(check: str, estimate, std_error, target, sigmas_off, passed) -> dict:
    """The geometry report.  An infinite number, such as an estimate off target
    with a zero standard error, is JSON null, not Infinity."""
    report = {"check": check, "estimate": estimate, "std_error": std_error,
              "target": target, "sigmas_off": sigmas_off, "pass": passed}
    return {k: None if isinstance(v, float) and np.isinf(v) else v for k, v in report.items()}


_UNIT_OPT_PARAMS = BoundedSetParams(c1=1.0, c2=1.0, model=BehaviorModel.opt())


def _check_prop1(n: int, seed: int) -> dict:
    mdp = mclab.fig_two_state_chain(0.999)
    policy = PolicyTable.from_actions([0, 0], 2)
    est = mclab.mc_volume_fraction(mdp, policy, BehaviorModel.opt(), (-1.0, 1.0), n, seed)
    target = 1.0 / 6.0
    return _report("prop1", est.mean, est.std_error, target,
                   _sigmas(est.mean, target, est.std_error), abs(est.mean - target) <= 0.01)


def _check_prop2(n: int, seed: int) -> dict:
    lengths = [
        mclab.segment_volume_1d(PolicyTable([[0.5, 0.5]]), BehaviorModel.mce(1.0), 1.0),
        mclab.segment_volume_1d(PolicyTable([[1.0 / 3.0, 2.0 / 3.0]]), BehaviorModel.mce(1.0), 1.0),
    ]
    targets = [2.0, 2.0 - float(np.log(2.0))]
    ok = all(abs(l - t) <= 1e-12 for l, t in zip(lengths, targets))
    return _report("prop2", lengths, [0.0, 0.0], targets, 0.0 if ok else float("inf"), ok)


def _prop4_instance(seed: int) -> TabularMdp:
    rng = np.random.Generator(philox(seed ^ 0x9E3779B9))
    return random_mdp(2, 2, 0.5, rng)


def _check_prop4(n: int, seed: int) -> dict:
    mdp = _prop4_instance(seed)
    lo, hi = bounding_box(_UNIT_OPT_PARAMS, mdp.discount)
    box_volume = (hi - lo) ** (mdp.num_states * mdp.num_actions)
    target = 2.0**mdp.num_states  # c1 = c2 = 1
    estimates, errors, sigmas = [], [], []
    for idx, actions in enumerate([[0, 0], [0, 1], [1, 0], [1, 1]]):
        policy = PolicyTable.from_actions(actions, 2)
        est = mclab.mc_volume_fraction(
            mdp, policy, BehaviorModel.opt(), (lo, hi), n, seed + idx, params=_UNIT_OPT_PARAMS
        )
        estimates.append(est.mean * box_volume)
        errors.append(est.std_error * box_volume)
        sigmas.append(_sigmas(est.mean * box_volume, target, est.std_error * box_volume))
    return _report("prop4", estimates, errors, target, max(sigmas), max(sigmas) <= 3.0)


def _check_centroid_opt(n: int, seed: int) -> dict:
    mdp = _prop4_instance(seed)
    expert = PolicyTable.from_actions([0, 0], 2)
    support = frozenset({0})
    est = mclab.mc_centroid_opt(mdp, expert, support, _UNIT_OPT_PARAMS, n, seed)
    if est.n_accepted == 0:
        raise DomainError(f"centroid-opt accepted none of {n} samples; use a larger --n")
    closed = centroid(CentroidRequest(expert=expert, support=support, kind=OPT))
    fit = affine_fit(RewardTable(est.mean), closed)
    bound = max(0.02, 4.0 * float(np.max(est.std_error)))
    ok = fit.alpha > 0 and fit.residual_sup <= bound
    return _report("centroid-opt", fit.residual_sup, float(np.max(est.std_error)), 0.0,
                   fit.residual_sup / max(bound, 1e-300) * 3.0, bool(ok))


def _check_centroid_manifold(n: int, seed: int) -> dict:
    rng = np.random.Generator(philox(seed ^ 0xA5A5A5))
    mdp = random_mdp(3, 2, 0.8, rng)
    probs = rng.dirichlet(np.ones(2), size=3) * 0.8 + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    policy = PolicyTable(probs)
    entries = []  # (sigmas off, |mean - eta|, standard error) of every entry of both tables
    for eta in (eta_mce(policy, 1.0), eta_birl(policy, 1.0)):
        est = mclab.mc_centroid_manifold(mdp, eta, 2.0, n, seed)
        off, err = np.abs(est.mean - eta.values).ravel(), est.std_error.ravel()
        entries += zip(map(_sigmas, est.mean.ravel(), eta.values.ravel(), err), off, err)
    worst, off, err = max(entries)  # on a tie in sigmas, the larger deviation
    return _report("centroid-manifold", float(off), float(err), 0.0, float(worst), bool(worst <= 4.0))


def _check_centroid_prior(n: int, seed: int) -> dict:
    mdp = _prop4_instance(seed)
    est = mclab.mc_centroid_prior(mdp, _UNIT_OPT_PARAMS, n, seed)
    if est.n_accepted == 0:
        raise DomainError(f"centroid-prior accepted none of {n} samples; use a larger --n")
    _, residual = constant_fit(RewardTable(est.mean))
    bound = 4.0 * float(np.max(est.std_error))
    return _report("centroid-prior", residual, float(np.max(est.std_error)), 0.0,
                   _sigmas(residual, 0.0, float(np.max(est.std_error))), residual <= bound)


def _check_transfer_ratio(n: int, seed: int) -> dict:
    estimates, errors, sigmas, targets = [], [], [], []
    for c2 in (1.0, 3.0):
        est = mclab.new_env_bias_ratio(c2, n, seed)
        target = mclab.new_env_bias_ratio_closed_form(c2)
        estimates.append(est.mean)
        errors.append(est.std_error)
        targets.append(target)
        sigmas.append(_sigmas(est.mean, target, est.std_error))
    half_gap_ok = all(
        abs(e - 0.5) >= 5.0 * s for e, s in zip(estimates, errors)
    )
    return _report("transfer-ratio", estimates, errors, targets, max(sigmas),
                   max(sigmas) <= 3.0 and half_gap_ok)


GEOMETRY_CHECKS = {
    "prop1": _check_prop1,
    "prop2": _check_prop2,
    "prop4": _check_prop4,
    "centroid-opt": _check_centroid_opt,
    "centroid-manifold": _check_centroid_manifold,
    "centroid-prior": _check_centroid_prior,
    "transfer-ratio": _check_transfer_ratio,
}


def _cmd_geometry(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be >= 1")
    report = GEOMETRY_CHECKS[args.check](args.n, args.seed)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _load_spec(path) -> GridworldSpec:
    return ser._load_json(path, lambda doc: spec_from_dict(doc, base_dir=Path(path).parent))


def _cmd_gridworld(args) -> int:
    if args.mode == "build":
        mdp, constraint = build_gridworld(_load_spec(args.spec))
        out_dir = Path(args.out_dir)
        ser.save_mdp(mdp, out_dir / "mdp.json")
        if constraint is not None:
            ser.save_constraint(constraint, out_dir / "constraint.json")
        return 0
    run_scenario(Path(args.config).stem, args.config, args.out_dir)
    return 0


def _cmd_render(args) -> int:
    spec = _load_spec(args.spec)
    occupancy = ser.load_occupancy(args.occupancy) if args.occupancy else None
    policy = ser.load_policy(args.policy) if args.policy else None
    support = ser.load_support(args.support) if args.support else None
    with _about(args.spec, args.occupancy, args.policy, args.support):
        render_grid_svg(occupancy, policy, spec, args.out, support=support)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rewardcentroids",
        description="Reward centroids for generalizing expert behavior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centroid", help="closed-form centroid of an expert policy")
    p.add_argument("--model", choices=[OPT, MCE, BIRL], required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--support")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_centroid)

    p = sub.add_parser("estimate", help="estimate a centroid from trajectories")
    p.add_argument("--model", choices=[OPT, MCE, BIRL], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--num-states", type=int, required=True)
    p.add_argument("--num-actions", type=int, required=True)
    p.add_argument("--pi-min-prime", type=float, default=DEFAULT_PI_MIN_PRIME)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="roll out expert trajectories")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plan", help="plan with a reward, optionally constrained")
    p.add_argument("--mdp", required=True)
    p.add_argument("--reward", required=True)
    p.add_argument("--constraint")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("mimic", help="occupancy-matching baseline")
    p.add_argument("--source-mdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--target-mdp", required=True)
    p.add_argument("--constraint")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mimic)

    p = sub.add_parser("geometry", help="Monte-Carlo geometry checks")
    p.add_argument("--check", choices=sorted(GEOMETRY_CHECKS), required=True)
    p.add_argument("--n", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("gridworld", help="build a grid MDP or run a scenario")
    mode = p.add_subparsers(dest="mode", required=True)
    b = mode.add_parser("build")
    b.add_argument("--spec", required=True)
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=_cmd_gridworld, mode="build")
    r = mode.add_parser("run")
    r.add_argument("--config", required=True)
    r.add_argument("--out-dir", required=True)
    r.set_defaults(func=_cmd_gridworld, mode="run")

    p = sub.add_parser("render", help="render a policy/occupancy SVG")
    p.add_argument("--spec", required=True)
    p.add_argument("--occupancy")
    p.add_argument("--policy")
    p.add_argument("--support")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if not 0 <= getattr(args, "seed", 0) < 2**128:  # the --seed of simulate and geometry
            raise DomainError("--seed must lie in [0, 2**128)")
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
