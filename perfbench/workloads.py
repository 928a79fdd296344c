"""The benchmark's three workloads: inputs made from the seed, timed ops, checks.

An op is one timed call into the package.  Right after it, untimed, the
op's `digest` reduces the output to what its check needs (so large outputs
such as trajectory datasets are not kept).  The checks run after the timed
phase, against `reference`, which never calls the package.

Each workload runs whole rounds of the same ops.  The number of rounds is
fixed by `--seconds` and a per-round cost measured on the reference machine
(see README.md), never by how fast this run goes, so every run of a
workload does the same work.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from rewardcentroids import estimators, geometry, gridworld, mclab, mdp, planning, serialization

MIMIC_SCENARIOS = ("fig2b", "fig2d", "fig3b", "fig3d", "fig4a", "fig4d")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    work: float  # units of `unit` done by this op
    unit: str
    round: int  # the round (pass) of the workload this op belongs to
    meta: dict = field(default_factory=dict)


def rounds_for(seconds: int, round_s: float) -> int:
    return max(1, int(round(seconds / round_s)))


def sub_seed(seed: int, *path: int) -> int:
    """A stream id derived from the workload seed; distinct paths never collide."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# --------------------------------------------------------------------------
# The scenario suites


class ScenarioSuite:
    """Committed scenario configs run through `gridworld.run_scenario`.

    The configs are the paper's figures and their inputs are fixed.  The
    seed orders the scenarios within each pass of the other 17; the MIMIC
    scenarios run in config order whatever the seed, because the peak
    memory of one MIMIC pass depends on its order (fig3d then fig4d peaks
    4 MiB higher than fig4d then fig3d, or fig3d twice), and a single pass
    cannot average that out.  Before the timed phase
    only the config paths are kept; the benchmark's own copies of the
    scenarios are built in the check phase, so they add nothing to the
    set-up time or to the peak memory read after the timed phase.
    """

    def __init__(self, root: Path, seed: int, seconds: int, out_dir: Path, mimic: bool):
        configs = sorted((root / "configs").glob("fig*.json"))
        self.paths = {p.stem: p for p in configs if (p.stem in MIMIC_SCENARIOS) == mimic}
        self.out_dir = out_dir
        # one MIMIC pass takes about 55 s and one pass of the rest about 1.25 s
        passes = rounds_for(seconds, 55.0 if mimic else 1.25)
        rng = np.random.default_rng(seed)
        names = sorted(self.paths)
        self.ops = [
            self._op(str(name), r)
            for r in range(passes)
            for name in (names if mimic else rng.permutation(names))
        ]
        self._first: dict[str, tuple] = {}
        self._scenarios: dict[str, ref.Scenario] = {}
        self._refs: dict[str, dict] = {}

    def _op(self, name: str, round_: int) -> Op:
        path = self.paths[name]
        return Op(
            name=name,
            call=lambda: gridworld.run_scenario(name, path, self.out_dir),
            digest=lambda out: self._digest(name, out),
            check=lambda digest: self._check(self._scenario(name), *digest),
            work=1.0,
            unit="scenarios",
            round=round_,
        )

    def _digest(self, name: str, out) -> tuple:
        """The plan's policy and occupancy and its report.

        A later pass that reproduces the first pass's output bit for bit
        shares its digest, so the kept digests do not grow with the passes.
        """
        report = json.loads((self.out_dir / f"{name}_report.json").read_text())
        digest = (np.array(out.policy.probs), np.array(out.occupancy.d), report)
        first = self._first.setdefault(name, digest)
        if first[2] == report and np.array_equal(first[0], digest[0]) and np.array_equal(first[1], digest[1]):
            return first
        return digest

    def _scenario(self, name: str) -> ref.Scenario:
        if name not in self._scenarios:
            self._scenarios[name] = ref.load_scenario(self.paths[name])
        return self._scenarios[name]

    def finish(self, digests) -> list[str]:
        return []

    def _reference(self, sc: ref.Scenario) -> dict:
        if sc.name in self._refs:
            return self._refs[sc.name]
        src, tgt = sc.source, sc.target
        support = ref.reachable(src.p, sc.expert, src.s0)
        S, A = sc.expert.shape
        r = {"support": support, "d_expert": ref.occupancy(src.p, src.gamma, src.s0, sc.expert)}
        reward = None
        if sc.planner == "mimic":
            r["best"] = ref.highs_l1_distance(tgt, r["d_expert"])
        elif sc.planner == "centroid" and sc.model == "opt":
            reward = ref.opt_centroid(sc.expert, support)
        elif sc.planner == "centroid":
            reward = ref.clipped_log_policy(sc.expert, support, ref.CLIP_FLOOR, birl=sc.model == "birl")
        elif sc.planner == "best_case":
            # The reward is the program's own random draw: it is this check's input.
            config = json.loads(sc.path.read_text())
            doc = config["gridworld"]
            source_mdp, _ = gridworld.build_gridworld(gridworld.spec_from_dict(doc))
            expert = serialization.load_policy(sc.path.parent / doc["expert_policy_file"])
            seed = int(config.get("seeds", {}).get("best_case", 0))
            reward = planning.best_case_reward(source_mdp, expert, support, seed).values
        if reward is not None:
            r["reward"] = reward
            if sc.constrained:
                r["best"] = ref.highs_best_value(tgt, reward)
            else:
                r["best"] = float(ref.optimal_values(tgt.p, tgt.gamma, reward)[tgt.s0])
        uniform_occ = ref.occupancy(tgt.p, tgt.gamma, tgt.s0, ref.uniform_policy(S, A))
        r["uniform_support_mass"] = float(uniform_occ.sum(axis=1)[sorted(support)].sum())
        self._refs[sc.name] = r
        return r

    def _check(self, sc: ref.Scenario, pi: np.ndarray, d: np.ndarray, report: dict) -> list[str]:
        r = self._reference(sc)
        problems = []

        def need(ok: bool, what: str) -> None:
            if not ok:
                problems.append(f"{sc.name}: {what}")

        env = sc.source if sc.planner == "expert" else sc.target
        need(ref.flow_residual(env.p, env.gamma, env.s0, d) <= 1e-9, "occupancy violates the flow equations")
        need(np.abs(d - d.sum(axis=1, keepdims=True) * pi).max() <= 1e-12, "occupancy does not factor through the policy")
        need(np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-12, "policy rows do not sum to 1")
        support = sorted(r["support"])
        need(report["support_size"] == len(support), "report support_size differs from the fixture's support")
        need(abs(report["support_mass"] - d.sum(axis=1)[support].sum()) <= 1e-9, "report support_mass is not the occupancy's")
        if env.blocked:
            need(d[list(env.blocked)].sum() <= 1e-12, "mass on blocked cells")

        if sc.planner == "expert":
            need(np.array_equal(pi, sc.expert), "expert planner did not return the fixture")
        elif sc.planner == "bc":
            uniform = ref.uniform_policy(*pi.shape)
            off = sorted(set(range(pi.shape[0])) - r["support"])
            need(np.array_equal(pi[support], sc.expert[support]), "bc differs from the expert on the support")
            need(np.allclose(pi[off], uniform[off], rtol=0.0, atol=1e-15), "bc is not uniform off the support")
        elif sc.planner == "mimic":
            need(abs(report["value"] - r["best"]) <= 1e-8, f"L1 {report['value']!r} != HiGHS optimum {r['best']!r}")
            l1 = np.abs(d - r["d_expert"]).sum()
            need(abs(l1 - report["value"]) <= 1e-9, "report value is not the L1 distance of the occupancy")
        else:
            achieved = ref.policy_values(env.p, env.gamma, r["reward"], pi)[env.s0]
            need(abs(report["value"] - achieved) <= 1e-8, "report value is not the plan's value")
            need(abs(achieved - r["best"]) <= 1e-6, f"plan value {achieved!r} != optimum {r['best']!r}")
        if sc.name == "fig_il_opt":
            expert_actions = sc.expert[support].argmax(axis=1)
            need(np.array_equal(pi[support].argmax(axis=1), expert_actions), "plan departs from the expert on its support")
            need(np.all(pi[support].max(axis=1) == 1.0), "plan is not deterministic on the support")
        if sc.planner == "centroid" and sc.model in ("mce", "birl"):
            mass = d.sum(axis=1)[support].sum()
            need(mass > r["uniform_support_mass"], "plan puts no more mass on the support than the uniform policy")
        return problems


# --------------------------------------------------------------------------
# Monte-Carlo oracles


HYPERCUBE_TARGET = 1.0 / 6.0  # the gamma -> 1 limit; at gamma = 0.999 it is ~1e-4 higher
BOUNDED_VOLUME = 4.0  # 2^S c1^S c2^(S(A-1)) with S = A = 2, c1 = c2 = 1
OPT_CENTROID = np.array([[1.0, 0.0], [0.5, 0.5]])  # expert plays 0 in state 0, support {0}
BIAS_TARGETS = {1.0: 7.0 / 24.0, 3.0: 1.0 / 9.0}  # c2^2/24 - c2/4 + 1/2 below 2, 1/(3 c2) above
SIGMAS = 5.0  # per entry; at 4.0 one op in 1100 (seeds 0-99) failed by chance


class McOracles:
    """The mclab instruments on the paper's small instances.

    Each round calls every oracle once with the same sample counts and a
    fresh seed per round.  After the timed phase, each call of the first
    round is made again and must reproduce its estimate bit for bit.
    """

    def __init__(self, seed: int, rounds: int):
        opt = geometry.BehaviorModel.opt()
        params = geometry.BoundedSetParams(c1=1.0, c2=1.0, model=opt)
        chain = mclab.fig_two_state_chain(0.999)
        small = mdp.random_mdp(2, 2, 0.5, np.random.Generator(np.random.Philox(key=2024)))
        box = geometry.bounding_box(params, small.discount)
        box_volume = (box[1] - box[0]) ** 4
        rng = np.random.Generator(np.random.Philox(key=5))
        three = mdp.random_mdp(3, 2, 0.8, rng)
        probs = rng.dirichlet(np.ones(2), size=3) * 0.6 + 0.2
        probs /= probs.sum(axis=1, keepdims=True)
        logs = np.log(probs)
        etas = {
            "mce": (geometry.eta_mce(mdp.PolicyTable(probs), 1.0), logs),
            "birl": (geometry.eta_birl(mdp.PolicyTable(probs), 1.0), logs - logs.max(axis=1, keepdims=True)),
        }

        def policy(actions):
            return mdp.PolicyTable.from_actions(actions, 2)

        specs = [
            ("hypercube", 400_000, lambda n, s: mclab.mc_volume_fraction(chain, policy([0, 0]), opt, (-1.0, 1.0), n, s),
             lambda e: _scalar_within(e.mean, e.std_error, HYPERCUBE_TARGET)),
        ]
        for actions in itertools.product(range(2), repeat=2):
            specs.append((
                f"bounded_volume_{actions[0]}{actions[1]}", 200_000,
                lambda n, s, a=actions: mclab.mc_volume_fraction(small, policy(list(a)), opt, box, n, s, params),
                lambda e: _scalar_within(e.mean * box_volume, e.std_error * box_volume, BOUNDED_VOLUME),
            ))
        specs += [
            ("centroid_opt", 400_000,
             lambda n, s: mclab.mc_centroid_opt(small, policy([0, 0]), frozenset({0}), params, n, s),
             _affine_within),
            ("centroid_prior", 200_000, lambda n, s: mclab.mc_centroid_prior(small, params, n, s), _constant_within),
        ]
        for c2, target in BIAS_TARGETS.items():
            specs.append((
                f"bias_ratio_c2_{c2:g}", 200_000, lambda n, s, c2=c2: mclab.new_env_bias_ratio(c2, n, s),
                lambda e, t=target: _scalar_within(e.mean, e.std_error, t),
            ))
        for kind, (eta, target) in etas.items():
            specs.append((
                f"manifold_{kind}", 200_000, lambda n, s, eta=eta: mclab.mc_centroid_manifold(three, eta, 2.0, n, s),
                lambda e, t=target: _array_within(e.mean, e.std_error, t),
            ))

        self.ops = []
        for r in range(rounds):
            for k, (name, n, call, check) in enumerate(specs):
                s = sub_seed(seed, 0, r, k)
                self.ops.append(Op(
                    name=name,
                    call=lambda call=call, n=n, s=s: call(n, s),
                    digest=lambda e: e,
                    check=lambda e, name=name, check=check: [f"{name}: {p}" for p in check(e)],
                    work=float(n),
                    unit="samples",
                    round=r,
                ))

    def finish(self, digests) -> list[str]:
        """Same (instance, n, seed), same estimate: repeat the first round's calls, untimed."""
        problems = []
        for op, e in digests:
            if op.round != 0:
                continue
            again = op.call()
            if again.n_accepted != e.n_accepted or not np.array_equal(again.mean, e.mean):
                problems.append(f"{op.name}: a repeated call with the same seed gave another estimate")
        return problems


def _scalar_within(mean: float, se: float, target: float) -> list[str]:
    if abs(mean - target) <= SIGMAS * se:
        return []
    return [f"estimate {mean!r} is {abs(mean - target) / se:.2f} standard errors from {target!r}"]


def _array_within(mean: np.ndarray, se: np.ndarray, target: np.ndarray) -> list[str]:
    if np.all(np.abs(mean - target) <= SIGMAS * se):
        return []
    return [f"estimate {mean.tolist()} is not within {SIGMAS} standard errors of {target.tolist()}"]


def _affine_within(e) -> list[str]:
    design = np.stack([OPT_CENTROID.ravel(), np.ones(OPT_CENTROID.size)], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, e.mean.ravel(), rcond=None)
    if alpha <= 0:
        return [f"affine fit to the OPT centroid has alpha {alpha!r} <= 0"]
    return _array_within(e.mean, e.std_error, alpha * OPT_CENTROID + beta)


def _constant_within(e) -> list[str]:
    return _array_within(e.mean, e.std_error, np.full_like(e.mean, e.mean.mean()))


# --------------------------------------------------------------------------
# Offline estimation


GRID_N, GRID_H = 10_000, 100
CHAIN_H, CHAIN_DELTA, CHAIN_EPS, CHAIN_FLOOR = 5, 0.1, 0.5, 0.05
CHAIN_TRIALS = {"opt": 8, "mce": 4, "birl": 4}  # per round
BINOMIAL_SIGMAS = 5.0


class OfflineEstimation:
    """`simulate_expert` followed by an estimator, on the grid and on chains.

    Grid: the 10x10 experts of the scenario suite (band-drift for MCE/BIRL,
    right-stop for OPT) with n = 10k trajectories of h = 100 steps.  Chains:
    the 5-state chains of acceptance criteria 08 and 09 at the trajectory
    count `sample_bound` asks for, one fresh seed per trial.
    """

    def __init__(self, root: Path, seed: int, rounds: int):
        configs = root / "configs"
        self.grids = {}
        for kind, config in (("mce", "fig3a"), ("birl", "fig3a"), ("opt", "fig2a")):
            path = configs / f"{config}.json"
            doc = json.loads(path.read_text())["gridworld"]
            source, _ = gridworld.build_gridworld(gridworld.spec_from_dict(doc, base_dir=configs))
            expert = serialization.load_policy(configs / doc["expert_policy_file"])
            self.grids[kind] = (path, source, expert)
        # the benchmark's own copies of the scenarios, built in the check phase
        self._scenarios: dict[Path, ref.Scenario] = {}

        self.chains = {}
        slip = mdp.TabularMdp(5, 2, 0, ref.slip_chain(5, 0.8), 0.8)
        slip_expert = mdp.PolicyTable.from_actions([0] * 5, 2)
        ring = mdp.TabularMdp(5, 2, 0, ref.ring_chain(5), 0.8)
        ring_probs = np.tile([0.9, 0.1], (5, 1))
        ring_expert = mdp.PolicyTable(ring_probs)
        for kind, (chain, expert, target) in {
            "opt": (slip, slip_expert, ref.opt_centroid(np.eye(2)[[0] * 5], range(5))),
            "mce": (ring, ring_expert, np.log(ring_probs)),
            "birl": (ring, ring_expert, np.log(ring_probs) - np.log(ring_probs.max(axis=1, keepdims=True))),
        }.items():
            p_min = estimators.p_min_h(chain, expert, CHAIN_H)
            extra = {} if kind == "opt" else {"eps": CHAIN_EPS, "pi_min_prime": CHAIN_FLOOR}
            n = estimators.sample_bound(
                kind, num_states=5, num_actions=2, support_size=5, delta=CHAIN_DELTA,
                p_min=p_min, horizon=CHAIN_H, **extra,
            )
            self.chains[kind] = (chain, expert, target, n)

        self.ops = []
        for r in range(rounds):
            for k, kind in enumerate(("mce", "birl", "opt")):
                self.ops.append(self._grid_op(kind, sub_seed(seed, 1, r, k), r))
            for k, (kind, trials) in enumerate(CHAIN_TRIALS.items()):
                for t in range(trials):
                    self.ops.append(self._chain_op(kind, sub_seed(seed, 1, r, 3 + k, t), r))

    @staticmethod
    def _estimate(kind: str, data, dims, floor):
        if kind == "opt":
            return estimators.estimate_opt(data, dims)
        if kind == "mce":
            return estimators.estimate_mce(data, dims, floor)
        return estimators.estimate_birl(data, dims, floor)

    def _grid_op(self, kind: str, seed: int, round_: int) -> Op:
        path, source, expert = self.grids[kind]
        dims = (source.num_states, source.num_actions)

        def call():
            data = estimators.simulate_expert(source, expert, GRID_N, GRID_H, seed)
            return data, self._estimate(kind, data, dims, estimators.DEFAULT_PI_MIN_PRIME)

        return Op(
            name=f"grid_{kind}",
            call=call,
            digest=lambda out: _digest_estimate(out, dims),
            check=lambda dg: [f"grid_{kind}: {p}" for p in self._check_grid(kind, path, *dg)],
            work=float(GRID_N * GRID_H),
            unit="steps",
            round=round_,
        )

    def _check_grid(self, kind, path: Path, counts, visited_pairs, values) -> list[str]:
        if path not in self._scenarios:
            self._scenarios[path] = ref.load_scenario(path)
        sc = self._scenarios[path]
        src = sc.source
        support = sorted(ref.reachable(src.p, sc.expert, src.s0))
        floor = estimators.DEFAULT_PI_MIN_PRIME
        if kind == "opt":
            if np.array_equal(values, ref.opt_centroid(sc.expert, support)):
                return []
            return ["OPT estimate differs from the closed-form centroid"]
        problems = _count_consistency(kind, counts, values, floor)
        ns = counts.sum(axis=1)
        for s in support:
            if ns[s] == 0:
                problems.append(f"support state {s} never visited")
                continue
            pi = sc.expert[s]
            se = np.sqrt(pi * (1.0 - pi) / ns[s])
            freq = counts[s] / ns[s]
            if np.any(np.abs(freq - pi) > BINOMIAL_SIGMAS * se + 1e-12):
                problems.append(f"first-visit frequencies at state {s} are not within {BINOMIAL_SIGMAS} s.e. of the expert")
            if kind == "mce" and np.any(np.abs(np.exp(values[s]) - np.maximum(floor, pi)) > BINOMIAL_SIGMAS * se + 1e-12):
                problems.append(f"exp(MCE estimate) at state {s} is not within {BINOMIAL_SIGMAS} s.e. of the expert")
        return problems

    def _chain_op(self, kind: str, seed: int, round_: int) -> Op:
        chain, expert, target, n = self.chains[kind]
        dims = (5, 2)

        def call():
            data = estimators.simulate_expert(chain, expert, n, CHAIN_H, seed)
            return data, self._estimate(kind, data, dims, CHAIN_FLOOR)

        def check(dg):
            counts, visited_pairs, values = dg
            if kind == "opt":
                expected = np.where(visited_pairs, 1.0, 0.0)
                expected[~visited_pairs.any(axis=1)] = 0.5
                ok = np.array_equal(values, expected)
                return [] if ok else ["chain_opt: estimate is not the indicator of the visited pairs"]
            return [f"chain_{kind}: {p}" for p in _count_consistency(kind, counts, values, CHAIN_FLOOR)]

        return Op(
            name=f"chain_{kind}",
            call=call,
            digest=lambda out: _digest_estimate(out, dims),
            check=check,
            work=float(n * CHAIN_H),
            unit="steps",
            round=round_,
            meta={"kind": kind, "target": target},
        )

    def finish(self, digests) -> list[str]:
        """The guarantee `sample_bound` makes: each trial succeeds with probability >= 1 - delta."""
        hits: dict[str, list[bool]] = {}
        for op, (_, _, values) in digests:
            kind = op.meta.get("kind")
            if kind is None:
                continue
            target = op.meta["target"]
            ok = np.array_equal(values, target) if kind == "opt" else np.abs(values - target).max() <= CHAIN_EPS
            hits.setdefault(kind, []).append(bool(ok))
        problems = []
        for kind, trials in CHAIN_TRIALS.items():
            got = hits.get(kind, [])
            share = sum(got) / len(got) if got else 0.0
            if share < 1.0 - CHAIN_DELTA:
                problems.append(f"chain_{kind}: only {share:.1%} of {len(got)} seeds meet the sample_bound guarantee")
        return problems


DIGEST_ROWS = 256


def _digest_estimate(out, dims):
    """Own first-visit counts and visited pairs, taken from the trajectories.

    Works through the trajectories in small blocks, so that the checker's
    temporaries stay far below the program's own arrays and do not move the
    run's peak memory.
    """
    data, estimate = out
    S, A = dims
    visited = np.zeros(S * A, dtype=bool)
    counts = np.zeros((S, A), dtype=np.int64)
    for lo in range(0, data.num_trajectories, DIGEST_ROWS):
        states, actions = data.states[lo : lo + DIGEST_ROWS], data.actions[lo : lo + DIGEST_ROWS]
        visited[np.unique(states * A + actions)] = True
        counts += ref.first_visit_counts(states, actions, S, A)
    return counts, visited.reshape(S, A), np.array(estimate.values)


def _count_consistency(kind: str, counts: np.ndarray, values: np.ndarray, floor: float) -> list[str]:
    """The MCE/BIRL estimate recomputed from the benchmark's own first-visit counts."""
    ns = counts.sum(axis=1)
    logs = np.log(np.maximum(floor, counts / np.maximum(1, ns)[:, None]))
    if kind == "birl":
        logs -= logs.max(axis=1, keepdims=True)
        logs[ns == 0] = np.log(floor)
    if np.allclose(values, logs, rtol=0.0, atol=1e-12):
        return []
    return [f"{kind.upper()} estimate disagrees with the first-visit counts of its own trajectories"]


# --------------------------------------------------------------------------
# Sampling: both of the above, one round of each in turn


class Sampling:
    """The Monte-Carlo oracles and offline estimation in one workload.

    They share a run so that each gets a run long enough to average over the
    shared machine's slow and fast spells (see README.md); each round is one
    round of the oracles followed by one round of estimation.
    """

    def __init__(self, root: Path, seed: int, seconds: int, out_dir: Path):
        # one round of each takes about 2.1 s and 1.9 s
        rounds = rounds_for(seconds, 4.0)
        self.parts = [McOracles(seed, rounds), OfflineEstimation(root, seed, rounds)]
        self.ops = [op for r in range(rounds) for part in self.parts for op in part.ops if op.round == r]

    def finish(self, digests) -> list[str]:
        problems = []
        for part in self.parts:
            mine = {id(op) for op in part.ops}
            problems += part.finish([(op, dg) for op, dg in digests if id(op) in mine])
        return problems


WORKLOADS = {
    "suite-mimic": lambda root, seed, seconds, out: ScenarioSuite(root, seed, seconds, out, mimic=True),
    "suite-centroid": lambda root, seed, seconds, out: ScenarioSuite(root, seed, seconds, out, mimic=False),
    "sampling": Sampling,
}
