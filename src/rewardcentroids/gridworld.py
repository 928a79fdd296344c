"""Gridworld construction and the end-to-end scenario pipeline.

The grid has five actions (left, right, up, down, stay), moving by
`render.MOVES`; directional moves are deterministic, moves off the grid keep
the agent in place, and a "reversed" environment moves by the negated table,
which swaps left/right and up/down while stay is unchanged.
Blocked cells become unit-cost states under a zero budget.

A scenario config wires one experiment: an expert fixture observed in a
source grid, an optional target grid (new dynamics, discount, start, or
constraints), a behavior model, an estimator (or the exact infinite-data
limit), and a planner.  Running a scenario produces a policy, its occupancy
in the environment it runs in, SVG renderings, and a JSON report; outputs
are byte-deterministic given the config and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .estimators import DEFAULT_PI_MIN_PRIME, estimate, exact_estimate, simulate_expert
from .geometry import check_kind
from .mdp import (
    OccupancyMeasure,
    PolicyTable,
    RewardTable,
    TabularMdp,
    check_table,
    occupancy_measure,
    reachable_support,
)
from .planning import ConstraintSpec, bc_policy, best_case_reward, mimic_policy, plan
from .render import MOVES, render_grid_svg
from .serialization import _float, _indices, _int, _known_keys, _load_json, load_policy, write_report

LEFT, RIGHT, UP, DOWN, STAY = range(5)
NUM_GRID_ACTIONS = len(MOVES)
# Largest dense S x A x S float64 transition tensor a grid may build (42x42
# fits, 43x43 does not); `gridworld build` of a grid at the limit peaks near
# 0.8 GiB, most of it writing mdp.json.  See README.md.
MAX_TRANSITION_BYTES = 128 * 2**20


@dataclass(frozen=True)
class GridworldSpec:
    """Geometry and dynamics flags of one grid environment."""

    width: int
    height: int
    initial_cell: tuple[int, int]
    gamma: float
    reversed: bool = False
    blocked_cells: tuple[tuple[int, int], ...] = ()
    expert_policy_file: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "initial_cell", tuple(self.initial_cell))
        object.__setattr__(
            self, "blocked_cells", tuple(tuple(c) for c in self.blocked_cells)
        )
        if self.width < 1 or self.height < 1:
            raise DomainError("grid dimensions must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise DomainError("gamma must lie in [0, 1)")
        for (x, y) in (self.initial_cell, *self.blocked_cells):
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise DomainError(f"cell {(x, y)} outside the grid")
        if self.initial_cell in self.blocked_cells:
            raise DomainError("the initial cell cannot be blocked")

    @property
    def num_states(self) -> int:
        return self.width * self.height

    def state_index(self, x: int, y: int) -> int:
        return y * self.width + x


GRID_KEYS = ("width", "height", "initial_cell", "gamma", "reversed", "blocked_cells")


def spec_from_dict(doc: dict, base_dir: Path | None = None) -> GridworldSpec:
    _known_keys(doc, (*GRID_KEYS, "expert_policy_file"), "grid spec")
    reversed_ = doc.get("reversed", False)
    if not isinstance(reversed_, bool):
        raise DomainError(f"grid spec: 'reversed' must be true or false, not {reversed_!r}")
    policy_file = doc.get("expert_policy_file")
    if policy_file is not None and base_dir is not None:
        policy_file = str((base_dir / policy_file).resolve())
    return GridworldSpec(
        width=_int(doc, "width", "grid spec"),
        height=_int(doc, "height", "grid spec"),
        initial_cell=tuple(_indices(doc, "initial_cell", "grid spec")),
        gamma=_float(doc, "gamma", "grid spec"),
        reversed=reversed_,
        blocked_cells=tuple(
            tuple(_indices({"blocked cell": c}, "blocked cell", "grid spec"))
            for c in doc.get("blocked_cells", [])
        ),
        expert_policy_file=policy_file,
    )


def build_gridworld(spec: GridworldSpec) -> tuple[TabularMdp, ConstraintSpec | None]:
    """Deterministic grid MDP plus the hard constraint induced by blocked cells."""
    S, W = spec.num_states, spec.width
    size = S * NUM_GRID_ACTIONS * S * 8
    if size > MAX_TRANSITION_BYTES:
        raise DomainError(
            f"a {W}x{spec.height} grid needs a {size / 2**20:,.0f} MiB transition table, "
            f"over the {MAX_TRANSITION_BYTES // 2**20} MiB limit"
        )
    dx, dy = (-np.array(MOVES) if spec.reversed else np.array(MOVES)).T
    states = np.arange(S)[:, None]
    y, x = np.divmod(states, W)
    inside = (0 <= x + dx) & (x + dx < W) & (0 <= y + dy) & (y + dy < spec.height)
    p = np.zeros((S, NUM_GRID_ACTIONS, S))
    p[states, np.arange(NUM_GRID_ACTIONS), np.where(inside, states + dy * W + dx, states)] = 1.0
    mdp = TabularMdp(
        num_states=S,
        num_actions=NUM_GRID_ACTIONS,
        initial_state=spec.state_index(*spec.initial_cell),
        transitions=p,
        discount=spec.gamma,
    )
    constraint = None
    if spec.blocked_cells:
        cost = np.zeros((S, NUM_GRID_ACTIONS))
        cost[[spec.state_index(x, y) for (x, y) in spec.blocked_cells]] = 1.0
        constraint = ConstraintSpec(cost=RewardTable(cost), budget=0.0)
    return mdp, constraint


@dataclass(frozen=True)
class ScenarioReport:
    policy: PolicyTable
    occupancy: OccupancyMeasure
    value: float | None


@dataclass(frozen=True)
class _Scenario:
    """A scenario config document, converted when it is read."""

    source: GridworldSpec
    target: GridworldSpec
    planner: str
    model: str | None  # the behavior model's kind; a coefficient would only rescale the centroid
    estimator: tuple[int, int, float] | None  # (n, h, pi_min_prime); None is the exact limit
    seeds: dict[str, int]


SCENARIO_KEYS = ("gridworld", "target", "planner", "model", "estimator", "seeds")
PLANNERS = ("centroid", "best_case", "mimic", "bc", "expert")
SEED_KEYS = ("simulate", "best_case")


def _scenario_from_dict(doc: dict, base_dir: Path) -> _Scenario:
    _known_keys(doc, SCENARIO_KEYS, "scenario")
    sampled, estimator = doc.get("estimator", "exact"), None
    if sampled != "exact":
        _known_keys(sampled, ("n", "h", "pi_min_prime"), "estimator")
        pi_min_prime = _float(sampled, "pi_min_prime", "estimator", default=DEFAULT_PI_MIN_PRIME)
        estimator = (_int(sampled, "n", "estimator"), _int(sampled, "h", "estimator"), pi_min_prime)
    target = _known_keys(doc.get("target", {}), GRID_KEYS, "target")
    seeds = _known_keys(doc.get("seeds", {}), SEED_KEYS, "seeds")
    source = spec_from_dict(doc["gridworld"], base_dir=base_dir)
    if source.expert_policy_file is None:
        raise DomainError("the scenario's gridworld needs an expert_policy_file")
    planner, model = doc.get("planner", "centroid"), doc.get("model")
    if planner not in PLANNERS:
        raise DomainError(f"unknown planner {planner!r}; accepted: {list(PLANNERS)}")
    if model is not None:
        check_kind(model)
    elif planner == "centroid":
        raise DomainError("centroid planning needs a behavior model")
    return _Scenario(
        source=source,
        target=spec_from_dict({**doc["gridworld"], **target, "expert_policy_file": None}),
        planner=planner,
        model=model,
        estimator=estimator,
        seeds={key: _int(seeds, key, "seeds") for key in seeds},
    )


def _scenario_reward(
    scenario: _Scenario,
    source: TabularMdp,
    expert: PolicyTable,
    support: frozenset[int],
) -> RewardTable:
    if scenario.estimator is None:
        return exact_estimate(expert, support, scenario.model)
    n, h, pi_min_prime = scenario.estimator
    data = simulate_expert(source, expert, n, h, scenario.seeds.get("simulate", 0))
    return estimate(data, (source.num_states, source.num_actions), scenario.model, pi_min_prime)


def run_scenario(name: str, config_path, out_dir) -> ScenarioReport:
    """Execute one committed scenario config end to end.

    Pipeline: build the source and target grids, load the expert fixture,
    produce the planning reward (exact centroid or offline estimate), plan
    with the requested planner, then write {name}_policy.svg,
    {name}_occupancy.svg and {name}_report.json under out_dir.  A config
    that cannot be converted is a DomainError naming the file.
    """
    config_path = Path(config_path)
    out_dir = Path(out_dir)
    scenario = _load_json(config_path, lambda doc: _scenario_from_dict(doc, config_path.parent))
    source_spec, target_spec = scenario.source, scenario.target

    source, _ = build_gridworld(source_spec)
    target, constraint = build_gridworld(target_spec)

    expert = load_policy(source_spec.expert_policy_file)
    check_table(source, expert.probs, "expert fixture")
    support = reachable_support(source, expert)

    planner, model = scenario.planner, scenario.model
    value: float | None
    run_spec = target_spec
    run_support = None

    if planner == "expert":
        policy = expert
        occupancy = occupancy_measure(source, expert)
        value = None
        run_spec = source_spec
        run_support = support
    elif planner == "mimic":
        result = mimic_policy(source, expert, target, constraint)
        policy, occupancy, value = result.policy, result.occupancy, result.l1_distance
    elif planner == "bc":
        policy = bc_policy(expert, support)
        occupancy = occupancy_measure(target, policy)
        value = None
    else:  # "centroid" or "best_case", the planners left in PLANNERS
        if planner == "centroid":
            reward = _scenario_reward(scenario, source, expert, support)
        else:
            reward = best_case_reward(source, expert, support, scenario.seeds.get("best_case", 0))
        result = plan(target, reward, constraint)
        policy, occupancy, value = result.policy, result.occupancy, result.value

    policy_svg, occupancy_svg = f"{name}_policy.svg", f"{name}_occupancy.svg"
    render_grid_svg(occupancy, policy, run_spec, out_dir / policy_svg, support=run_support)
    render_grid_svg(occupancy, None, run_spec, out_dir / occupancy_svg)
    report = {
        "name": name,
        "planner": planner,
        "model": model,
        "value": value,
        "support_size": len(support),
        "support_mass": float(occupancy.state_marginal()[sorted(support)].sum()),
        "svg_paths": [policy_svg, occupancy_svg],
    }
    write_report(report, out_dir / f"{name}_report.json")
    return ScenarioReport(policy=policy, occupancy=occupancy, value=value)
