import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rewardcentroids import gridworld
from rewardcentroids.errors import DomainError
from rewardcentroids.gridworld import (
    DOWN,
    LEFT,
    NUM_GRID_ACTIONS,
    RIGHT,
    STAY,
    UP,
    GridworldSpec,
    build_gridworld,
    run_scenario,
)
from rewardcentroids.mdp import OccupancyMeasure, PolicyTable
from rewardcentroids.render import (
    BLOCKED_FILL,
    CELL,
    GLYPH_MIN_PROB,
    INITIAL_STROKE,
    MARGIN,
    MOVES,
    OCC_COLOR,
    render_grid_svg,
)
from rewardcentroids.serialization import save_policy

ROOT = Path(__file__).resolve().parent.parent


def small_spec(**kwargs):
    base = dict(width=3, height=3, initial_cell=(0, 0), gamma=0.5)
    base.update(kwargs)
    return GridworldSpec(**base)


def loop_transitions(spec: GridworldSpec) -> np.ndarray:
    """Reference P: one move per (x, y, action), written out cell by cell."""
    moves = {LEFT: (-1, 0), RIGHT: (1, 0), UP: (0, -1), DOWN: (0, 1), STAY: (0, 0)}
    if spec.reversed:
        moves = {LEFT: (1, 0), RIGHT: (-1, 0), UP: (0, 1), DOWN: (0, -1), STAY: (0, 0)}
    p = np.zeros((spec.num_states, NUM_GRID_ACTIONS, spec.num_states))
    for y in range(spec.height):
        for x in range(spec.width):
            s = spec.state_index(x, y)
            for a, (dx, dy) in moves.items():
                nx, ny = x + dx, y + dy
                if not (0 <= nx < spec.width and 0 <= ny < spec.height):
                    nx, ny = x, y
                p[s, a, spec.state_index(nx, ny)] = 1.0
    return p


def _loop_cell_fill(intensity: float) -> str:
    r = round(255 + (OCC_COLOR[0] - 255) * intensity)
    g = round(255 + (OCC_COLOR[1] - 255) * intensity)
    b = round(255 + (OCC_COLOR[2] - 255) * intensity)
    return f"#{r:02x}{g:02x}{b:02x}"


def _loop_glyph(cx: float, cy: float, action: int, prob: float) -> str:
    dx, dy = MOVES[action]
    if dx == dy == 0:
        r = max(1.2, 0.16 * CELL * prob)
        return f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="#202020"/>'
    half = 0.38 * CELL * prob
    head = max(2.0, 0.22 * CELL * prob)
    x1, y1 = cx + dx * half, cy + dy * half
    px, py = -dy, dx
    return (
        f'<line x1="{cx - dx * half:.2f}" y1="{cy - dy * half:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#202020" stroke-width="{max(0.8, 2.2 * prob):.2f}"/>'
        f'<polygon points="{x1 + dx * head:.2f},{y1 + dy * head:.2f} '
        f"{x1 + px * head * 0.6:.2f},{y1 + py * head * 0.6:.2f} "
        f'{x1 - px * head * 0.6:.2f},{y1 - py * head * 0.6:.2f}" fill="#202020"/>'
    )


def loop_render_svg(occupancy, policy, spec, support=None) -> str:
    """Reference SVG text: one formatted line per cell and per glyph."""
    S, W = spec.num_states, spec.width
    shown = set(range(S)) if support is None else set(support)
    width_px = W * CELL + 2 * MARGIN
    height_px = spec.height * CELL + 2 * MARGIN
    blocked = {spec.state_index(x, y) for (x, y) in spec.blocked_cells}
    shades = None
    if occupancy is not None:
        marginal = occupancy.state_marginal()
        shades = (marginal / marginal.max()).tolist()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="#ffffff"/>',
    ]
    for s in range(S):
        y, x = divmod(s, W)
        if s in blocked:
            fill = BLOCKED_FILL
        elif shades is not None:
            fill = _loop_cell_fill(shades[s])
        else:
            fill = "#ffffff"
        lines.append(
            f'<rect x="{MARGIN + x * CELL}" y="{MARGIN + y * CELL}" width="{CELL}" height="{CELL}" '
            f'fill="{fill}" stroke="#c8c8c8" stroke-width="1"/>'
        )
    if policy is not None:
        probs = policy.probs.tolist()
        for s, a in np.argwhere(policy.probs >= GLYPH_MIN_PROB).tolist():
            if s in shown - blocked:
                y, x = divmod(s, W)
                lines.append(_loop_glyph(MARGIN + (x + 0.5) * CELL, MARGIN + (y + 0.5) * CELL, a, probs[s][a]))
    ix, iy = spec.initial_cell
    lines.append(
        f'<rect x="{MARGIN + ix * CELL + 1}" y="{MARGIN + iy * CELL + 1}" '
        f'width="{CELL - 2}" height="{CELL - 2}" fill="none" '
        f'stroke="{INITIAL_STROKE}" stroke-width="2.5"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# Probabilities whose glyphs land on x.xx5 in decimal: half-lengths 0.095
# and 0.285 (so x2 = 17.905, 18.285, ...), stroke width 1.375, dot radius 1.205.
TIE_PROBS = (1 / 128, 3 / 128, 0.625, 241 / 1024)


def random_render_inputs(rng: np.random.Generator):
    """A random grid, occupancy (or None), policy (or None) and support (or None)."""
    width, height = (int(n) for n in rng.integers(1, 8, size=2))
    S = width * height
    initial = (int(rng.integers(width)), int(rng.integers(height)))
    cells = [(x, y) for y in range(height) for x in range(width) if (x, y) != initial]
    blocked = [cells[i] for i in np.flatnonzero(rng.random(len(cells)) < 0.15)]
    spec = GridworldSpec(width, height, initial, 0.5, blocked_cells=blocked)
    kind = rng.integers(3)  # 0: occupancy alone, 1: policy alone, 2: both
    occupancy = None
    if kind != 1 and rng.random() < 0.5:
        d = rng.random((S, 5)) * (rng.random((S, 1)) < 0.8)
        d[rng.integers(S), rng.integers(5)] += 1.0
        occupancy = OccupancyMeasure(d / d.sum())
    elif kind != 1:  # shades of exactly 1/4 and 1/2: red and blue land on .5 ties
        d = np.zeros((S, 5))
        d[np.arange(S), rng.integers(5, size=S)] = rng.choice([0.0, 1.0, 2.0, 4.0], size=S)
        d[rng.integers(S), rng.integers(5)] = 4.0
        occupancy = OccupancyMeasure(d / d.sum())
    policy = None
    if kind != 0:
        probs = np.zeros((S, 5))
        for s in range(S):
            row = rng.integers(4)
            if row == 0:  # one-hot, left in every row half the time (negative x in column 0)
                probs[s, LEFT if rng.random() < 0.5 else rng.integers(5)] = 1.0
            elif row == 1:
                probs[s] = rng.dirichlet(np.full(5, 0.3))
            elif row == 2:  # a tie probability, the rest on another action
                a, b = rng.choice(5, size=2, replace=False)
                probs[s, a] = TIE_PROBS[rng.integers(len(TIE_PROBS))]
                probs[s, b] = 1.0 - probs[s, a]
            else:  # entries around the glyph threshold
                probs[s, :4] = GLYPH_MIN_PROB * rng.choice([0.5, 1.0, 2.0], size=4)
                probs[s, STAY] = 1.0 - probs[s, :4].sum()
        policy = PolicyTable(probs)
    support = None
    if rng.random() < 0.5:
        support = set(np.flatnonzero(rng.random(S) < 0.6).tolist())
    return occupancy, policy, spec, support


class TestBuild:
    @pytest.mark.parametrize("reversed_", [False, True])
    def test_transitions_match_the_loop_reference_bit_for_bit(self, reversed_):
        for width in range(1, 7):
            for height in range(1, 7):
                spec = GridworldSpec(width, height, (width - 1, 0), 0.5, reversed=reversed_)
                p = build_gridworld(spec)[0].transitions
                expected = loop_transitions(spec)
                assert p.dtype == expected.dtype and p.shape == expected.shape
                assert p.tobytes() == expected.tobytes()

    def test_full_grid_dimensions(self):
        spec = GridworldSpec(width=10, height=10, initial_cell=(2, 5), gamma=0.7)
        mdp, constraint = build_gridworld(spec)
        assert mdp.num_states == 100
        assert mdp.num_actions == 5
        assert constraint is None
        assert mdp.initial_state == spec.state_index(2, 5)

    def test_single_cell_grid_self_loops(self):
        spec = GridworldSpec(width=1, height=1, initial_cell=(0, 0), gamma=0.5)
        mdp, _ = build_gridworld(spec)
        assert np.all(mdp.transitions[0, :, 0] == 1.0)

    def test_moves_are_deterministic_and_clipped(self):
        spec = small_spec()
        mdp, _ = build_gridworld(spec)
        s = spec.state_index(1, 1)
        assert mdp.transitions[s, LEFT, spec.state_index(0, 1)] == 1.0
        assert mdp.transitions[s, RIGHT, spec.state_index(2, 1)] == 1.0
        assert mdp.transitions[s, UP, spec.state_index(1, 0)] == 1.0
        assert mdp.transitions[s, DOWN, spec.state_index(1, 2)] == 1.0
        assert mdp.transitions[s, STAY, s] == 1.0
        corner = spec.state_index(0, 0)
        assert mdp.transitions[corner, LEFT, corner] == 1.0
        assert mdp.transitions[corner, UP, corner] == 1.0

    def test_reversed_swaps_arrow_actions(self):
        spec = small_spec(reversed=True)
        mdp, _ = build_gridworld(spec)
        s = spec.state_index(1, 1)
        assert mdp.transitions[s, LEFT, spec.state_index(2, 1)] == 1.0  # left moves right
        assert mdp.transitions[s, RIGHT, spec.state_index(0, 1)] == 1.0
        assert mdp.transitions[s, UP, spec.state_index(1, 2)] == 1.0
        assert mdp.transitions[s, DOWN, spec.state_index(1, 0)] == 1.0
        assert mdp.transitions[s, STAY, s] == 1.0  # stay unchanged

    def test_blocked_cells_become_unit_cost_with_zero_budget(self):
        spec = small_spec(blocked_cells=((2, 2), (1, 2)))
        mdp, constraint = build_gridworld(spec)
        assert constraint is not None
        assert constraint.budget == 0.0
        blocked = spec.state_index(2, 2)
        assert np.all(constraint.cost.values[blocked] == 1.0)
        open_cell = spec.state_index(0, 0)
        assert np.all(constraint.cost.values[open_cell] == 0.0)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            small_spec(initial_cell=(5, 0))
        with pytest.raises(DomainError):
            small_spec(blocked_cells=((0, 0),))
        with pytest.raises(DomainError):
            small_spec(gamma=1.0)

    @pytest.mark.parametrize("size", [{"width": 0}, {"height": 0}])
    def test_empty_grid_rejected(self, size):
        with pytest.raises(DomainError, match="^grid dimensions must be positive$"):
            small_spec(**size)

    @pytest.mark.parametrize("initial", [(0, 0), [0, 0]])
    @pytest.mark.parametrize("blocked", [((0, 0),), [[0, 0]]])
    def test_blocked_initial_cell_rejected_as_tuples_or_lists(self, initial, blocked):
        with pytest.raises(DomainError):
            small_spec(initial_cell=initial, blocked_cells=blocked)

    def test_grid_over_the_size_limit_is_rejected_before_allocating(self):
        # 43x43 is the smallest square grid over the limit
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="a 43x43 grid needs a 130 MiB transition table"):
                build_gridworld(small_spec(width=43, height=43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_grid_at_the_size_limit_builds(self, monkeypatch):
        monkeypatch.setattr(gridworld, "MAX_TRANSITION_BYTES", 9 * NUM_GRID_ACTIONS * 9 * 8)
        build_gridworld(small_spec())
        with pytest.raises(DomainError, match="3x4 grid"):
            build_gridworld(small_spec(height=4))


class TestRender:
    def test_requires_some_content(self, tmp_path):
        with pytest.raises(DomainError):
            render_grid_svg(None, None, small_spec(), tmp_path / "x.svg")

    def test_uniform_occupancy_uniform_fill(self, tmp_path):
        spec = small_spec()
        occ = OccupancyMeasure(np.full((9, 5), 1.0 / 45.0))
        path = render_grid_svg(occ, None, spec, tmp_path / "o.svg")
        text = path.read_text()
        fills = [line for line in text.splitlines() if 'width="32"' in line]
        colors = {line.split('fill="')[1].split('"')[0] for line in fills}
        assert len(colors) == 1  # every cell shaded identically

    def test_deterministic_policy_renders_one_arrow_per_cell(self, tmp_path):
        spec = small_spec()
        probs = np.zeros((9, 5))
        probs[:, RIGHT] = 1.0
        path = render_grid_svg(None, PolicyTable(probs), spec, tmp_path / "p.svg")
        text = path.read_text()
        assert text.count("<line") == 9
        assert text.count("<circle") == 0

    def test_support_masking_blanks_cells(self, tmp_path):
        spec = small_spec()
        probs = np.zeros((9, 5))
        probs[:, STAY] = 1.0
        path = render_grid_svg(
            None, PolicyTable(probs), spec, tmp_path / "m.svg",
            support={0, 1},
        )
        assert path.read_text().count("<circle") == 2

    def test_glyph_drawn_from_the_threshold_on(self, tmp_path):
        below = np.nextafter(GLYPH_MIN_PROB, 0.0)
        probs = np.array([[GLYPH_MIN_PROB, below, 0.0, 0.0, 1.0 - GLYPH_MIN_PROB - below]])
        spec = GridworldSpec(width=1, height=1, initial_cell=(0, 0), gamma=0.5)
        text = render_grid_svg(None, PolicyTable(probs), spec, tmp_path / "t.svg").read_text()
        assert text.count("<line") == 1  # LEFT at exactly the threshold; RIGHT just below it is not drawn
        assert text.count("<circle") == 1

    def test_matches_the_loop_reference_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(20241020)
        negative = 0
        for i in range(400):
            occupancy, policy, spec, support = random_render_inputs(rng)
            path = render_grid_svg(occupancy, policy, spec, tmp_path / f"r{i}.svg", support=support)
            expected = loop_render_svg(occupancy, policy, spec, support)
            assert path.read_text() == expected, (i, spec, support)
            negative += '="-' in expected or " -" in expected
        assert negative > 10  # left arrows in column 0 reach x < 0

    def test_byte_determinism(self, tmp_path):
        spec = small_spec(blocked_cells=((2, 2),))
        rng = np.random.default_rng(3)
        d = rng.dirichlet(np.ones(45)).reshape(9, 5)
        occ = OccupancyMeasure(d)
        probs = rng.dirichlet(np.ones(5), size=9)
        policy = PolicyTable(probs)
        a = render_grid_svg(occ, policy, spec, tmp_path / "a.svg").read_bytes()
        b = render_grid_svg(occ, policy, spec, tmp_path / "b.svg").read_bytes()
        assert a == b


class TestScenario:
    def make_config(self, tmp_path) -> Path:
        probs = np.zeros((9, 5))
        probs[:, STAY] = 1.0
        spec = small_spec()
        s0 = spec.state_index(0, 0)
        probs[s0, :] = 0.0
        probs[s0, RIGHT] = 1.0
        policy_doc = {"probs": probs.tolist()}
        (tmp_path / "expert.json").write_text(json.dumps(policy_doc))
        config = {
            "gridworld": {
                "width": 3, "height": 3, "initial_cell": [0, 0], "gamma": 0.5,
                "expert_policy_file": "expert.json",
            },
            "target": {"reversed": True},
            "model": "opt",
            "planner": "centroid",
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config))
        return path

    def test_pipeline_produces_outputs(self, tmp_path):
        config = self.make_config(tmp_path)
        report = run_scenario("tiny", config, tmp_path / "out")
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["tiny_occupancy.svg", "tiny_policy.svg", "tiny_report.json"]
        assert report.value is not None

    def test_pipeline_is_deterministic(self, tmp_path):
        config = self.make_config(tmp_path)
        run_scenario("tiny", config, tmp_path / "o1")
        run_scenario("tiny", config, tmp_path / "o2")
        for name in ("tiny_policy.svg", "tiny_occupancy.svg", "tiny_report.json"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()

    def test_sampled_estimator_reproduces_the_exact_goldens(self, tmp_path):
        # fig2c's expert is deterministic, so one trajectory long enough to
        # reach its fixed point visits its whole support and the sampled OPT
        # estimate equals the exact centroid.
        root = Path(__file__).resolve().parent.parent
        doc = json.loads((root / "configs" / "fig2c.json").read_text())
        doc["gridworld"]["expert_policy_file"] = str(root / "configs" / doc["gridworld"]["expert_policy_file"])
        doc["estimator"] = {"n": 1, "h": 100}
        config_path = tmp_path / "fig2c.json"
        config_path.write_text(json.dumps(doc))
        run_scenario("fig2c", config_path, tmp_path / "out")
        for name in ("fig2c_report.json", "fig2c_policy.svg", "fig2c_occupancy.svg"):
            assert (tmp_path / "out" / name).read_bytes() == (root / "goldens" / name).read_bytes()

    def test_unknown_planner_rejected(self, tmp_path):
        config_path = self.make_config(tmp_path)
        doc = json.loads(config_path.read_text())
        doc["planner"] = "nonsense"
        config_path.write_text(json.dumps(doc))
        with pytest.raises(DomainError):
            run_scenario("tiny", config_path, tmp_path / "out")


def test_fixture_script_reproduces_the_committed_experts(tmp_path):
    location = ROOT / "scripts" / "make_fixtures.py"
    module_spec = importlib.util.spec_from_file_location("make_fixtures", location)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    for name, expert in (
        ("expert_right_stop.json", script.right_stop_expert()),
        ("expert_band_drift.json", script.band_drift_expert()),
    ):
        save_policy(expert, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (ROOT / "configs" / name).read_bytes()
