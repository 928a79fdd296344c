"""Deterministic SVG rendering of gridworld policies and occupancies."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DomainError
from .mdp import OccupancyMeasure, PolicyTable, support_mask

CELL = 32
MARGIN = 2

# The one action table, as (dx, dy) per action: left, right, up, down, stay.
# A reversed grid moves by the negated table.
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
OCC_COLOR = (21, 72, 161)  # darkest blue at maximal occupancy
BLOCKED_FILL = "#8b5a2b"
INITIAL_STROKE = "#cc0000"
GLYPH_MIN_PROB = 1e-6


def _cell_fill(intensity: float) -> str:
    r = round(255 + (OCC_COLOR[0] - 255) * intensity)
    g = round(255 + (OCC_COLOR[1] - 255) * intensity)
    b = round(255 + (OCC_COLOR[2] - 255) * intensity)
    return f"#{r:02x}{g:02x}{b:02x}"


def _glyph(cx: float, cy: float, action: int, prob: float) -> str:
    """An arrow scaled by prob along the action's move; a dot for stay."""
    dx, dy = MOVES[action]
    if dx == dy == 0:
        r = max(1.2, 0.16 * CELL * prob)
        return f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="#202020"/>'
    half = 0.38 * CELL * prob
    head = max(2.0, 0.22 * CELL * prob)
    x1, y1 = cx + dx * half, cy + dy * half
    px, py = -dy, dx  # perpendicular
    return (
        f'<line x1="{cx - dx * half:.2f}" y1="{cy - dy * half:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#202020" stroke-width="{max(0.8, 2.2 * prob):.2f}"/>'
        f'<polygon points="{x1 + dx * head:.2f},{y1 + dy * head:.2f} '
        f"{x1 + px * head * 0.6:.2f},{y1 + py * head * 0.6:.2f} "
        f'{x1 - px * head * 0.6:.2f},{y1 - py * head * 0.6:.2f}" fill="#202020"/>'
    )


def render_grid_svg(
    occupancy: OccupancyMeasure | None,
    policy: PolicyTable | None,
    spec,
    out,
    support=None,
) -> Path:
    """Write a standalone SVG of the grid; returns the output path.

    Cells are shaded blue by state occupancy, action glyphs are scaled by
    selection probability, the initial cell is outlined in red, and blocked
    cells are filled brown.  With a support set (states in [0, S)), glyphs
    outside it are omitted (blank cells).  Output bytes depend only on the inputs.
    """
    if occupancy is None and policy is None:
        raise DomainError("render needs an occupancy, a policy, or both")
    S, W = spec.num_states, spec.width
    tables = {"occupancy": occupancy and occupancy.d, "policy": policy and policy.probs}
    for what, table in tables.items():
        if table is not None and table.shape != (S, len(MOVES)):
            raise DomainError(
                f"{what} has shape {table.shape}, not ({S}, {len(MOVES)}) for a {W}x{spec.height} grid"
            )
    shown = np.ones(S, dtype=bool) if support is None else support_mask(support, S)
    width_px = W * CELL + 2 * MARGIN
    height_px = spec.height * CELL + 2 * MARGIN
    blocked = {spec.state_index(x, y) for (x, y) in spec.blocked_cells}
    shades = None
    if occupancy is not None:
        marginal = occupancy.state_marginal()
        top = marginal.max()
        shades = (marginal / top if top > 0 else marginal).tolist()

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
            fill = _cell_fill(shades[s])
        else:
            fill = "#ffffff"
        lines.append(
            f'<rect x="{MARGIN + x * CELL}" y="{MARGIN + y * CELL}" width="{CELL}" height="{CELL}" '
            f'fill="{fill}" stroke="#c8c8c8" stroke-width="1"/>'
        )
    if policy is not None:
        visible = set(np.flatnonzero(shown).tolist()) - blocked
        probs = policy.probs.tolist()
        for s, a in np.argwhere(policy.probs >= GLYPH_MIN_PROB).tolist():
            if s in visible:
                y, x = divmod(s, W)
                lines.append(_glyph(MARGIN + (x + 0.5) * CELL, MARGIN + (y + 0.5) * CELL, a, probs[s][a]))
    ix, iy = spec.initial_cell
    lines.append(
        f'<rect x="{MARGIN + ix * CELL + 1}" y="{MARGIN + iy * CELL + 1}" '
        f'width="{CELL - 2}" height="{CELL - 2}" fill="none" '
        f'stroke="{INITIAL_STROKE}" stroke-width="2.5"/>'
    )
    lines.append("</svg>")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out
