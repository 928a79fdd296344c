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

# One line per cell and per glyph; each layer is one `%` on its templates.
CELL_RECT = (
    f'<rect x="%d" y="%d" width="{CELL}" height="{CELL}" '
    'fill="#%02x%02x%02x" stroke="#c8c8c8" stroke-width="1"/>\n'
)
DOT = '<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#202020"/>\n'
ARROW = (
    '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#202020" stroke-width="%.2f"/>'
    '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="#202020"/>\n'
)


def _glyph_layer(cx: np.ndarray, cy: np.ndarray, actions: np.ndarray, prob: np.ndarray) -> str:
    """Per (cell centre, action, prob): an arrow scaled by prob along the
    action's move, or a dot for stay."""
    dx, dy = np.array(MOVES).T[:, actions]
    dot = (dx == 0) & (dy == 0)
    half = 0.38 * CELL * prob
    head = np.maximum(2.0, 0.22 * CELL * prob)
    x1, y1 = cx + dx * half, cy + dy * half
    px, py = -dy, dx  # perpendicular
    args = np.column_stack([  # a dot's (cx, cy, r) is an arrow's (x0, y0, x1) at dx = dy = 0
        cx - dx * half, cy - dy * half, np.where(dot, np.maximum(1.2, 0.16 * CELL * prob), x1), y1,
        np.maximum(0.8, 2.2 * prob), x1 + dx * head, y1 + dy * head,
        x1 + px * head * 0.6, y1 + py * head * 0.6, x1 - px * head * 0.6, y1 - py * head * 0.6,
    ])
    used = np.ones(args.shape, dtype=bool)
    used[dot, 3:] = False
    return "".join(DOT if d else ARROW for d in dot.tolist()) % tuple(args[used].tolist())


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
    visible = np.ones(S, dtype=bool) if support is None else support_mask(support, S)
    width_px = W * CELL + 2 * MARGIN
    height_px = spec.height * CELL + 2 * MARGIN
    blocked = [spec.state_index(x, y) for (x, y) in spec.blocked_cells]
    visible[blocked] = False
    rgb = np.full((S, 3), 255)
    if occupancy is not None:
        marginal = occupancy.state_marginal()
        shade = (marginal / marginal.max())[:, None]
        rgb = np.rint(255 + (np.array(OCC_COLOR) - 255) * shade).astype(int)
    rgb[blocked] = tuple(bytes.fromhex(BLOCKED_FILL[1:]))
    y, x = np.divmod(np.arange(S), W)
    cells = np.column_stack([MARGIN + x * CELL, MARGIN + y * CELL, rgb])
    glyphs = ""
    if policy is not None:
        s, a = np.nonzero(policy.probs >= GLYPH_MIN_PROB)
        s, a = s[visible[s]], a[visible[s]]
        cx, cy = MARGIN + (x[s] + 0.5) * CELL, MARGIN + (y[s] + 0.5) * CELL
        glyphs = _glyph_layer(cx, cy, a, policy.probs[s, a])
    ix, iy = spec.initial_cell
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">\n'
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="#ffffff"/>\n'
        + CELL_RECT * S % tuple(cells.ravel().tolist())
        + glyphs
        + f'<rect x="{MARGIN + ix * CELL + 1}" y="{MARGIN + iy * CELL + 1}" '
        f'width="{CELL - 2}" height="{CELL - 2}" fill="none" '
        f'stroke="{INITIAL_STROKE}" stroke-width="2.5"/>\n</svg>\n'
    )
    return out
