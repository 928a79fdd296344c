#!/usr/bin/env python3
"""Regenerate the committed expert-policy fixtures under configs/.

The experts are hand-designed reconstructions of the behaviors the scenario
suite studies: a deterministic walk that moves right and stops, and a
stochastic drift on a two-row band.  Rerunning this script is idempotent.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed copy

from rewardcentroids.gridworld import DOWN, NUM_GRID_ACTIONS, RIGHT, STAY, UP  # noqa: E402
from rewardcentroids.mdp import PolicyTable  # noqa: E402
from rewardcentroids.serialization import save_policy  # noqa: E402

WIDTH = HEIGHT = 10
CONFIG_DIR = ROOT / "configs"


def cell(x: int, y: int) -> int:
    return y * WIDTH + x


def right_stop_expert() -> PolicyTable:
    """Deterministic: moves right from (2,5) to (7,5), then stays; stays elsewhere."""
    probs = np.zeros((WIDTH * HEIGHT, NUM_GRID_ACTIONS))
    probs[:, STAY] = 1.0
    for x in range(2, 7):
        s = cell(x, 5)
        probs[s, :] = 0.0
        probs[s, RIGHT] = 1.0
    return PolicyTable(probs)


def band_drift_expert() -> PolicyTable:
    """Stochastic drift to the right on the band x in [2,7], y in {4,5}."""
    probs = np.zeros((WIDTH * HEIGHT, NUM_GRID_ACTIONS))
    probs[:, STAY] = 1.0
    for x in range(2, 7):
        s = cell(x, 5)
        probs[s, :] = 0.0
        probs[s, RIGHT], probs[s, UP], probs[s, STAY] = 0.6, 0.2, 0.2
        s = cell(x, 4)
        probs[s, :] = 0.0
        probs[s, RIGHT], probs[s, DOWN] = 0.7, 0.3
    s = cell(7, 5)
    probs[s, :] = 0.0
    probs[s, STAY], probs[s, UP] = 0.7, 0.3
    s = cell(7, 4)
    probs[s, :] = 0.0
    probs[s, DOWN], probs[s, STAY] = 0.5, 0.5
    return PolicyTable(probs)


def main() -> None:
    CONFIG_DIR.mkdir(parents=True, exist_ok=True)
    save_policy(right_stop_expert(), CONFIG_DIR / "expert_right_stop.json")
    save_policy(band_drift_expert(), CONFIG_DIR / "expert_band_drift.json")
    print(f"fixtures written to {CONFIG_DIR}")


if __name__ == "__main__":
    main()
