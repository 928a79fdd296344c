#!/usr/bin/env python3
"""Regenerate the committed golden outputs of the scenario suite.

Usage: python scripts/make_goldens.py [NAME ...]

With scenario names (config stems such as fig3b), only those scenarios are
regenerated; with none, all of them are.  For each rewritten report the old
and new `value` are printed.  Run from the repository root after an
intentional change to the pipeline, then review the diff before committing.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed copy

from rewardcentroids.gridworld import run_scenario  # noqa: E402

CONFIGS = ROOT / "configs"
GOLDENS = ROOT / "goldens"


def _report_value(path: Path):
    return json.loads(path.read_text()).get("value") if path.exists() else None


def main(names: list[str]) -> None:
    configs = sorted(CONFIGS.glob("fig*.json"))
    if names:
        known = {config.stem: config for config in configs}
        unknown = [name for name in names if name not in known]
        if unknown:
            sys.exit(f"unknown scenario(s): {', '.join(unknown)}")
        configs = [known[name] for name in names]
    GOLDENS.mkdir(exist_ok=True)
    start = time.time()
    for config in configs:
        report = GOLDENS / f"{config.stem}_report.json"
        before = report.read_bytes() if report.exists() else None
        old_value = _report_value(report)
        t0 = time.time()
        run_scenario(config.stem, config, GOLDENS)
        line = f"{config.stem:12s} {time.time() - t0:5.1f}s"
        if report.exists() and report.read_bytes() != before:
            line += f"  value {old_value!r} -> {_report_value(report)!r}"
        print(line)
    print(f"done in {time.time() - start:.1f}s -> {GOLDENS}")


if __name__ == "__main__":
    main(sys.argv[1:])
