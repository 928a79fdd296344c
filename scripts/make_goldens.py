#!/usr/bin/env python3
"""Regenerate the committed golden outputs of the scenario suite.

Usage: python scripts/make_goldens.py [NAME ...]

With scenario names (config stems such as fig3b), only those scenarios are
regenerated; with none, all of them are.  For each rewritten report the old
and new `value` and `support_mass` are printed.  Run from the repository
root after an intentional change to the pipeline, then review the diff
before committing.
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


FIELDS = ("value", "support_mass")


def _report_fields(path: Path) -> dict:
    report = json.loads(path.read_text()) if path.exists() else {}
    return {field: report.get(field) for field in FIELDS}


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
        old = _report_fields(report)
        t0 = time.time()
        run_scenario(config.stem, config, GOLDENS)
        line = f"{config.stem:12s} {time.time() - t0:5.1f}s"
        if report.exists() and report.read_bytes() != before:
            new = _report_fields(report)
            line += "".join(f"  {field} {old[field]!r} -> {new[field]!r}" for field in FIELDS)
        print(line)
    print(f"done in {time.time() - start:.1f}s -> {GOLDENS}")


if __name__ == "__main__":
    main(sys.argv[1:])
