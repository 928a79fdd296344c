#!/usr/bin/env python3
"""Regenerate the committed golden outputs of the scenario suite.

Usage: python scripts/make_goldens.py [NAME ...]

With scenario names (config stems such as fig3b), only those scenarios are
regenerated; with none, all of them are.  Each golden file whose bytes
change (a report or either SVG) is named, and for a rewritten report the
old and new `value` and `support_mass` are printed; the last line counts
the rewritten files.  Run from the repository
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


def _golden_files(name: str) -> list[Path]:
    """The report first, then both SVGs."""
    return [GOLDENS / f"{name}{suffix}" for suffix in ("_report.json", "_policy.svg", "_occupancy.svg")]


def _bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


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
    rewritten = 0
    for config in configs:
        files = _golden_files(config.stem)
        before = [_bytes(path) for path in files]
        old = _report_fields(files[0])
        t0 = time.time()
        run_scenario(config.stem, config, GOLDENS)
        line = f"{config.stem:12s} {time.time() - t0:5.1f}s"
        changed = [path.name for path, data in zip(files, before) if _bytes(path) != data]
        if changed:
            line += "  rewrote " + ", ".join(changed)
        if files[0].name in changed:
            new = _report_fields(files[0])
            line += "".join(f"  {field} {old[field]!r} -> {new[field]!r}" for field in FIELDS)
        rewritten += len(changed)
        print(line)
    print(f"done in {time.time() - start:.1f}s -> {GOLDENS}; rewrote {rewritten} golden file(s)")


if __name__ == "__main__":
    main(sys.argv[1:])
