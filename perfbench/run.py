#!/usr/bin/env python3
"""Benchmark of the rewardcentroids package: one workload per run.

    python3 perfbench/run.py --workload suite-mimic --seed 1 --seconds 26 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Prints one line per op kind and per metric, then, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # fresh set-ups timed before the ops, and as many after them
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: perform the set-up only, print "ready" and exit (timed by the parent)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Put the checkout's `src/` first on the path and check the package comes from it."""
    src = ROOT / "src"
    if not (src / "rewardcentroids" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'rewardcentroids'}")
    sys.path.insert(0, str(src))
    import rewardcentroids

    if Path(rewardcentroids.__file__).resolve().parent != (src / "rewardcentroids").resolve():
        raise SystemExit(f"error: imported rewardcentroids from {rewardcentroids.__file__}, not {src}")
    import workloads

    return workloads


def timed_setups(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to the end of the workload's set-up."""
    times = []
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"error: set-up child failed (exit {child.returncode})")
        times.append(ready - start)
    return times


def machine_context() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')} (threads: {threads}), nproc {os.cpu_count()}"
    )


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it (needs 40 samples)."""
    if len(times) < 40:
        return None
    pct = int(100 * (1 - 10 / len(times)))
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / f"scenarios-{args.workload}-{os.getpid()}"
    if args.setup_only:
        make(ROOT, args.seed, args.seconds, out_dir)
        print("ready", flush=True)
        return 0

    # Half the set-ups are timed before the ops and half after, so that the
    # median spans two states of the shared machine rather than one.
    setup_times = [] if args.trace else timed_setups(args)
    wl = make(ROOT, args.seed, args.seconds, out_dir)

    import spans

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        op_times: dict[str, list[float]] = {}
        round_times: dict[int, float] = {}
        all_times: list[float] = []
        digests = []
        failures: list[str] = []
        work: dict[str, list[float]] = {}  # unit -> [work done, time of its ops]
        tracer.active = bool(args.trace)
        for index, op in enumerate(wl.ops):
            tracer.op = index
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # an op that raises fails the run; its time still counts
                output = None
                failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            op_times.setdefault(op.name, []).append(elapsed)
            round_times[op.round] = round_times.get(op.round, 0.0) + elapsed
            all_times.append(elapsed)
            if output is not None:
                done = work.setdefault(op.unit, [0.0, 0.0])
                done[0] += op.work
                done[1] += elapsed
                tracer.active = False
                digests.append((op, op.digest(output)))
                tracer.active = bool(args.trace)
            del output  # not held while the next op runs, where it would add to the peak memory
        tracer.active = False
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup_times += timed_setups(args)

        problems = []
        failed = len(failures)
        for op, digest in digests:
            found = op.check(digest)
            failed += bool(found)
            problems += found
        problems += wl.finish(digests)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    run_s = sum(all_times)
    print(f"# {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: {machine_context()}")
    for name, times in sorted(op_times.items()):
        print(f"op {name:24s} n={len(times):4d} median {statistics.median(times):.6f} s  max {max(times):.6f} s")
    print(f"ops timed: {len(all_times)} in {len(round_times)} rounds, {run_s:.6f} s in all")
    print("round times (s): " + " ".join(f"{t:.4f}" for t in round_times.values()))
    tail = tail_percentile(all_times)
    if tail:
        print(f"op_p{tail[0]}_s {tail[1]:.6f} s (highest percentile with >= 10 samples beyond it)")
    for unit, (done, seconds) in work.items():
        print(f"{unit}_per_s {done / seconds if seconds else 0.0:.6g} ({done:.0f} {unit} in {seconds:.3f} s)")
    for line in failures + problems:
        print(f"FAIL {line}")

    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"traced run_s {run_s:.6f} s; spans written to {trace_path.relative_to(ROOT)}")
        layer = spans.layer_metrics(tracer)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(all_times) if all_times else 0.0, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    # No op of these workloads is expected to fail: a raised op or a failed
    # check makes the whole run incorrect, so it can never read as a speed-up.
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": len(wl.ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
