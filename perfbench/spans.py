"""Spans around calls into the package's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every `rewardcentroids`
module namespace that holds it (modules bind names with `from .x import y`,
so patching the defining module alone would miss those call sites).  Each
call records a span: name, start, end, parent span and op id.  Spans stay in
memory until `write` dumps them at the end of the run; `layer_metrics`
reduces them to the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

TRACED = {
    "lp": ("solve",),
    "planning": ("mimic_policy", "plan_constrained", "plan_unconstrained"),
    "mdp": ("value_iteration", "occupancy_measure", "policy_evaluation"),
    "estimators": (
        "simulate_expert",
        "first_visit_counts",
        "estimate_opt",
        "estimate_mce",
        "estimate_birl",
    ),
    "mclab": (
        "mc_volume_fraction",
        "mc_centroid_opt",
        "mc_centroid_prior",
        "mc_centroid_manifold",
        "new_env_bias_ratio",
    ),
    "gridworld": ("run_scenario", "build_gridworld"),
    "render": ("render_grid_svg",),
    "serialization": ("write_report", "load_policy"),
}
# Counted, not spanned: one call per value-iteration sweep.
SWEEP_FUNCTION = ("mdp", "expected_next_values")
PACKAGE = "rewardcentroids"
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sweeps = 0
        self.op: int | None = None
        self.active = False
        self._stack: list[int] = []

    def install(self) -> None:
        for module, names in TRACED.items():
            for name in names:
                self._patch(module, name, self._spanning(f"{module}.{name}"))
        self._patch(*SWEEP_FUNCTION, self._sweep_counter)

    def _patch(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == PACKAGE and getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    def _spanning(self, span_name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = Span(span_name, time.perf_counter(), 0.0, parent, self.op)
                self.spans.append(span)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                span.extra = _extra(span_name, args, kwargs, result)
                return result

            return wrapper

        return make

    def _sweep_counter(self, fn):
        def wrapper(*args, **kwargs):
            if self.active and self._stack and self.spans[self._stack[-1]].name == "mdp.value_iteration":
                self.sweeps += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        doc = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, **s.extra}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"sweeps": self.sweeps, "spans": doc}, fh)
            fh.write("\n")


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _extra(span_name: str, args, kwargs, result) -> dict:
    """Counts recorded at the boundary; "computed" figures come from array sizes."""
    if span_name == "lp.solve":
        lp = _arg(args, kwargs, 0, "lp")
        n, me, mu = lp.num_vars, lp.eq_rhs.size, lp.ub_rhs.size
        artificials = me + int((lp.ub_rhs < 0).sum())
        tableau_bytes = (me + mu) * (n + mu + artificials + 1) * 8
        return {"vars": n, "rows": me + mu, "tableau_mib": tableau_bytes / MIB}
    if span_name == "estimators.simulate_expert":
        mdp = _arg(args, kwargs, 0, "mdp")
        steps = _arg(args, kwargs, 2, "n") * _arg(args, kwargs, 3, "h")
        gather = steps * (mdp.num_states + mdp.num_actions) * 8
        return {"steps": steps, "gather_mib": gather / MIB}
    if span_name == "render.render_grid_svg":
        return {"svg_bytes": result.stat().st_size}
    if span_name.startswith("mclab."):
        return {
            "samples": result.n_samples,
            "accepted": result.n_accepted,
            "policies": _policies_per_sample(span_name, args, kwargs),
        }
    return {}


def _policies_per_sample(span_name: str, args, kwargs) -> int:
    """Deterministic policies each sample is evaluated against."""
    mdp = _arg(args, kwargs, 0, "mdp") if span_name != "mclab.new_env_bias_ratio" else None
    if span_name == "mclab.mc_volume_fraction":
        params = kwargs.get("params", args[6] if len(args) > 6 else None)
        return 1 + (mdp.num_actions**mdp.num_states if params is not None else 0)
    if span_name == "mclab.mc_centroid_opt":
        off = mdp.num_states - len(_arg(args, kwargs, 2, "support"))
        return mdp.num_actions**off + mdp.num_actions**mdp.num_states
    if span_name == "mclab.mc_centroid_prior":
        return mdp.num_actions**mdp.num_states
    if span_name == "mclab.new_env_bias_ratio":
        return 1
    return 0  # the manifold centroid evaluates no policy


PER_LAYER_UNITS = {
    "lp.solve.calls": "count",
    "lp.solve.busy_s": "s",
    "lp.solve.max_vars": "count",
    "lp.solve.max_rows": "count",
    "lp.solve.tableau_mib": "MiB",
    "planning.mimic_policy.calls": "count",
    "planning.mimic_policy.self_s": "s",
    "planning.plan_constrained.calls": "count",
    "planning.plan_constrained.self_s": "s",
    "planning.plan_unconstrained.busy_s": "s",
    "mdp.value_iteration.calls": "count",
    "mdp.value_iteration.busy_s": "s",
    "mdp.value_iteration.sweeps": "count",
    "mdp.occupancy_measure.calls": "count",
    "mdp.occupancy_measure.busy_s": "s",
    "mdp.policy_evaluation.busy_s": "s",
    "estimators.simulate_expert.busy_s": "s",
    "estimators.simulate_expert.steps": "count",
    "estimators.simulate_expert.gather_mib": "MiB",
    "estimators.first_visit_counts.busy_s": "s",
    "estimators.estimate.self_s": "s",
    "mclab.busy_s": "s",
    "mclab.samples": "count",
    "mclab.accepted": "count",
    "mclab.accept_ratio": "ratio",
    "mclab.policies_per_sample": "count",
    "gridworld.run_scenario.self_s": "s",
    "gridworld.build_gridworld.busy_s": "s",
    "render.render_grid_svg.busy_s": "s",
    "render.svg_bytes": "bytes",
    "serialization.write_report.busy_s": "s",
    "serialization.load_policy.busy_s": "s",
}

ESTIMATE_SPANS = ("estimators.estimate_opt", "estimators.estimate_mce", "estimators.estimate_birl")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start

    def of(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def busy(*names):
        return sum(spans[i].end - spans[i].start for i in of(*names))

    def self_time(*names):
        return sum(spans[i].end - spans[i].start - child_time[i] for i in of(*names))

    def total(key, *names):
        return sum(spans[i].extra[key] for i in of(*names))

    def largest(key, *names):
        return max((spans[i].extra[key] for i in of(*names)), default=0)

    mc = [f"mclab.{name}" for name in TRACED["mclab"]]
    samples = total("samples", *mc)
    weighted_policies = sum(spans[i].extra["samples"] * spans[i].extra["policies"] for i in of(*mc))
    m = {
        "lp.solve.calls": len(of("lp.solve")),
        "lp.solve.busy_s": busy("lp.solve"),
        "lp.solve.max_vars": largest("vars", "lp.solve"),
        "lp.solve.max_rows": largest("rows", "lp.solve"),
        "lp.solve.tableau_mib": largest("tableau_mib", "lp.solve"),
        "planning.mimic_policy.calls": len(of("planning.mimic_policy")),
        "planning.mimic_policy.self_s": self_time("planning.mimic_policy"),
        "planning.plan_constrained.calls": len(of("planning.plan_constrained")),
        "planning.plan_constrained.self_s": self_time("planning.plan_constrained"),
        "planning.plan_unconstrained.busy_s": busy("planning.plan_unconstrained"),
        "mdp.value_iteration.calls": len(of("mdp.value_iteration")),
        "mdp.value_iteration.busy_s": busy("mdp.value_iteration"),
        "mdp.value_iteration.sweeps": tracer.sweeps,
        "mdp.occupancy_measure.calls": len(of("mdp.occupancy_measure")),
        "mdp.occupancy_measure.busy_s": busy("mdp.occupancy_measure"),
        "mdp.policy_evaluation.busy_s": busy("mdp.policy_evaluation"),
        "estimators.simulate_expert.busy_s": busy("estimators.simulate_expert"),
        "estimators.simulate_expert.steps": total("steps", "estimators.simulate_expert"),
        "estimators.simulate_expert.gather_mib": total("gather_mib", "estimators.simulate_expert"),
        "estimators.first_visit_counts.busy_s": busy("estimators.first_visit_counts"),
        "estimators.estimate.self_s": self_time(*ESTIMATE_SPANS),
        "mclab.busy_s": busy(*mc),
        "mclab.samples": samples,
        "mclab.accepted": total("accepted", *mc),
        "mclab.accept_ratio": total("accepted", *mc) / samples if samples else 0.0,
        "mclab.policies_per_sample": weighted_policies / samples if samples else 0.0,
        "gridworld.run_scenario.self_s": self_time("gridworld.run_scenario"),
        "gridworld.build_gridworld.busy_s": busy("gridworld.build_gridworld"),
        "render.render_grid_svg.busy_s": busy("render.render_grid_svg"),
        "render.svg_bytes": total("svg_bytes", "render.render_grid_svg"),
        "serialization.write_report.busy_s": busy("serialization.write_report"),
        "serialization.load_policy.busy_s": busy("serialization.load_policy"),
    }
    if set(m) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metric names and units disagree")
    return m
