"""JSON formats shared by the CLI and the scenario pipeline."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DomainError
from .mdp import OccupancyMeasure, PolicyTable, RewardTable, TabularMdp
from .planning import ConstraintSpec
from .estimators import TrajectoryDataset


@contextmanager
def _reading(path):
    """Any failure to read or convert the file at path, as a DomainError naming it."""
    try:
        yield
    except DomainError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (AttributeError, OSError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DomainError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _load_json(path, convert):
    """The JSON document at path, passed through convert under _reading."""
    with _reading(path), open(path) as fh:
        return convert(json.load(fh))


def _dump_json(obj, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DomainError(f"{where} is missing required key {key!r}")
    return doc[key]


def _int(doc: dict, key: str, where: str) -> int:
    """doc[key] as a JSON integer; 3.9 or true is an error, not 3 or 1."""
    value = _require(doc, key, where)
    if type(value) is not int:
        raise DomainError(f"{where}: {key!r} must be an integer, not {value!r}")
    return value


def _float(doc: dict, key: str, where: str, default: float | None = None) -> float:
    """doc[key] as a JSON number, or default when the key is absent (required without one).

    true, "0.5" or null is an error, not 1.0, 0.5 or a conversion failure.
    """
    value = _require(doc, key, where) if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{where}: {key!r} must be a number, not {value!r}")
    return float(value)


def _table(doc: dict, key: str, where: str) -> np.ndarray:
    """doc[key] as a float array; a "0.5", true or null entry is an error, not 0.5, 1.0 or nan."""
    table = np.asarray(_require(doc, key, where), dtype=object)
    if {str, bool, type(None)} & set(map(type, table.flat)):
        raise DomainError(f"{where}: {key!r} entries must be JSON numbers")
    return table.astype(float)


def _known_keys(doc, allowed, where: str):
    """doc itself; a key outside allowed is a DomainError, so no typo is ignored.

    doc must be a JSON object: a string would be read letter by letter.
    """
    if not isinstance(doc, dict):
        raise DomainError(f"{where} must be a JSON object, not {doc!r}; accepted: {list(allowed)}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise DomainError(f"unknown {where} key(s) {unknown}; accepted: {list(allowed)}")
    return doc


def mdp_to_dict(mdp: TabularMdp) -> dict:
    return {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "initial_state": mdp.initial_state,
        "gamma": mdp.discount,
        "transitions": mdp.transitions.tolist(),
    }


def mdp_from_dict(doc: dict) -> TabularMdp:
    return TabularMdp(
        num_states=_int(doc, "num_states", "MDP document"),
        num_actions=_int(doc, "num_actions", "MDP document"),
        initial_state=_int(doc, "initial_state", "MDP document"),
        transitions=_table(doc, "transitions", "MDP document"),
        discount=_float(doc, "gamma", "MDP document"),
    )


def load_mdp(path) -> TabularMdp:
    return _load_json(path, mdp_from_dict)


def save_mdp(mdp: TabularMdp, path) -> None:
    _dump_json(mdp_to_dict(mdp), path)


def reward_to_dict(r: RewardTable) -> dict:
    return {"values": r.values.tolist()}


def reward_from_dict(doc: dict) -> RewardTable:
    return RewardTable(_table(doc, "values", "reward document"))


def load_reward(path) -> RewardTable:
    return _load_json(path, reward_from_dict)


def save_reward(r: RewardTable, path) -> None:
    _dump_json(reward_to_dict(r), path)


def policy_to_dict(policy: PolicyTable) -> dict:
    return {"probs": policy.probs.tolist()}


def policy_from_dict(doc: dict) -> PolicyTable:
    """The policy of doc; determinism is read from the rows, not from a flag.

    Older files may carry a "deterministic" key.  It is ignored, except that a
    truthy one on rows that are not all one-hot is still an error.
    """
    policy = PolicyTable(_table(doc, "probs", "policy document"))
    if doc.get("deterministic") and not policy.deterministic_rows().all():
        raise DomainError("policy marked deterministic has rows that are not one-hot")
    return policy


def load_policy(path) -> PolicyTable:
    return _load_json(path, policy_from_dict)


def save_policy(policy: PolicyTable, path) -> None:
    _dump_json(policy_to_dict(policy), path)


def constraint_to_dict(spec: ConstraintSpec) -> dict:
    return {"cost": spec.cost.values.tolist(), "budget": spec.budget}


def constraint_from_dict(doc: dict) -> ConstraintSpec:
    return ConstraintSpec(
        cost=RewardTable(_table(doc, "cost", "constraint document")),
        budget=_float(doc, "budget", "constraint document"),
    )


def load_constraint(path) -> ConstraintSpec:
    return _load_json(path, constraint_from_dict)


def save_constraint(spec: ConstraintSpec, path) -> None:
    _dump_json(constraint_to_dict(spec), path)


def load_support(path) -> frozenset[int]:
    return _load_json(path, lambda doc: frozenset(_indices(doc, "states", "support document")))


def save_support(states, path) -> None:
    _dump_json({"states": sorted(int(s) for s in states)}, path)


def occupancy_to_dict(occ: OccupancyMeasure) -> dict:
    return {"d": occ.d.tolist()}


def load_occupancy(path) -> OccupancyMeasure:
    return _load_json(path, lambda doc: OccupancyMeasure(_table(doc, "d", "occupancy document")))


def save_trajectories(data: TrajectoryDataset, path) -> None:
    """One JSON object per line: {"states": [...], "actions": [...]}."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i in range(data.num_trajectories):
            fh.write(
                json.dumps(
                    {
                        "states": data.states[i].tolist(),
                        "actions": data.actions[i].tolist(),
                    }
                )
            )
            fh.write("\n")


def _indices(doc: dict, key: str, where: str) -> list[int]:
    """doc[key] as a list of JSON integers; 1.7 or true is an error, not 1."""
    values = _require(doc, key, where)
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise DomainError(f"{where}: {key!r} must be a list of integers")
    return values


def load_trajectories(path) -> TrajectoryDataset:
    states, actions = [], []
    with _reading(path):
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                where = f"line {line_no}"
                states.append(_indices(doc, "states", where))
                actions.append(_indices(doc, "actions", where))
        if not states:
            raise DomainError("no trajectories")
        lengths = {len(s) for s in states} | {len(a) for a in actions}
        if len(lengths) != 1:
            raise DomainError("all trajectories must share one length")
        return TrajectoryDataset(states=np.asarray(states), actions=np.asarray(actions))


REPORT_DECIMALS = 10


def _canonical(obj):
    """Round every float to REPORT_DECIMALS places and write -0.0 as 0.0.

    Report quantities are O(1e-2..1e2), so ten decimal places keep every
    meaningful digit while dropping the last bits that differ between numpy
    and BLAS builds (a zero mass that comes out as 2.2e-19 on one build).
    """
    if isinstance(obj, float):
        return round(float(obj), REPORT_DECIMALS) + 0.0
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def write_report(doc: dict, path) -> None:
    """Write a scenario report with platform-stable floats (see `_canonical`)."""
    _dump_json(_canonical(doc), path)
