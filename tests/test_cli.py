import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from rewardcentroids import lp, mdp as mdp_module, planning
from rewardcentroids.cli import GEOMETRY_CHECKS, main
from rewardcentroids.mdp import PolicyTable, RewardTable, TabularMdp
from rewardcentroids.planning import ConstraintSpec
from rewardcentroids.serialization import (
    load_trajectories,
    save_constraint,
    save_mdp,
    save_policy,
    save_reward,
    save_support,
)

from conftest import CHAIN_CAP_REWARD, fig2b_mimic, three_state_chain


@pytest.fixture
def chain_files(tmp_path):
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0
    p[0, 1, 1] = 1.0
    p[1, :, 1] = 1.0
    mdp = TabularMdp(2, 2, 0, p, 0.5)
    save_mdp(mdp, tmp_path / "mdp.json")
    save_policy(PolicyTable.from_actions([1, 0], 2), tmp_path / "expert.json")
    save_support({0, 1}, tmp_path / "support.json")
    return tmp_path


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["centroid", "--model", "opt"]) == 2
    capsys.readouterr()


def test_domain_error_exit_code(chain_files, capsys):
    # OPT centroid without a support file
    code = main(["centroid", "--model", "opt", "--policy", str(chain_files / "expert.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solver_error_exit_code(chain_files, capsys, monkeypatch):
    # The cost is the reward and the budget binds: the greedy policy is over
    # budget, so the LP starts from the min-cost policy and must pivot.
    save_reward(RewardTable([[0.0, 1.0], [1.0, 0.0]]), chain_files / "r.json")
    save_constraint(
        ConstraintSpec(cost=RewardTable([[0.0, 1.0], [1.0, 0.0]]), budget=1.0),
        chain_files / "c.json",
    )
    monkeypatch.setattr(lp, "MAX_ITERS", 1)
    code = main([
        "plan", "--mdp", str(chain_files / "mdp.json"),
        "--reward", str(chain_files / "r.json"),
        "--constraint", str(chain_files / "c.json"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_uncertified_solution_exit_code(chain_files, capsys, monkeypatch):
    save_reward(RewardTable([[0.0, 1.0], [1.0, 0.0]]), chain_files / "r.json")
    save_constraint(
        ConstraintSpec(cost=RewardTable(np.ones((2, 2))), budget=5.0), chain_files / "c.json"
    )

    def perturbed_solve(program, basis=None):
        sol = lp.solve(program, basis)
        return dataclasses.replace(sol, x=sol.x + 1e-6)

    monkeypatch.setattr(planning, "solve", perturbed_solve)
    code = main([
        "plan", "--mdp", str(chain_files / "mdp.json"),
        "--reward", str(chain_files / "r.json"),
        "--constraint", str(chain_files / "c.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LP solution not certified")
    assert "Traceback" not in err


def test_policy_iteration_cap_exit_code(tmp_path, capsys, monkeypatch):
    # The warm-up sweeps stay in state 0; moving on to state 2, two moves
    # away, is optimal, so policy iteration needs a second step.
    save_mdp(three_state_chain(0.5), tmp_path / "chain3.json")
    save_reward(RewardTable(CHAIN_CAP_REWARD), tmp_path / "r.json")
    monkeypatch.setattr(mdp_module, "MAX_POLICY_ITERATIONS", 1)
    code = main([
        "plan", "--mdp", str(tmp_path / "chain3.json"),
        "--reward", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_centroid_stdout(chain_files, capsys):
    code = main([
        "centroid", "--model", "opt",
        "--policy", str(chain_files / "expert.json"),
        "--support", str(chain_files / "support.json"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"] == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("model", ["mce", "birl"])
def test_mce_and_birl_centroids_need_no_support(chain_files, capsys, model):
    probs = np.array([[0.25, 0.75], [0.6, 0.4]])
    save_policy(PolicyTable(probs), chain_files / "positive.json")
    assert main(["centroid", "--model", model, "--policy", str(chain_files / "positive.json")]) == 0
    values = np.array(json.loads(capsys.readouterr().out)["values"])
    expected = np.log(probs) if model == "mce" else np.log(probs / probs.max(axis=1, keepdims=True))
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0)


def test_simulate_estimate_plan_round_trip(chain_files, capsys):
    traj = chain_files / "traj.jsonl"
    assert main([
        "simulate", "--mdp", str(chain_files / "mdp.json"),
        "--policy", str(chain_files / "expert.json"),
        "--n", "20", "--h", "3", "--seed", "5", "--out", str(traj),
    ]) == 0
    data = load_trajectories(traj)
    assert data.num_trajectories == 20 and data.horizon == 3

    reward_path = chain_files / "r.json"
    assert main([
        "estimate", "--model", "opt", "--data", str(traj),
        "--num-states", "2", "--num-actions", "2", "--out", str(reward_path),
    ]) == 0
    doc = json.loads(reward_path.read_text())
    assert doc["values"] == [[0.0, 1.0], [1.0, 0.0]]

    assert main([
        "plan", "--mdp", str(chain_files / "mdp.json"),
        "--reward", str(reward_path),
    ]) == 0
    plan_doc = json.loads(capsys.readouterr().out)
    assert plan_doc["policy"]["probs"][0] == [0.0, 1.0]
    assert plan_doc["value"] == pytest.approx(2.0)


def test_mimic_subcommand(chain_files, capsys):
    assert main([
        "mimic", "--source-mdp", str(chain_files / "mdp.json"),
        "--policy", str(chain_files / "expert.json"),
        "--target-mdp", str(chain_files / "mdp.json"),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["l1_distance"] == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("check", ["centroid-opt", "centroid-prior"])
def test_geometry_centroid_check_passes(check, capsys):
    assert main(["geometry", "--check", check, "--n", "20000", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["check"] == check and doc["pass"] is True


def test_geometry_prop2_check(capsys):
    assert main(["geometry", "--check", "prop2", "--n", "10", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["estimate"] == [pytest.approx(2.0), pytest.approx(2.0 - np.log(2.0))]


@pytest.mark.parametrize("check", ["centroid-opt", "centroid-prior"])
def test_geometry_zero_acceptance_is_a_domain_error(check, capsys):
    # ten draws from the outer box all miss the bounded set
    assert main(["geometry", "--check", check, "--n", "10", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{check} accepted none of 10 samples; use a larger --n" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "check, sigmas_off",
    [("prop1", None), ("prop2", 0.0), ("prop4", None), ("centroid-manifold", None),
     ("transfer-ratio", None)],
)
def test_geometry_report_is_standard_json(check, sigmas_off, capsys):
    # One sample gives zero standard errors: an estimate off target is an
    # undefined number of standard errors away, written as null.
    main(["geometry", "--check", check, "--n", "1", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["sigmas_off"] == sigmas_off


@pytest.mark.parametrize("n, seed", [(20_000, 0), (1, 1)])
def test_centroid_manifold_reports_its_worst_entry(n, seed, capsys):
    # the entry with the most standard errors off eta; one sample gives zero errors
    main(["geometry", "--check", "centroid-manifold", "--n", str(n), "--seed", str(seed)])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["target"] == 0.0 and np.isfinite(doc["estimate"]) and doc["estimate"] > 0.0
    if n == 1:
        assert doc["std_error"] == 0.0 and doc["sigmas_off"] is None and doc["pass"] is False
    else:
        assert doc["sigmas_off"] == pytest.approx(doc["estimate"] / doc["std_error"], rel=1e-12)
        assert doc["pass"] is (doc["sigmas_off"] <= 4.0)


# centroid-opt and centroid-prior refuse a run that accepts no sample
_REPORTING_RUNS = {"centroid-opt": ["--n", "20000", "--seed", "3"],
                   "centroid-prior": ["--n", "20000", "--seed", "3"]}


@pytest.mark.parametrize("check", sorted(GEOMETRY_CHECKS))
def test_every_geometry_check_writes_the_six_keys(check, tmp_path, capsys):
    argv = ["geometry", "--check", check, *_REPORTING_RUNS.get(check, ["--n", "1", "--seed", "1"])]
    main(argv)
    stdout = capsys.readouterr().out
    doc = json.loads(stdout, parse_constant=_reject_constant)
    assert sorted(doc) == sorted(["check", "estimate", "std_error", "target", "sigmas_off", "pass"])
    main([*argv, "--out", str(tmp_path / "report.json")])
    assert (tmp_path / "report.json").read_text() == stdout


def test_gridworld_build_and_render(tmp_path, capsys):
    spec = {"width": 2, "height": 2, "initial_cell": [0, 0], "gamma": 0.5,
            "blocked_cells": [[1, 1]]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gridworld", "build", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "mdp.json").exists()
    assert (tmp_path / "constraint.json").exists()
    mdp_doc = json.loads((tmp_path / "mdp.json").read_text())
    assert mdp_doc["num_states"] == 4 and mdp_doc["num_actions"] == 5

    policy = PolicyTable.from_actions([4, 4, 4, 4], 5)
    save_policy(policy, tmp_path / "pi.json")
    out_svg = tmp_path / "render.svg"
    assert main([
        "render", "--spec", str(spec_path), "--policy", str(tmp_path / "pi.json"),
        "--out", str(out_svg),
    ]) == 0
    assert out_svg.read_text().startswith("<?xml")


MALFORMED_SPEC = {"height": 2, "initial_cell": [0, 0], "gamma": 0.5}  # no "width"
MALFORMED_MDP = {"num_states": "x", "num_actions": 2, "initial_state": 0,
                 "transitions": [[[1.0], [1.0]]], "gamma": 0.5}
GRID_3X3 = {"width": 3, "height": 3, "initial_cell": [0, 0], "gamma": 0.5}
GRID_3X1 = {"width": 3, "height": 1, "initial_cell": [0, 0], "gamma": 0.5}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIG2C = json.loads((CONFIGS / "fig2c.json").read_text())
SCENARIO = {**FIG2C, "gridworld": {**FIG2C["gridworld"],
                                   "expert_policy_file": str(CONFIGS / "expert_right_stop.json")}}


@pytest.mark.parametrize(
    "name, content, command",
    [
        ("s.json", json.dumps(MALFORMED_SPEC), ["gridworld", "build", "--spec", "{path}", "--out-dir", "{dir}"]),
        ("s.json", json.dumps(MALFORMED_SPEC), ["render", "--spec", "{path}", "--out", "{dir}/g.svg"]),
        ("absent.json", None, ["gridworld", "build", "--spec", "{path}", "--out-dir", "{dir}"]),
        ("absent.json", None, ["render", "--spec", "{path}", "--out", "{dir}/g.svg"]),
        ("absent.json", None, ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("t.jsonl", '{"states": 5, "actions": 3}\n',
         ["estimate", "--model", "opt", "--data", "{path}", "--num-states", "2", "--num-actions", "2"]),
        # non-integer indices are errors, not truncated to 1
        ("t.jsonl", '{"states": [0, 1.7], "actions": [0, 0]}\n',
         ["estimate", "--model", "opt", "--data", "{path}", "--num-states", "2", "--num-actions", "2"]),
        ("t.jsonl", '{"states": [0, 1], "actions": [0, true]}\n',
         ["estimate", "--model", "opt", "--data", "{path}", "--num-states", "2", "--num-actions", "2"]),
        ("m.json", json.dumps(MALFORMED_MDP), ["plan", "--mdp", "{path}", "--reward", "{path}"]),
        ("c.json", json.dumps({"width": 2}), ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "model": {"lambda": 1.0}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "estimator": {"n": 10}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "estimator": 5}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "outputs": 5}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        # unknown keys are errors, not silently ignored
        ("c.json", json.dumps({**SCENARIO, "planer": "mimic"}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "estimator": {"n": 1, "h": 100, "count_all": True}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "constraint": None}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "target": {"gama": 0.5}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "model": {"kind": "opt", "lambda": 2.0}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "model": {"kind": "mce", "lambda": False}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "model": {"kind": "birl", "beta": "1.0"}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "seeds": {"simulat": 3}}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", json.dumps({**SCENARIO, "outputs": ["policy_svgg"]}),
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("s.json", json.dumps({**MALFORMED_SPEC, "width": 2, "blocked": [[1, 1]]}),
         ["gridworld", "build", "--spec", "{path}", "--out-dir", "{dir}"]),
        # tables of 4 states, or of 4 actions, for the 9-state, 5-action grid of grid3.json
        ("p.json", json.dumps({"probs": [[0.0, 0.0, 0.0, 0.0, 1.0]] * 4}),
         ["render", "--spec", "{dir}/grid3.json", "--policy", "{path}", "--out", "{dir}/g.svg"]),
        ("o.json", json.dumps({"d": [[1 / 36] * 4] * 9}),
         ["render", "--spec", "{dir}/grid3.json", "--occupancy", "{path}", "--out", "{dir}/g.svg"]),
    ],
)
def test_malformed_input_file_is_a_domain_error(tmp_path, capsys, name, content, command):
    (tmp_path / "grid3.json").write_text(json.dumps(GRID_3X3))
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    argv = [arg.format(path=path, dir=tmp_path) for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert "Traceback" not in err


CHAIN_MDP = {"num_states": 2, "num_actions": 2, "initial_state": 0, "gamma": 0.5,
             "transitions": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]}


@pytest.mark.parametrize(
    "name, content, command",
    [
        ("s.json", {**GRID_3X1, "width": 3.9}, ["gridworld", "build", "--spec", "{path}", "--out-dir", "{dir}"]),
        ("s.json", {**GRID_3X1, "height": True}, ["render", "--spec", "{path}", "--out", "{dir}/g.svg"]),
        ("m.json", {**CHAIN_MDP, "num_states": 2.0}, ["simulate", "--mdp", "{path}", "--policy", "{dir}/expert.json",
                                                      "--n", "2", "--h", "2", "--out", "{dir}/t.jsonl"]),
        ("m.json", {**CHAIN_MDP, "num_actions": 2.5}, ["simulate", "--mdp", "{path}", "--policy", "{dir}/expert.json",
                                                       "--n", "2", "--h", "2", "--out", "{dir}/t.jsonl"]),
        ("m.json", {**CHAIN_MDP, "initial_state": False}, ["simulate", "--mdp", "{path}", "--policy",
                                                           "{dir}/expert.json", "--n", "2", "--h", "2",
                                                           "--out", "{dir}/t.jsonl"]),
        ("c.json", {**SCENARIO, "estimator": {"n": 10.5, "h": 5}},
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", {**SCENARIO, "estimator": {"n": 10, "h": 5.0}},
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
        ("c.json", {**SCENARIO, "seeds": {"simulate": 1.5}},
         ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]),
    ],
)
def test_non_integer_count_is_a_domain_error(chain_files, capsys, name, content, command):
    # 3.9, 2.0 and true are errors, not read as 3, 2 and 1
    path = chain_files / name
    path.write_text(json.dumps(content))
    assert main([arg.format(path=path, dir=chain_files) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "must be an integer" in err
    assert "Traceback" not in err


SIMULATE = ["simulate", "--mdp", "{path}", "--policy", "{dir}/expert.json", "--n", "2", "--h", "2",
            "--out", "{dir}/t.jsonl"]
RUN = ["gridworld", "run", "--config", "{path}", "--out-dir", "{dir}"]


@pytest.mark.parametrize(
    "name, content, command",
    [
        ("s.json", {**GRID_3X1, "gamma": False}, ["gridworld", "build", "--spec", "{path}", "--out-dir", "{dir}"]),
        ("s.json", {**GRID_3X1, "gamma": "0.5"}, ["render", "--spec", "{path}", "--out", "{dir}/g.svg"]),
        ("m.json", {**CHAIN_MDP, "gamma": None}, SIMULATE),
        ("m.json", {**CHAIN_MDP, "gamma": True}, SIMULATE),
        ("c.json", {**SCENARIO, "model": "mce", "estimator": {"n": 10, "h": 5, "pi_min_prime": None}}, RUN),
        ("k.json", {"cost": [[0.0, 1.0], [0.0, 0.0]], "budget": True},
         ["plan", "--mdp", "{dir}/mdp.json", "--reward", "{dir}/r.json", "--constraint", "{path}"]),
    ],
)
def test_non_number_float_field_is_a_domain_error(chain_files, capsys, name, content, command):
    # false, true, "0.5" and null are errors, not read as 0.0, 1.0 and 0.5
    save_reward(RewardTable(np.eye(2)), chain_files / "r.json")
    path = chain_files / name
    path.write_text(json.dumps(content))
    assert main([arg.format(path=path, dir=chain_files) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "must be a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cells", [{"initial_cell": [0.5, 0]}, {"initial_cell": [1.0, 0]}, {"blocked_cells": [[1.0, 0]]}]
)
def test_grid_spec_cells_must_be_json_integers(tmp_path, capsys, cells):
    # 0.5 and 1.0 are errors, not written into mdp.json as the initial state
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**GRID_3X1, **cells}))
    assert main(["gridworld", "build", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_path}: ") and "must be a list of integers" in err
    assert "Traceback" not in err
    assert not (tmp_path / "mdp.json").exists()


ESTIMATE_OPT = ["estimate", "--model", "opt", "--num-states", "2", "--num-actions", "2", "--data"]


@pytest.mark.parametrize(
    "content, message",
    [("", "no trajectories"),
     ('{"states": [0, 1], "actions": [1, 0]}\n{"states": [0], "actions": [1]}\n', "share one length")],
)
def test_trajectory_file_errors_name_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "t.jsonl"
    path.write_text(content)
    assert main([*ESTIMATE_OPT, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


def test_blank_line_between_trajectories_is_skipped(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"states": [0, 1], "actions": [1, 0]}\n\n{"states": [0, 1], "actions": [1, 0]}\n')
    assert load_trajectories(path).num_trajectories == 2
    assert main([*ESTIMATE_OPT, str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["values"] == [[0.0, 1.0], [1.0, 0.0]]


def test_conversion_error_names_its_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"probs": [[0.5, 0.4], [1.0, 0.0]]}))
    assert main(["centroid", "--model", "mce", "--policy", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "sum to 1" in err
    assert "Traceback" not in err


def test_non_finite_occupancy_is_a_domain_error(tmp_path, capsys):
    (tmp_path / "grid3.json").write_text(json.dumps(GRID_3X3))
    # a bare NaN, as Python's json module writes and reads it
    (tmp_path / "o.json").write_text('{"d": [[NaN, 0.25, 0.25, 0.25, 0.25]' + ", [0, 0, 0, 0, 0]" * 8 + "]}")
    argv = ["render", "--spec", str(tmp_path / "grid3.json"), "--occupancy", str(tmp_path / "o.json"),
            "--out", str(tmp_path / "g.svg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--mdp", "{dir}/mdp.json", "--policy", "{dir}/expert.json",
         "--n", "5", "--h", "2", "--seed", "{seed}", "--out", "{dir}/t.jsonl"],
        ["geometry", "--check", "prop1", "--n", "10", "--seed", "{seed}"],
        ["geometry", "--check", "prop4", "--n", "10", "--seed", "{seed}"],
        # figG4c's best-case planner, with the seed in its scenario config
        ["gridworld", "run", "--config", "{dir}/c.json", "--out-dir", "{dir}"],
    ],
)
def test_seed_outside_philox_key_range_is_a_domain_error(chain_files, capsys, command, seed):
    figg4c = json.loads((CONFIGS / "figG4c.json").read_text())
    config = {**figg4c, "seeds": {"best_case": seed},
              "gridworld": {**figg4c["gridworld"],
                            "expert_policy_file": str(CONFIGS / "expert_right_stop.json")}}
    (chain_files / "c.json").write_text(json.dumps(config))
    assert main([arg.format(dir=chain_files, seed=seed) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must lie in [0, 2**128)" in err
    assert "Traceback" not in err


def test_support_states_must_be_json_integers(chain_files, capsys):
    # 0.7 and true are errors, not read as states 0 and 1
    (chain_files / "sup.json").write_text(json.dumps({"states": [0.7, True]}))
    code = main([
        "centroid", "--model", "opt",
        "--policy", str(chain_files / "expert.json"),
        "--support", str(chain_files / "sup.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a list of integers" in err
    assert "Traceback" not in err


def test_legacy_deterministic_key_on_stochastic_rows_exits_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"probs": [[0.5, 0.5], [0.5, 0.5]], "deterministic": True}))
    assert main(["centroid", "--model", "mce", "--policy", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "one-hot" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, value", [("estimator", "exakt"), ("target", "gamma")])
def test_scenario_section_of_the_wrong_json_type_is_named(tmp_path, capsys, section, value):
    # a string is not read letter by letter as a list of keys
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**SCENARIO, section: value}))
    assert main(["gridworld", "run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section} must be a JSON object" in err
    assert "['a'," not in err and "Traceback" not in err


def test_scenario_outputs_key_is_unknown(tmp_path, capsys):
    # every scenario writes its two SVGs and its report; no key selects them
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**SCENARIO, "outputs": ["policy_svg", "occupancy_svg", "report_json"]}))
    assert main(["gridworld", "run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "unknown scenario key(s) ['outputs']" in err
    assert "Traceback" not in err and not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("flag, right_from_0", [(False, 1), (True, 0)])
def test_gridworld_reversed_flag_is_read_as_a_boolean(tmp_path, flag, right_from_0):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**GRID_3X1, "reversed": flag}))
    assert main(["gridworld", "build", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 0
    transitions = json.loads((tmp_path / "mdp.json").read_text())["transitions"]
    assert np.argmax(transitions[0][1]) == right_from_0  # state 0, action RIGHT


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_gridworld_reversed_flag_of_another_type_is_a_domain_error(tmp_path, capsys, flag):
    # "false" is truthy: reading it with bool() would build a reversed grid
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**GRID_3X1, "reversed": flag}))
    assert main(["gridworld", "build", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "reversed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "mdp.json").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ({**SCENARIO, "planner": "nope"}, "unknown planner 'nope'"),
        ({**SCENARIO, "model": "maxent"}, "unknown behavior model 'maxent'"),
        # the model is its kind alone: a coefficient would only rescale the centroid
        ({**SCENARIO, "model": {"kind": "mce", "lambda": 1.0}}, "unknown behavior model {"),
        ({k: v for k, v in SCENARIO.items() if k != "model"}, "centroid planning needs a behavior model"),
        ({**SCENARIO, "gridworld": {k: v for k, v in SCENARIO["gridworld"].items() if k != "expert_policy_file"}},
         "needs an expert_policy_file"),
    ],
)
def test_scenario_config_errors_name_the_config(tmp_path, capsys, content, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(content))
    assert main(["gridworld", "run", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert "Traceback" not in err


OCCUPANCY_3X3 = [[1 / 45] * 5] * 9


@pytest.mark.parametrize(
    "name, content, command",
    [
        ("m.json", {**CHAIN_MDP, "transitions": [[[1.0, 0.0], [0.0, True]], [[0.0, 1.0], [0.0, 1.0]]]}, SIMULATE),
        ("r.json", {"values": [["0.5", True], [1, 2]]},
         ["plan", "--mdp", "{dir}/mdp.json", "--reward", "{path}"]),
        ("p.json", {"probs": [["0.5", "0.5"], [0.5, 0.5]]}, ["centroid", "--model", "mce", "--policy", "{path}"]),
        ("k.json", {"cost": [[True, False], [False, False]], "budget": 1.0},
         ["plan", "--mdp", "{dir}/mdp.json", "--reward", "{dir}/r0.json", "--constraint", "{path}"]),
        ("o.json", {"d": [[str(1 / 45)] + [1 / 45] * 4] + OCCUPANCY_3X3[1:8] + [[1 / 45] * 4 + [None]]},
         ["render", "--spec", "{dir}/grid3.json", "--occupancy", "{path}", "--out", "{dir}/g.svg"]),
    ],
)
def test_table_entries_must_be_json_numbers(chain_files, capsys, name, content, command):
    # "0.5", true and null are errors, not read as 0.5, 1.0 and nan
    (chain_files / "grid3.json").write_text(json.dumps(GRID_3X3))
    save_reward(RewardTable(np.eye(2)), chain_files / "r0.json")
    path = chain_files / name
    path.write_text(json.dumps(content))
    assert main([arg.format(path=path, dir=chain_files) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "entries must be JSON numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("states", [[250, -3], [9]])
def test_render_support_state_outside_the_grid_is_a_domain_error(tmp_path, capsys, states):
    (tmp_path / "grid3.json").write_text(json.dumps(GRID_3X3))
    save_policy(PolicyTable.from_actions([4] * 9, 5), tmp_path / "pi.json")
    (tmp_path / "sup.json").write_text(json.dumps({"states": states}))
    argv = ["render", "--spec", str(tmp_path / "grid3.json"), "--policy", str(tmp_path / "pi.json"),
            "--support", str(tmp_path / "sup.json"), "--out", str(tmp_path / "g.svg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / "sup.json") in err and "support state out of range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "g.svg").exists()


@pytest.mark.parametrize("name, content, command", [
    ("r.json", {"values": [[10**400, 0.0], [0.0, 1.0]]}, ["plan", "--mdp", "{dir}/mdp.json", "--reward", "{path}"]),
    ("m.json", {**CHAIN_MDP, "gamma": 10**400}, SIMULATE),
])
def test_integer_too_large_for_a_float_is_a_domain_error(chain_files, capsys, name, content, command):
    path = chain_files / name
    path.write_text(json.dumps(content))
    assert main([arg.format(path=path, dir=chain_files) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: OverflowError") and "Traceback" not in err


@pytest.mark.parametrize("inputs, command, message", [
    (["expert.json", "bad_support.json"], ["centroid", "--model", "opt", "--policy", "{dir}/expert.json",
                                           "--support", "{dir}/bad_support.json"], "support state out of range"),
    (["mdp.json", "r3.json"], ["plan", "--mdp", "{dir}/mdp.json", "--reward", "{dir}/r3.json"],
     "reward has shape (3, 2), expected (2, 2)"),
    (["mdp.json", "expert.json", "mdp3.json"], ["mimic", "--source-mdp", "{dir}/mdp.json", "--policy",
                                                "{dir}/expert.json", "--target-mdp", "{dir}/mdp3.json"],
     "source and target MDPs must share state/action spaces"),
    (["mdp3.json", "expert.json"], ["simulate", "--mdp", "{dir}/mdp3.json", "--policy", "{dir}/expert.json",
                                    "--n", "2", "--h", "2", "--out", "{dir}/t.jsonl"],
     "expert has shape (2, 2), expected (3, 2)"),
    (["t3.jsonl"], ["estimate", "--model", "opt", "--data", "{dir}/t3.jsonl", "--num-states", "2",
                    "--num-actions", "2"], "trajectory index out of range for the given dims"),
])
def test_mismatched_inputs_name_their_files(chain_files, capsys, inputs, command, message):
    p = np.zeros((3, 2, 3))
    p[:, :, 0] = 1.0
    save_mdp(TabularMdp(3, 2, 0, p, 0.5), chain_files / "mdp3.json")
    save_reward(RewardTable(np.zeros((3, 2))), chain_files / "r3.json")
    (chain_files / "bad_support.json").write_text(json.dumps({"states": [0, 5]}))
    (chain_files / "t3.jsonl").write_text('{"states": [0, 2], "actions": [0, 0]}\n')
    assert main([arg.format(dir=chain_files) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    for name in inputs:
        assert str(chain_files / name) in err


def test_grid_over_the_size_limit_is_an_error_line(tmp_path, capsys):
    # its transition table would take 302 GiB
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**GRID_3X1, "width": 300, "height": 300}))
    assert main(["gridworld", "build", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a 300x300 grid needs a ") and "Traceback" not in err
    assert not (tmp_path / "mdp.json").exists()


def test_lp_over_the_size_limit_is_an_error_line(tmp_path, capsys, monkeypatch):
    (source, expert, target, _), size = fig2b_mimic()
    paths = [tmp_path / name for name in ("source.json", "expert.json", "target.json")]
    save_mdp(source, paths[0])
    save_policy(expert, paths[1])
    save_mdp(target, paths[2])
    monkeypatch.setattr(planning, "MAX_LP_BYTES", size - 1)
    argv = ["mimic", "--source-mdp", str(paths[0]), "--policy", str(paths[1]), "--target-mdp", str(paths[2])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[0]}, {paths[1]}, {paths[2]}: an occupancy LP of 106 rows")
    assert "Traceback" not in err


ESTIMATE_MCE = ["estimate", "--model", "mce", "--data", "{dir}/t.jsonl", "--num-states", "2", "--num-actions", "2"]
SIMULATE_CHAIN = ["simulate", "--mdp", "{dir}/mdp.json", "--policy", "{dir}/expert.json",
                  "--n", "2", "--h", "2", "--out", "{dir}/t2.jsonl"]
GEOMETRY_PROP1 = ["geometry", "--check", "prop1", "--n", "10", "--out", "{dir}/t2.jsonl"]
GEOMETRY_PROP2 = ["geometry", "--check", "prop2", "--out", "{dir}/t2.jsonl"]  # reads neither flag


@pytest.mark.parametrize("command, flag, value, message", [
    (ESTIMATE_MCE, "--pi-min-prime", "2", "--pi-min-prime must lie in (0, 1)"),
    (ESTIMATE_MCE, "--num-states", "0", "--num-states and --num-actions must be >= 1"),
    (ESTIMATE_MCE, "--num-actions", "0", "--num-states and --num-actions must be >= 1"),
    (SIMULATE_CHAIN, "--n", "0", "--n and --h must be >= 1"),
    (SIMULATE_CHAIN, "--h", "0", "--n and --h must be >= 1"),
    (SIMULATE_CHAIN, "--n", "100000000", "100,000,000 trajectories of 2 steps (--n, --h) need "
     "3,815 MiB of trajectory buffers, over the 512 MiB limit"),
    (SIMULATE_CHAIN, "--seed", "-1", "--seed must lie in [0, 2**128)"),
    (GEOMETRY_PROP1, "--n", "0", "--n must be >= 1"),
    (GEOMETRY_PROP1, "--seed", "-1", "--seed must lie in [0, 2**128)"),
    (GEOMETRY_PROP2, "--n", "0", "--n must be >= 1"),
    (GEOMETRY_PROP2, "--seed", "-1", "--seed must lie in [0, 2**128)"),
], ids=["pi-min-prime", "num-states", "num-actions", "n", "h", "rollout-size", "seed",
        "geometry-prop1-n", "geometry-prop1-seed", "geometry-prop2-n", "geometry-prop2-seed"])
def test_flag_errors_name_the_flag_not_an_input_file(chain_files, capsys, command, flag, value, message):
    (chain_files / "t.jsonl").write_text('{"states": [0, 1], "actions": [1, 0]}\n')
    # the flag given last wins
    assert main([*(arg.format(dir=chain_files) for arg in command), flag, value]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (chain_files / "t2.jsonl").exists()


@pytest.mark.parametrize("command", [
    ["centroid", "--model", "opt", "--policy", "{dir}/expert.json", "--support", "{dir}/support.json",
     "--lambda", "2"],
    ["estimate", "--model", "birl", "--data", "{dir}/t.jsonl", "--num-states", "2", "--num-actions", "2",
     "--beta", "1"],
], ids=["centroid-lambda", "estimate-beta"])
def test_model_coefficient_flags_are_usage_errors(chain_files, capsys, command):
    # a coefficient only rescales the centroid, so the programs take the model's kind alone
    (chain_files / "t.jsonl").write_text('{"states": [0, 1], "actions": [1, 0]}\n')
    assert main([arg.format(dir=chain_files) for arg in command]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_non_finite_constraint_budget_is_a_domain_error(chain_files, capsys, budget):
    save_reward(RewardTable(np.eye(2)), chain_files / "r.json")
    path = chain_files / "c.json"
    path.write_text(json.dumps({"cost": [[0.0, 1.0], [0.0, 0.0]], "budget": budget}))
    argv = ["plan", "--mdp", str(chain_files / "mdp.json"), "--reward", str(chain_files / "r.json"),
            "--constraint", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: budget must be finite and nonnegative, not {budget!r}\n"
