import json

import numpy as np
import pytest

from rewardcentroids.errors import DomainError, SolverError
from rewardcentroids.mdp import PolicyTable
from rewardcentroids.serialization import _reading, load_policy, policy_to_dict, save_policy, write_report


def report_bytes(tmp_path, doc) -> bytes:
    path = tmp_path / "report.json"
    write_report(doc, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "a, b",
    [
        (2.200415090277102e-19, 2.2004150902771023e-19),
        (0.789999999999982, 0.7900000000000003),
    ],
)
def test_round_off_neighbours_write_identical_bytes(tmp_path, a, b):
    assert report_bytes(tmp_path, {"value": a}) == report_bytes(tmp_path, {"value": b})


def test_zero_noise_and_negative_zero_write_as_zero(tmp_path):
    doc = {"mass": 2.2004150902771023e-19, "neg": -0.0, "tiny_neg": -3e-17}
    text = report_bytes(tmp_path, doc).decode()
    assert json.loads(text) == {"mass": 0.0, "neg": 0.0, "tiny_neg": 0.0}
    assert "-0.0" not in text


def test_numpy_floats_are_rounded(tmp_path):
    doc = {"value": np.float64(0.9964705882353125)}
    assert json.loads(report_bytes(tmp_path, doc)) == {"value": 0.9964705882}


def test_non_floats_survive_unchanged(tmp_path):
    doc = {
        "model": None,
        "name": "fig2b",
        "support_size": 6,
        "flag": True,
        "svg_paths": ["fig2b_policy.svg", "fig2b_occupancy.svg"],
        "nested": [[1, None, "x"], {"k": [2, 3]}],
    }
    assert json.loads(report_bytes(tmp_path, doc)) == doc


def test_floats_nested_in_lists_are_rounded(tmp_path):
    doc = {"rows": [[0.7149999999999965, 7], {"v": -65.20619447212795}]}
    assert json.loads(report_bytes(tmp_path, doc)) == {
        "rows": [[0.715, 7], {"v": -65.2061944721}]
    }


def write_policy_doc(tmp_path, doc):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    return path


def test_policy_files_carry_no_determinism_flag(tmp_path):
    save_policy(PolicyTable.from_actions([1, 0], 2), tmp_path / "p.json")
    assert json.loads((tmp_path / "p.json").read_text()) == {"probs": [[0.0, 1.0], [1.0, 0.0]]}
    assert policy_to_dict(PolicyTable([[0.5, 0.5]])) == {"probs": [[0.5, 0.5]]}


def test_legacy_deterministic_key_on_stochastic_rows_is_rejected(tmp_path):
    path = write_policy_doc(tmp_path, {"probs": [[1.0, 0.0], [0.5, 0.5]], "deterministic": True})
    with pytest.raises(DomainError, match="one-hot"):
        load_policy(path)


@pytest.mark.parametrize("flag", [False, True])
def test_one_hot_rows_load_as_deterministic_whatever_the_legacy_key(tmp_path, flag):
    path = write_policy_doc(tmp_path, {"probs": [[0.0, 1.0], [1.0, 0.0]], "deterministic": flag})
    policy = load_policy(path)
    assert policy.deterministic_rows().all()
    assert np.array_equal(policy.probs, PolicyTable.from_actions([1, 0], 2).probs)


def test_reading_names_the_file_and_keeps_the_error_type(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(SolverError) as info:
        with _reading(path):
            raise SolverError("simplex iteration limit exceeded")
    assert str(info.value) == f"{path}: simplex iteration limit exceeded"
