import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbmdetect.io import (
    TRAJECTORY_HEADER,
    ingest_stream,
    labels_from_config,
    load_experiment_json,
    read_graph_csv,
    scenario_from_config,
    write_graph_csv,
    write_stream_csv,
    write_trajectory_csv,
)
from cbmdetect.model import TernaryGraph, n_pairs


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    upper = draw(
        st.lists(st.sampled_from((-1, 0, 1)), min_size=n_pairs(n), max_size=n_pairs(n))
    )
    return TernaryGraph(n, np.array(upper, dtype=np.int8))


@given(graphs())
def test_graph_round_trip(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("io") / "g.csv"
    write_graph_csv(graph, path)
    assert read_graph_csv(path) == graph
    # rewriting what was read is byte-identical
    first = path.read_bytes()
    write_graph_csv(read_graph_csv(path), path)
    assert path.read_bytes() == first


def test_read_graph_rejects_malformed(tmp_path):
    cases = {
        "empty": "",
        "no_header": "0,1,1\n",
        "bad_n": "n=x\n",
        "small_n": "n=1\n",
        "bad_fields": "n=3\n0,1\n",
        "non_int": "n=3\n0,1,a\n",
        "bad_pair": "n=3\n1,0,1\n",
        "out_of_range": "n=3\n0,3,1\n",
        "zero_weight": "n=3\n0,1,0\n",
        "duplicate": "n=3\n0,1,1\n0,1,-1\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_graph_csv(path)


def test_stream_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    graphs = [TernaryGraph(4, rng.integers(-1, 2, size=6).astype(np.int8)) for _ in range(3)]
    path = tmp_path / "stream.csv"
    write_stream_csv(graphs, path)
    back = ingest_stream(path)
    assert len(back) == 3
    assert all(a == b for a, b in zip(back, graphs))


def test_stream_respects_explicit_times(tmp_path):
    g1 = TernaryGraph(3, np.array([1, 0, 0], dtype=np.int8))
    g2 = TernaryGraph(3, np.array([0, -1, 0], dtype=np.int8))
    path = tmp_path / "stream.csv"
    write_stream_csv([g2, g1], path, times=[7, 2])
    back = ingest_stream(path)
    assert back == [g1, g2]  # ascending time order


def test_stream_header_only(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("n=5\n")
    assert ingest_stream(path) == []


def test_stream_rejects_duplicates_and_bad_rows(tmp_path):
    for text in (
        "n=3\n1,0,1,1\n1,0,1,-1\n",
        "n=3\n-1,0,1,1\n",
        "n=3\n1,0,1\n",
    ):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            ingest_stream(path)


def test_write_stream_validation(tmp_path):
    g = TernaryGraph(3, np.array([1, 0, 0], dtype=np.int8))
    with pytest.raises(ValueError):
        write_stream_csv([], tmp_path / "s.csv")
    with pytest.raises(ValueError):
        write_stream_csv([g], tmp_path / "s.csv", times=[1, 2])
    with pytest.raises(ValueError):
        write_stream_csv([g, TernaryGraph.zero(4)], tmp_path / "s.csv")
    # graphs are checked before the file is opened: no truncated file is left
    assert not (tmp_path / "s.csv").exists()


def test_trajectory_csv(tmp_path):
    rows = [
        {"t": 1, "stat": 0.5, "noisy_stat": 0.4, "stopped": False, "hamming_est_vs_post": 2},
        {"t": 2, "stat": 1.5, "noisy_stat": None, "stopped": True, "hamming_est_vs_post": 0},
    ]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert lines[1] == "1,0.5,0.4,0,2"
    assert lines[2] == "2,1.5,1.5,1,0"  # missing noise falls back to the statistic


def test_scenario_from_config_balanced_flip():
    payload = {
        "n": 6,
        "a": 2.0,
        "zeta": 0.1,
        "pre": "balanced",
        "post": {"flip": [5]},
        "nu": 4,
    }
    sc = scenario_from_config(payload)
    assert np.array_equal(sc.pre, np.array([1, 1, 1, -1, -1, -1], dtype=np.int8))
    assert np.array_equal(sc.post, np.array([1, 1, 1, -1, -1, 1], dtype=np.int8))
    assert sc.nu == 4
    assert math.isclose(sc.params_pre.p, 2.0 * math.log(6) / 6)
    assert sc.params_post == sc.params_pre


def test_scenario_from_config_strings_and_inf():
    payload = {
        "n": 4,
        "p": 0.5,
        "zeta": 0.2,
        "pre": "++--",
        "post": "+---",
        "nu": "inf",
        "post_params": {"p": 0.7, "zeta": 0.3},
    }
    sc = scenario_from_config(payload)
    assert sc.nu == math.inf
    assert sc.params_post.p == 0.7
    assert sc.params_post.zeta == 0.3


def test_scenario_from_config_rejects_junk():
    base = {"n": 4, "p": 0.5, "zeta": 0.2, "pre": "++--", "post": "+---", "nu": 1}
    with pytest.raises(KeyError):
        scenario_from_config({k: v for k, v in base.items() if k != "zeta"})
    with pytest.raises(ValueError):
        scenario_from_config(dict(base, post={"swap": [1]}))
    with pytest.raises(ValueError):
        scenario_from_config(dict(base, pre="+*--"))


@pytest.mark.parametrize("flip", [[6], [1.5], [-1], [0, 0], 3, [True], "0"])
def test_flip_spec_rejects_bad_indices(flip):
    # out of range, fractional, negative (would wrap), repeated (would cancel), not a list
    base = np.array([1, 1, 1, -1, -1, -1], dtype=np.int8)
    with pytest.raises(ValueError, match="flip"):
        labels_from_config({"flip": flip}, base=base)
    payload = {"n": 6, "p": 0.5, "zeta": 0.2, "pre": "balanced", "post": {"flip": flip}}
    with pytest.raises(ValueError, match="flip"):
        scenario_from_config(payload)


def test_load_experiment_json(tmp_path):
    payload = {"scenario": {"n": 4}, "detector": {"kind": "LDP"}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    assert load_experiment_json(path) == payload
