"""Refusals generated from the input tables, through `cli.main` for detect and simulate.

For every key of every table a file reaches, a wrong type, a count below its
least and a misspelt key must each exit 2 with the key named. The positive
controls give every key of every table, so a table that loses an entry
refuses a control as unread.
"""

import copy
import json
from pathlib import Path

import pytest

from cbmdetect import io
from cbmdetect.cli import main
from cbmdetect.harness import _RUNNERS
from cbmdetect.io import EXPERIMENT, FLIP, POST_PARAMS, SCENARIO

DESCRIPTORS = {
    "LDP": {"kind": "LDP", "b": 1.0, "epsilon": 2.0, "estimator": "spectral", "window": 2},
    "LDP-adaptive": {
        "kind": "LDP-adaptive", "b": 1.0, "epsilon": 2.0, "estimator": "spectral", "window": 1,
    },
    "CDP": {
        "kind": "CDP", "b": 1.0, "epsilon": 2.0, "delta": 0.05, "release": "assumed",
        "release_estimator": "spectral", "distance_cap": 0, "max_subgraphs": 1,
    },
}

# a null p reads as no p, so a is the one given
SCENARIO_FULL = {
    "n": 10, "a": 4.0, "p": None, "zeta": 0.1, "pre": "balanced", "post": {"flip": [0, 1]},
    "nu": 1, "post_params": {"a": 4.0, "p": None, "zeta": 0.2},
}

# one sample of each JSON type; a key is sent each one its table refuses
SAMPLES = [True, 2.5, "2", [2], {"k": 2}, None]


def _full(kind):
    """A file that gives every key of every table it reaches."""
    return {
        "scenario": copy.deepcopy(SCENARIO_FULL),
        "detector": dict(DESCRIPTORS[kind]),
        "trials": 2,
        "truncation": 6,
    }


def _objects(config):
    """name -> (table, the object of config that table reads)."""
    scenario = config["scenario"]
    return {
        "file": (EXPERIMENT, config),
        "scenario": (SCENARIO, scenario),
        "post_params": (POST_PARAMS, scenario["post_params"]),
        "flip": (FLIP, scenario["post"]),
        "detector": (_RUNNERS[config["detector"]["kind"]][1], config["detector"]),
    }


def _refusals():
    for kind in _RUNNERS:
        for where, (table, _) in _objects(_full(kind)).items():
            if where != "detector" and kind != "LDP":
                continue  # the other tables do not depend on the kind
            for key, rule in table.items():
                for value in SAMPLES:
                    if isinstance(value, bool) or not isinstance(value, rule.types):
                        ident = f"{kind}-{key}-{value!r}"
                        yield pytest.param(kind, where, key, "set", value, id=ident)
                if rule.least is not None:
                    below = rule.least - 1
                    yield pytest.param(kind, where, key, "set", below, id=f"{kind}-{key}-{below}")
                yield pytest.param(kind, where, key, "misspell", None, id=f"{kind}-{key}-misspelt")


def _run(tmp_path, config, verb, *flags):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    return main([verb, "--config", str(path), "--seed", "0", *flags])


@pytest.mark.parametrize("kind, where, key, edit, value", list(_refusals()))
def test_every_table_key_refuses_bad_input(tmp_path, capsys, kind, where, key, edit, value):
    config = _full(kind)
    _, obj = _objects(config)[where]
    if edit == "set":
        obj[key] = value
    else:
        obj[key + key[-1]] = obj.pop(key)
    for verb in ("detect", "simulate"):
        assert _run(tmp_path, config, verb) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind", list(_RUNNERS))
def test_a_file_with_every_key_runs(tmp_path, capsys, kind):
    config = _full(kind)
    for table, obj in _objects(config).values():
        assert obj.keys() == table.keys()
    for verb in ("detect", "simulate"):
        assert _run(tmp_path, config, verb) in (0, 1)
    capsys.readouterr()


def test_a_file_without_a_detector_takes_every_key_from_flags(tmp_path, capsys):
    config = _full("LDP")
    config["detector"] = {"kind": "LDP", "b": 1.0, "epsilon": 2.0}
    given = {
        verb: (_run(tmp_path, config, verb), capsys.readouterr().out)
        for verb in ("detect", "simulate")
    }
    config.pop("detector")
    flags = ("--mode", "ldp", "--b", "1.0", "--eps", "2.0")
    for verb, expected in given.items():
        assert (_run(tmp_path, config, verb, *flags), capsys.readouterr().out) == expected


@pytest.mark.parametrize(
    "payload", [[1], 3, "scenario", None], ids=["list", "number", "string", "null"]
)
def test_a_file_that_is_not_an_object_exits_two(tmp_path, capsys, payload):
    for verb in ("detect", "simulate"):
        assert _run(tmp_path, payload, verb) == 2
        assert "experiment file must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["EXPERIMENT", "SCENARIO", "POST_PARAMS", "FLIP", "LDP_DESCRIPTOR", "CDP_DESCRIPTOR"]
)
def test_readme_tables_match_the_code(name):
    # README's table for each object lists its keys with their types, least and required flag
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = text.split(f"(`io.{name}`)", 1)[1].split("\n\n")[1].splitlines()
    rows = {}
    for line in lines[2:]:
        key, kind, bounds, _, required = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = kind, bounds, required
    table = getattr(io, name)
    assert rows.keys() == table.keys()
    for key, (types, required, least) in table.items():
        kind, bounds, given = rows[key]
        words = [io._TYPE_NAMES[t].split()[-1] for t in types]
        assert kind == " or ".join(words), key
        assert (given == "yes") == required, key
        assert least is None or f"≥ {least}" in bounds, key
