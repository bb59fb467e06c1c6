"""File formats: graph and stream CSV, trajectory and sweep CSV, experiment JSON.

Graph files: first line `n=<nodes>`, then one `i,j,w` row per revealed pair
with 0-based i < j and w in {-1, +1}; absent pairs are 0. A stream file is a
graph file with a leading timestep column, `t,i,j,w`, so one parser and one
writer serve both: a graph file reads as a stream whose rows all sit at
t = 0. Writers emit rows in sorted order so write -> read -> write is
byte-identical.
"""

import contextlib
import json
import math
import operator
from collections import namedtuple

import numpy as np

from .model import (
    CbmParams, ChangeScenario, TernaryGraph, check_n, n_pairs, pair_indices, pair_pos,
    parse_labels, validate_labels,
)


def _parse_header(line, lineno, path):
    text = line.strip().lstrip("#").strip()
    if not text.startswith("n="):
        raise ValueError(f"{path}:{lineno}: expected header 'n=<nodes>', got {line!r}")
    try:
        n = int(text[2:])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad node count in header {line!r}") from exc
    if n < 2:
        raise ValueError(f"{path}:{lineno}: need n >= 2, got {n}")
    return n


def _parse_fields(line, lineno, path, count):
    parts = line.split(",")
    if len(parts) != count:
        raise ValueError(
            f"{path}:{lineno}: expected {count} comma-separated fields, got {line!r}"
        )
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: non-integer field in {line!r}") from exc


def _check_entry(i, j, w, n, lineno, path):
    if not 0 <= i < j < n:
        raise ValueError(f"{path}:{lineno}: pair ({i},{j}) invalid for n={n}")
    if w not in (-1, 1):
        raise ValueError(f"{path}:{lineno}: weight must be -1 or +1, got {w}")


def _read_rows(path, fields):
    """(n, {t: upper}) from a graph file (3 fields, t = 0) or a stream file (4 fields)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected an n= header")
    n = _parse_header(lines[0], 1, path)
    uppers: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row = _parse_fields(line, lineno, path, fields)
        t, i, j, w = row if fields == 4 else (0, *row)
        _check_entry(i, j, w, n, lineno, path)
        if t < 0:
            raise ValueError(f"{path}:{lineno}: timestep must be >= 0, got {t}")
        upper = uppers.get(t)
        if upper is None:
            upper = uppers[t] = np.zeros(n_pairs(n), dtype=np.int8)
        pos = pair_pos(i, j, n)
        # a written weight is never 0, so a nonzero slot means a repeated row
        if upper[pos]:
            at = f" at t={t}" if fields == 4 else ""
            raise ValueError(f"{path}:{lineno}: duplicate pair ({i},{j}){at}")
        upper[pos] = w
    return n, uppers


def _write_rows(path, n, timed_graphs):
    """Header, then one `t,i,j,w` row per revealed pair; t is left out when None."""
    i_idx, j_idx = pair_indices(n)
    with open(path, "w") as fh:
        fh.write(f"n={n}\n")
        for t, g in timed_graphs:
            lead = "" if t is None else f"{t},"
            nz = np.flatnonzero(g.upper)
            for i, j, w in zip(i_idx[nz].tolist(), j_idx[nz].tolist(), g.upper[nz].tolist()):
                fh.write(f"{lead}{i},{j},{w}\n")


def write_graph_csv(graph, path):
    _write_rows(path, graph.n, [(None, graph)])


def read_graph_csv(path):
    n, uppers = _read_rows(path, 3)
    return TernaryGraph(n, uppers[0]) if uppers else TernaryGraph.zero(n)


def write_stream_csv(graphs, path, times=None):
    """Write a graph sequence; times, distinct integers >= 0, defaults to 1, 2, ...

    ingest_stream merges rows that share a timestep and refuses a negative
    or non-integer one, and the format has no row for a graph with no
    revealed pair, whose timestep would read back as absent; such times and
    graphs raise here instead.
    """
    graphs = list(graphs)
    if times is None:
        times = list(range(1, len(graphs) + 1))
    try:
        times = [operator.index(t) for t in times]
    except TypeError as exc:
        raise ValueError(f"times must be integers: {exc}") from exc
    if len(times) != len(graphs):
        raise ValueError("times and graphs must have equal length")
    if any(t < 0 for t in times):
        raise ValueError(f"times must be >= 0, got {min(times)}")
    if len(set(times)) < len(times):
        raise ValueError("times must be distinct")
    if not graphs:
        raise ValueError("need at least one graph to fix n in the header")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("stream graphs must share n")
    empty = [t for t, g in zip(times, graphs) if not g.upper.any()]
    if empty:
        raise ValueError(f"graph at time {empty[0]} has no revealed pair and would not round-trip")
    _write_rows(path, n, sorted(zip(times, graphs), key=lambda tg: tg[0]))


def ingest_stream(path):
    """Graphs in ascending timestep order from a `t,i,j,w` file.

    One graph per timestep value that appears; pairs absent from a timestep
    are 0. A header-only file yields an empty list. Malformed rows,
    out-of-range pairs, weights outside {-1, +1}, and duplicate (t, i, j)
    rows raise with the offending line number.
    """
    n, uppers = _read_rows(path, 4)
    return [TernaryGraph(n, uppers[t]) for t in sorted(uppers)]


TRAJECTORY_HEADER = "t,stat,noisy_stat,stopped,hamming_est_vs_post"


def write_trajectory_csv(rows, path):
    """Rows: dicts with t, stat, noisy_stat (None -> stat), stopped, hamming."""
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for row in rows:
            noisy = row["noisy_stat"]
            if noisy is None:
                noisy = row["stat"]
            fh.write(
                f"{row['t']},{row['stat']:.12g},{noisy:.12g},"
                f"{int(row['stopped'])},{row['hamming_est_vs_post']}\n"
            )


def write_sweep_csv(rows, path):
    """One line per `harness.one_shot_sweep` row, under a header of its keys.

    Columns: n, p, zeta, epsilon, reps, sdp_err, spectral_err, sdp_exact,
    spectral_exact, boundary_a, eps_at_least_log_n. Numbers are written to
    10 significant digits and the flag as 0 or 1.
    """
    cols = (
        "n", "p", "zeta", "epsilon", "reps", "sdp_err", "spectral_err",
        "sdp_exact", "spectral_exact", "boundary_a", "eps_at_least_log_n",
    )
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[c]:.10g}" for c in cols) + "\n")


# a JSON object's key: the type groups its value may take, whether it is required, its least
Key = namedtuple("Key", ["types", "required", "least"], defaults=(False, None))


class Table(dict):
    """key -> Key for one JSON object, with its required keys precomputed."""

    def __init__(self, **keys):
        super().__init__(keys)
        self.required = frozenset(key for key, rule in keys.items() if rule.required)


# concrete classes: an isinstance on a numbers ABC costs ~0.5 us, and every trial reads a table
INT, REAL, NULL = (int, np.integer), (float, int, np.floating, np.integer), type(None)
_TYPE_NAMES = {
    INT: "an int", REAL: "a number", str: "a string", list: "a list", dict: "an object",
    NULL: "null",
}


def checked(name, payload, table):
    """payload, if table reads it in full; else a ValueError naming name and the offending key."""
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be an object, got {payload!r}")
    if not table.required <= payload.keys() <= table.keys():
        missing, unread = table.required - payload.keys(), payload.keys() - table.keys()
        raise ValueError(
            f"{name}: missing {sorted(missing)}, unread {sorted(unread)} (it reads {sorted(table)})"
        )
    for key, value in payload.items():
        types, _, least = table[key]
        if isinstance(value, bool) or not isinstance(value, types):
            what = " or ".join(_TYPE_NAMES[t] for t in types)
            raise ValueError(f"{name}: {key} must be {what}, got {value!r}")
        if least is not None and value is not None and value < least:
            raise ValueError(f"{name}: {key} must be >= {least}, got {value!r}")
    return payload


# The experiment file's tables (README lists them). Other ranges, and defaults, live where
# the value is used: CbmParams, ChangeScenario, DetectorConfig, PrivacyBudget and harness.
_COUNT, _HORIZON = Key((INT,), least=1), Key((INT, NULL), least=1)
COUNTS = Table(trials=_COUNT, truncation=_HORIZON, parallelism=_COUNT)
EXPERIMENT = Table(
    scenario=Key((dict,), required=True), detector=Key((dict,)), trials=_COUNT, truncation=_HORIZON
)
SCENARIO = Table(
    n=Key((INT,), required=True), zeta=Key((REAL,), required=True), a=Key((REAL, NULL)),
    p=Key((REAL, NULL)), pre=Key((str,), required=True), post=Key((str, dict), required=True),
    nu=Key((INT, str)), post_params=Key((dict, NULL)),
)
POST_PARAMS = Table(zeta=Key((REAL,)), a=Key((REAL, NULL)), p=Key((REAL, NULL)))
FLIP = Table(flip=Key((list,), required=True))
_KIND, _NUMBER, _NAME = Key((str,), required=True), Key((REAL,), required=True), Key((str,))
LDP_DESCRIPTOR = Table(kind=_KIND, b=_NUMBER, epsilon=_NUMBER, estimator=_NAME, window=Key((INT,)))
CDP_DESCRIPTOR = Table(
    kind=_KIND, b=_NUMBER, epsilon=_NUMBER, delta=Key((REAL,)), release=_NAME,
    release_estimator=_NAME, distance_cap=Key((INT, NULL), least=0),
    max_subgraphs=Key((INT, NULL), least=1),
)


def labels_from_config(value, n=None, base=None):
    """Labels from a spec: 'balanced' (needs n), a +- string, or {'flip': [...]} (needs base).

    A flip list names distinct node indices in [0, n) of base; anything else
    raises ValueError rather than wrapping, cancelling or crashing.
    """
    if isinstance(value, str):
        if value == "balanced":
            if n is None:
                raise ValueError("balanced labels need n")
            half = (n + 1) // 2
            return np.array([1] * half + [-1] * (n - half), dtype=np.int8)
        return parse_labels(value)
    if isinstance(value, dict):
        if base is None:
            raise ValueError("flip specification needs pre labels")
        flips, size = checked("flip spec", value, FLIP)["flip"], len(base)
        valid = all(type(i) is int and 0 <= i < size for i in flips)
        if not valid or len(set(flips)) != len(flips):
            raise ValueError(f"flip needs distinct node indices in [0, {size}), got {flips!r}")
        out = base.copy()
        out[flips] = -out[flips]
        return out
    raise ValueError(f"cannot interpret labels spec {value!r}")


def params_from_config(n, zeta, a=None, p=None):
    """CbmParams from exactly one of a (p = a ln(n)/n) and p; both or neither raise ValueError.

    An a whose p is not a probability is refused by name, not by the p it gives.
    """
    if (a is None) == (p is None):
        raise ValueError(f"give exactly one of a or p, got a={a!r} and p={p!r}")
    if a is not None:
        p = a * math.log(check_n(n)) / n
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"a={a!r} puts p = a ln(n)/n = {p:.4g} outside [0, 1]")
    return CbmParams(n=n, p=p, zeta=zeta)


def scenario_from_config(payload):
    """A ChangeScenario from a scenario object, which the SCENARIO table reads (see README)."""
    return _scenario(**checked("scenario", payload, SCENARIO))


@contextlib.contextmanager
def _naming(key):
    """Re-raise a ValueError from the block with key in front, so a refusal says what to fix."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _scenario(n, zeta, pre, post, nu=1, a=None, p=None, post_params=None):
    with _naming("scenario"):
        params_pre = params_post = params_from_config(n, zeta, a, p)
    if post_params is not None:
        given = checked("post_params", post_params, POST_PARAMS)
        with _naming("post_params"):
            params_post = params_from_config(n, **{"zeta": zeta, **given})
    with _naming("scenario.pre"):
        pre = validate_labels(labels_from_config(pre, n=n), n)
    with _naming("scenario.post"):
        post = validate_labels(labels_from_config(post, n=n, base=pre), n)
    nu = math.inf if nu == "inf" else nu
    return ChangeScenario(
        pre=pre, post=post, nu=nu, params_pre=params_pre, params_post=params_post
    )


def load_experiment_json(path):
    """The experiment file's object, once the EXPERIMENT table has read its top level."""
    with open(path) as fh:
        return checked("experiment file", json.load(fh), EXPERIMENT)
