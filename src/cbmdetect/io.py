"""File formats: graph and stream CSV, trajectory CSV, experiment JSON.

Graph files: first line `n=<nodes>`, then one `i,j,w` row per revealed pair
with 0-based i < j and w in {-1, +1}; absent pairs are 0. A stream file is a
graph file with a leading timestep column, `t,i,j,w`, so one parser and one
writer serve both: a graph file reads as a stream whose rows all sit at
t = 0. Writers emit rows in sorted order so write -> read -> write is
byte-identical.
"""

import json
import math

import numpy as np

from .model import (
    CbmParams, ChangeScenario, TernaryGraph, n_pairs, pair_indices, pair_pos, parse_labels,
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
    """Write a graph sequence; times defaults to 1, 2, ..."""
    graphs = list(graphs)
    if times is None:
        times = list(range(1, len(graphs) + 1))
    times = list(times)
    if len(times) != len(graphs):
        raise ValueError("times and graphs must have equal length")
    if not graphs:
        raise ValueError("need at least one graph to fix n in the header")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("stream graphs must share n")
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
    if isinstance(value, dict) and "flip" in value:
        if base is None:
            raise ValueError("flip specification needs pre labels")
        flips, size = value["flip"], len(base)
        valid = isinstance(flips, list) and all(type(i) is int and 0 <= i < size for i in flips)
        if not valid or len(set(flips)) != len(flips):
            raise ValueError(f"flip needs distinct node indices in [0, {size}), got {flips!r}")
        out = base.copy()
        out[flips] = -out[flips]
        return out
    raise ValueError(f"cannot interpret labels spec {value!r}")


def scenario_from_config(payload):
    """Build a ChangeScenario from a JSON payload.

    Expected keys: n, zeta, and p or a; pre ('balanced' or a +- string);
    post (a +- string or {'flip': [indices]}); nu (integer or 'inf');
    optional post_params {p or a, zeta} when the law changes too.
    """
    n = payload["n"]
    zeta = payload["zeta"]
    if "a" in payload:
        params_pre = CbmParams.from_scale(n, payload["a"], zeta)
    else:
        params_pre = CbmParams(n=n, p=payload["p"], zeta=zeta)
    pre = labels_from_config(payload["pre"], n=n)
    post = labels_from_config(payload["post"], n=n, base=pre)
    nu = payload.get("nu", 1)
    if nu == "inf":
        nu = math.inf
    post_payload = payload.get("post_params")
    if post_payload is None:
        params_post = params_pre
    elif "a" in post_payload:
        params_post = CbmParams.from_scale(n, post_payload["a"], post_payload.get("zeta", zeta))
    else:
        params_post = CbmParams(n=n, p=post_payload["p"], zeta=post_payload.get("zeta", zeta))
    return ChangeScenario(
        pre=pre, post=post, nu=nu, params_pre=params_pre, params_post=params_post
    )


def load_experiment_json(path):
    """Raw experiment payload: scenario config plus detector/trials fields."""
    with open(path) as fh:
        return json.load(fh)
