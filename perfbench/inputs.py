"""Seeded input generators for the pipeline benchmark.

Each generator writes its files into a directory and returns the tallies
the output checks compare against.  The same (size, seed) always gives
byte-identical files; ``cache_key`` names a set of inputs by its
parameters and the generator version.  Nothing here imports temporank: the tallies must
come from a route that does not use the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

DAY = 86400
#: bump whenever a generator's output changes, so cached inputs are remade
VERSION = 1


def cache_key(params: dict) -> str:
    """A short hash of the generator version and the input parameters."""
    text = json.dumps({"version": VERSION, "params": params}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _zipf_weights(count: int, exponent: float, offset: float) -> np.ndarray:
    weights = 1.0 / (np.arange(count) + offset) ** exponent
    return weights / weights.sum()


def event_stream(directory: str, seed: int, *, nodes: int, events: int,
                 days: int, grid_step_days: int, remove_share: float = 0.2,
                 start_share: float = 0.05) -> dict:
    """An itwiki-shaped `src dst delta timestamp` stream, strictly consistent.

    Endpoints follow Zipf-like weights over ``nodes`` candidate ids, which
    are scattered over a sparse id space so ingest has ids to compact.
    ``start_share`` of the events are adds at t=0, so the first sampled
    instant is not empty.  Of the rest, about ``remove_share`` of all
    events remove a copy of an edge present at that moment, so the stream
    never drives a count below zero.

    Returns the tallies ingest must reproduce: node count, event, add and
    remove counts, distinct added and removed edges, and per grid instant
    the number of nonzero entries and the total weight.
    """
    rng = np.random.default_rng([seed, 1])
    ids = np.sort(rng.choice(50 * nodes, size=nodes, replace=False) + 1)
    ids = rng.permutation(ids)        # popularity rank -> original id
    weights = _zipf_weights(nodes, 1.0, 5.0)
    src = rng.choice(nodes, size=events, p=weights)
    dst = rng.choice(nodes, size=events, p=weights)
    dst = np.where(dst == src, (dst + 1) % nodes, dst)
    at_start = int(round(start_share * events))
    horizon = days * DAY
    stamps = np.concatenate([
        np.zeros(at_start, dtype=np.int64),
        np.sort(rng.integers(1, horizon + 1, size=events - at_start))])
    remove_draw = rng.random(events) < remove_share / (1.0 - start_share)
    pick = rng.random(events)

    grid = [k * grid_step_days * DAY for k in range(days // grid_step_days + 1)]
    counts: dict[tuple[int, int], int] = {}
    present: list[tuple[int, int]] = []   # one entry per unit of weight
    added, removed = set(), set()
    adds = removes = 0
    per_instant = []
    cursor = 0
    lines = ["% generated event stream: src dst delta timestamp"]
    for k in range(events):
        stamp = int(stamps[k])
        while cursor < len(grid) and grid[cursor] < stamp:
            per_instant.append([len(counts), len(present)])
            cursor += 1
        if k >= at_start and remove_draw[k] and present:
            slot = int(pick[k] * len(present))
            key = present[slot]
            present[slot] = present[-1]
            present.pop()
            counts[key] -= 1
            if counts[key] == 0:
                del counts[key]
            removed.add(key)
            removes += 1
            delta = -1
        else:
            key = (int(ids[src[k]]), int(ids[dst[k]]))
            counts[key] = counts.get(key, 0) + 1
            present.append(key)
            added.add(key)
            adds += 1
            delta = 1
        lines.append(f"{key[0]} {key[1]} {delta} {stamp}")
    while cursor < len(grid):
        per_instant.append([len(counts), len(present)])
        cursor += 1

    touched = {i for key in added for i in key}
    with open(os.path.join(directory, "events.tsv"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return {"n": len(touched), "events": events, "adds": adds,
            "removes": removes, "distinct_added": len(added),
            "distinct_removed": len(removed), "per_instant": per_instant}


def churn_network(directory: str, seed: int, *, nodes: int, out_degree: int,
                  instants: int, churn: float) -> dict:
    """A discrete network file: fixed out-degree, a share of edges rewired per instant.

    Targets follow Zipf-like weights so in-degrees are skewed.  Every row
    keeps ``out_degree`` distinct non-self targets with weights 1..3, so
    no row is ever dangling.  The snapshots are also saved as arrays
    (``churn.npz``) for the residual check.
    """
    rng = np.random.default_rng([seed, 2])
    popularity = rng.permutation(nodes)
    weights = _zipf_weights(nodes, 0.8, 2.0)
    buffer = iter(popularity[rng.choice(nodes, size=nodes * out_degree * (instants + 4),
                                        p=weights)].tolist())
    targets = np.empty((nodes, out_degree), dtype=np.int64)
    for i in range(nodes):
        row: list[int] = []
        while len(row) < out_degree:
            j = next(buffer)
            if j != i and j not in row:
                row.append(j)
        targets[i] = row
    edge_weights = rng.integers(1, 4, size=(nodes, out_degree))
    rewired = int(round(churn * nodes * out_degree))

    history = np.empty((instants, nodes, out_degree), dtype=np.int64)
    lines = [f"nodes {nodes}"]
    for k in range(instants):
        if k:
            for slot in rng.choice(nodes * out_degree, size=rewired, replace=False):
                i, c = divmod(int(slot), out_degree)
                while True:
                    j = next(buffer)
                    if j != i and j not in targets[i]:
                        targets[i, c] = j
                        break
        history[k] = targets
        lines.append(f"instant {float(k)!r}")
        order = np.argsort(targets, axis=1)
        for i in range(nodes):
            for c in order[i]:
                lines.append(f"{i + 1} {targets[i, c] + 1} {float(edge_weights[i, c])!r}")
    with open(os.path.join(directory, "churn.net"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    np.savez(os.path.join(directory, "churn.npz"), targets=history.astype(np.int32),
             weights=edge_weights.astype(np.int8))
    return {"n": nodes, "instants": instants,
            "nnz": nodes * out_degree, "rewired_per_instant": rewired}


def cached(directory: str, make) -> dict:
    """Run ``make(directory)`` once; later calls read its saved tallies."""
    done = os.path.join(directory, "tallies.json")
    if os.path.exists(done):
        with open(done, encoding="utf-8") as handle:
            return json.load(handle)
    os.makedirs(directory, exist_ok=True)
    tallies = make(directory)
    with open(done + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(tallies, handle)
    os.replace(done + ".tmp", done)
    return tallies
