"""Memory budgets of the discrete network lifecycle.

Reading, ingesting and writing a discrete network may hold only a few
copies of its entry record at once.  The peak is what ``tracemalloc``
sees (numpy reports its buffers to it), as a multiple of the record's
bytes: data, column indices and row pointers.  Each block is made as a
CSR piece and stacked once, and the file's bytes are dropped before the
stacking, so a load peaks holding the pieces and the stacked record, and
a write one block's lines: here loading peaks at 2.1 records, ingesting
at 2.4 and writing at 1.5.  A reader that still holds the bytes while it
stacks (2.7 records), a reader or ingest that keeps every block's rows
beside the record and builds whole-record temporaries to stack it (4.4
and 4.1), or a writer that tables the weights of the whole record at
once (2.8), goes past these bounds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from temporank import build_snapshots, dumps_network, load_network, loads_network
from temporank.ingest import EventColumns

NODES, BLOCKS, PER_BLOCK = 4000, 20, 15000


def record_bytes(network) -> int:
    data, indices, indptr, _ = network._entries
    return data.nbytes + indices.nbytes + indptr.nbytes


def traced_peak(call):
    """(result, peak bytes traced during ``call``)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def network_text() -> str:
    rng = np.random.default_rng(20)
    lines = [f"nodes {NODES}"]
    for k in range(BLOCKS):
        keys = np.sort(rng.choice(NODES * NODES, PER_BLOCK, replace=False))
        weights = rng.integers(1, 5, PER_BLOCK)
        lines.append(f"instant {float(k)!r}")
        lines += [f"{i} {j} {w}" for i, j, w in zip((keys // NODES + 1).tolist(),
                                                   (keys % NODES + 1).tolist(),
                                                   weights.tolist())]
    return "\n".join(lines) + "\n"


def test_loading_holds_under_three_and_a_half_records(network_text):
    network, peak = traced_peak(lambda: loads_network(network_text))
    assert len(network._entries[0]) == BLOCKS * PER_BLOCK
    assert peak <= 3.5 * record_bytes(network)


def test_loading_a_file_holds_under_two_and_a_half_records(network_text, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(network_text, encoding="ascii")
    network, peak = traced_peak(lambda: load_network(path))
    assert len(network._entries[0]) == BLOCKS * PER_BLOCK
    assert peak <= 2.5 * record_bytes(network)


def test_writing_holds_under_two_records(network_text):
    network = loads_network(network_text)
    text, peak = traced_peak(lambda: dumps_network(network))
    assert loads_network(text)._entries[0].tolist() == network._entries[0].tolist()
    assert peak <= 2.0 * record_bytes(network)


def test_ingesting_holds_under_three_and_a_quarter_records():
    rng = np.random.default_rng(21)
    count = 30000
    events = EventColumns(rng.integers(1, NODES + 1, count), rng.integers(1, NODES + 1, count),
                          np.ones(count, dtype=np.int64),
                          np.sort(rng.uniform(0, BLOCKS, count)))
    (network, _), peak = traced_peak(
        lambda: build_snapshots(events, np.arange(1.0, BLOCKS + 1), n=NODES))
    assert len(network._entries[0]) > 200000
    assert peak <= 3.25 * record_bytes(network)
