"""Independent reference implementations used to pin test expectations.

Nothing here imports computational code from the package beyond plain data
types; results are produced by different algorithms (closed-form
antiderivatives, all-pairs enumeration, dense eigensolver) so agreement
with the package is evidence, not tautology.
"""

import io
import math

import numpy as np
from scipy import sparse

# ---------------------------------------------------------------------------
# closed-form integrals for the five-node synthetic network
#
# Every edge weight function a(s) in the synthetic network has an elementary
# antiderivative against e^{alpha*s}, so the decayed accumulation
#
#     B(t) = integral_0^t e^{-alpha*(t-s)} a(s) ds = e^{-alpha*t} * I(t),
#     I(t) = integral_0^t e^{alpha*s} a(s) ds,
#
# is available in closed form.  The helpers below are the 0-to-t integrals
# of e^{a s} times sin(w s), cos(w s), 1, s, s^2 and e^s.


def _int_exp_sin(a, w, t):
    return (math.exp(a * t) * (a * math.sin(w * t) - w * math.cos(w * t)) + w) / (a * a + w * w)


def _int_exp_cos(a, w, t):
    return (math.exp(a * t) * (a * math.cos(w * t) + w * math.sin(w * t)) - a) / (a * a + w * w)


def _phi(m, z):
    """integral_0^1 u^m e^{z u} du, stable for z near 0.

    The closed forms carry 1/z^{m+1} cancellations, so small z switches to
    the series sum_k z^k / (k! (k + m + 1)).
    """
    if abs(z) < 0.5:
        total, term = 0.0, 1.0
        for k in range(24):
            total += term / (k + m + 1)
            term *= z / (k + 1)
        return total
    ez = math.exp(z)
    if m == 0:
        return (ez - 1.0) / z
    if m == 1:
        return (ez * (z - 1.0) + 1.0) / (z * z)
    return (ez * (z * z - 2.0 * z + 2.0) - 2.0) / z ** 3


def _int_exp(a, t):
    return t * _phi(0, a * t)


def _int_exp_s(a, t):
    return t * t * _phi(1, a * t)


def _int_exp_s2(a, t):
    return t ** 3 * _phi(2, a * t)


def _int_exp_exp(a, t):
    return t * _phi(0, (a + 1.0) * t)


_TWO_PI = 2.0 * math.pi

# keyed by 1-based (i, j) with i < j; the mirrored direction has equal weight
_EDGE_INTEGRALS = {
    (1, 2): lambda a, t: 0.5 * _int_exp_sin(a, _TWO_PI, t) + 0.5 * _int_exp(a, t),
    (1, 4): lambda a, t: 0.5 * _int_exp_cos(a, _TWO_PI, t) + 0.5 * _int_exp(a, t),
    (2, 3): lambda a, t: 2.0 * _int_exp_s(a, t) - _int_exp_s2(a, t),
    (2, 5): lambda a, t: _int_exp_s2(a, t),
    (3, 4): lambda a, t: (_int_exp_exp(a, t) - _int_exp(a, t)) / math.e,
    (3, 5): lambda a, t: 0.5 * _int_exp(a, t),
}

SYNTHETIC_EDGES = tuple(sorted(_EDGE_INTEGRALS))


def accumulated_weight(i, j, alpha, t):
    """Closed-form B_ij(t) for 1-based synthetic edge (i, j), both directions."""
    key = (i, j) if i < j else (j, i)
    return math.exp(-alpha * t) * _EDGE_INTEGRALS[key](alpha, t)


# ---------------------------------------------------------------------------
# all-pairs Kendall tau-b


def pair_tau(x, y):
    """Tau-b by enumerating every pair once via sign outer products.

    The final expression is written exactly like the package's so that
    equal integer counts force bit-equal floats.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    sx = np.sign(x[None, :] - x[:, None])
    sy = np.sign(y[None, :] - y[:, None])
    upper = np.triu_indices(n, k=1)
    a = sx[upper]
    b = sy[upper]
    concordant = int(np.count_nonzero(a * b > 0))
    discordant = int(np.count_nonzero(a * b < 0))
    ties_x = int(np.count_nonzero(a == 0))
    ties_y = int(np.count_nonzero(b == 0))
    n0 = n * (n - 1) // 2
    if n0 == ties_x or n0 == ties_y:
        raise ZeroDivisionError("tau undefined: one input is all ties")
    return (concordant - discordant) / math.sqrt(
        float(n0 - ties_x) * float(n0 - ties_y))


def brute_inversions(y):
    """Pairs i < j with y[i] > y[j], by enumerating every pair."""
    y = np.asarray(y, dtype=float)
    return sum(int(np.sum(y[i] > y[i + 1:])) for i in range(len(y)))


def merge_count_inversions(y):
    """Inversions of ``y`` by a bottom-up merge sort with a Python loop over blocks.

    Ties do not count.
    """
    y = np.array(y, dtype=np.float64)
    n = y.shape[0]
    inv = 0
    width = 1
    while width < n:
        for lo in range(0, n - width, 2 * width):
            mid = lo + width
            hi = min(lo + 2 * width, n)
            left = y[lo:mid]
            right = y[mid:hi]
            # pairs (l, r) with l > r  ==  |left|*|right| - #(l <= r)
            inv += left.size * right.size - int(
                np.searchsorted(left, right, side="right").sum())
            y[lo:hi] = np.sort(y[lo:hi], kind="stable")
        width *= 2
    return inv


# ---------------------------------------------------------------------------
# sparse products by scatter-add
#
# Both sum each output entry from 0 in CSR storage order, the order a scipy
# CSR product (of A, or of A.T converted to CSR) uses, so equal results are
# expected bit for bit.


def csr_matvec(matrix, x):
    """A @ x for a CSR array, by ``np.add.at`` over the stored entries."""
    n_rows = matrix.shape[0]
    rows = np.repeat(np.arange(n_rows), np.diff(matrix.indptr))
    y = np.zeros(n_rows, dtype=np.float64)
    np.add.at(y, rows, matrix.data * x[matrix.indices])
    return y


def csr_t_matvec(matrix, x):
    """A.T @ x for a CSR array: scatter each row of A, in storage order."""
    y = np.zeros(matrix.shape[1], dtype=np.float64)
    np.add.at(y, matrix.indices, matrix.data * np.repeat(x, np.diff(matrix.indptr)))
    return y


# ---------------------------------------------------------------------------
# continuous adjacency by COO -> CSR
#
# Sort the edge dict, convert COO to CSR, drop zeros.  The package builds
# the same matrices from the network's cached edge order straight into
# CSR; the tests require the two bit for bit, index dtypes included.  scipy
# converts a COO matrix of no entries to int32 indices, so the matrices of
# a network of no edges are built as the package reads every matrix out:
# int64 indices and row pointer.


def empty_csr(n):
    """The n x n CSR matrix of no entries, with int64 indices and row pointer."""
    return sparse.csr_array((np.zeros(0), np.zeros(0, dtype=np.int64),
                             np.zeros(n + 1, dtype=np.int64)), shape=(n, n))


def coo_adjacency_at(net, t):
    """A(t) of a continuous network, each edge through its scalar evaluator."""
    t = float(t)
    return coo_edge_matrix(net, [fn(t) for _, fn in sorted(net.edges.items())])


def coo_edge_matrix(net, values):
    """CSR matrix holding ``values[e]`` on the e-th edge of the sorted edge dict."""
    pairs = sorted(net.edges)
    if not pairs:
        return empty_csr(net.n)
    matrix = sparse.csr_array(sparse.coo_array(
        (list(values), ([i for i, _ in pairs], [j for _, j in pairs])), shape=(net.n, net.n)))
    matrix.eliminate_zeros()
    return matrix


def coo_truncate_snapshots(net, instants):
    """Snapshots A(s_k) at ``instants``, each edge through its array evaluator."""
    edge_items = sorted(net.edges.items())
    if not edge_items:
        return [empty_csr(net.n) for _ in instants]
    values = np.empty((len(edge_items), len(instants)))
    for row, ((i, j), fn) in enumerate(edge_items):
        values[row] = fn(instants)
    rows = np.array([i for (i, _), _ in edge_items], dtype=int)
    cols = np.array([j for (_, j), _ in edge_items], dtype=int)
    snapshots = []
    for k in range(len(instants)):
        matrix = sparse.csr_array(
            sparse.coo_array((values[:, k], (rows, cols)), shape=(net.n, net.n)))
        matrix.eliminate_zeros()
        snapshots.append(matrix)
    return snapshots


# ---------------------------------------------------------------------------
# the per-instant direct path
#
# One row normalization of one CSR matrix and one dense solve per instant,
# each with the arithmetic the package used before it normalized a whole
# grid in one pass and solved a chunk of instants in one stacked LAPACK
# call, for the ranks and for the resolvent behind the localization
# bounds.  The tests require the two bit for bit.


def row_normalize_csr(matrix):
    """(P, dangling) of a CSR matrix: positive rows divided by scipy's row sums."""
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    normalized = matrix.copy()
    if normalized.nnz:
        normalized.data = normalized.data / np.repeat(
            np.where(row_sums > 0, row_sums, 1.0), np.diff(normalized.indptr))
    return normalized, (row_sums == 0).astype(np.int8)


def direct_pagerank(matrix, dangling, damping, v, u=None):
    """Solve (I - damping (P + d u^T))^T pi = (1 - damping) v densely; u defaults to v."""
    u = v if u is None else u
    m = matrix.toarray()
    m[np.flatnonzero(dangling == 1), :] += u[None, :]
    pi = np.linalg.solve(np.eye(len(v)) - damping * m.T, (1.0 - damping) * v)
    pi /= pi.sum()
    return pi


def direct_resolvent(matrix, dangling, damping, nodes, u=None):
    """Columns ``nodes`` of X = (1 - damping)(I - damping M)^{-1}, M = P + d u^T, by one
    dense solve; with ``u`` None the dangling rows of M stay zero."""
    m = matrix.toarray()
    if u is not None:
        m[np.flatnonzero(dangling == 1), :] += u[None, :]
    columns = np.zeros((len(m), len(nodes)))
    columns[list(nodes), range(len(nodes))] = 1.0
    return (1.0 - damping) * np.linalg.solve(np.eye(len(m)) - damping * m, columns)


# ---------------------------------------------------------------------------
# dense eigensolver PageRank


def dense_google(adjacency, damping, v, u=None):
    """Materialized Google matrix from a dense adjacency (not a package path)."""
    A = np.asarray(adjacency, dtype=float)
    n = A.shape[0]
    v = np.asarray(v, dtype=float)
    u = v if u is None else np.asarray(u, dtype=float)
    sums = A.sum(axis=1)
    P = np.divide(A, sums[:, None], out=np.zeros_like(A), where=sums[:, None] > 0)
    d = (sums == 0).astype(float)
    M = P + np.outer(d, u)
    return damping * M + (1.0 - damping) * np.outer(np.ones(n), v)


def eig_pagerank(adjacency, damping, v, u=None):
    """Left fixed point of the Google matrix via a full eigendecomposition."""
    G = dense_google(adjacency, damping, v, u)
    eigvals, eigvecs = np.linalg.eig(G.T)
    pi = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1.0))])
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# random problem generators


def random_discrete_network(rng, n_max=50, instant_max=6, force_dangling=None):
    """Random sparse snapshot sequence; returns (n, instants, dense snapshots).

    With ``force_dangling`` true (or on a coin flip when None) a few rows
    are zeroed in every snapshot so their accumulation stays dangling.
    """
    n = int(rng.integers(2, n_max + 1))
    count = int(rng.integers(1, instant_max + 1))
    instants = np.cumsum(rng.uniform(0.1, 1.0, size=count))
    density = rng.uniform(0.05, 0.5)
    snapshots = []
    for _ in range(count):
        mask = rng.random((n, n)) < density
        snapshots.append(np.where(mask, rng.random((n, n)), 0.0))
    if force_dangling is None:
        force_dangling = bool(rng.integers(0, 2))
    if force_dangling:
        dead = rng.choice(n, size=max(1, n // 10), replace=False)
        for A in snapshots:
            A[dead, :] = 0.0
    return n, instants, snapshots


def random_simplex_vector(rng, n):
    """Strictly positive vector of unit 1-norm."""
    v = rng.uniform(0.05, 1.0, size=n)
    return v / v.sum()


def tie_bearing_vector(rng, length):
    """Score vector with many repeated values (and sometimes none)."""
    style = rng.integers(0, 3)
    if style == 0:
        pool = max(2, length // 4)
        return rng.integers(0, pool, size=length).astype(float)
    if style == 1:
        return np.round(rng.normal(size=length), 1)
    return rng.normal(size=length)


# ---------------------------------------------------------------------------
# event ingest, one line and one event at a time
#
# The package's ingest before it parsed and replayed event streams as
# arrays: a per-line parser building one EdgeEvent per event, a dict of
# running counts updated once per event and turned into a sorted CSR
# matrix at every sampled instant, and summaries from Python sets.  The
# tests require the array code to give the same events, snapshots (bit for
# bit), summaries and error texts.


def parse_events_per_line(lines, strict=True, t_max=None):
    """(n, events, id_map, warnings) of `src dst delta timestamp` lines."""
    from temporank import EdgeEvent, EventParseError

    raw, warnings = [], []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise EventParseError(
                f"expected `src dst delta timestamp`, got {len(parts)} fields",
                line_number=number)
        try:
            src, dst, delta = int(parts[0]), int(parts[1]), int(parts[2])
            timestamp = float(parts[3])
        except ValueError:
            raise EventParseError(
                f"non-numeric field in {text!r}", line_number=number) from None
        if src < 1 or dst < 1:
            raise EventParseError(
                f"node ids must be positive, got {src} {dst}", line_number=number)
        if not np.isfinite(timestamp) or timestamp < 0:
            raise EventParseError(
                f"timestamp must be finite and >= 0, got {parts[3]}", line_number=number)
        if delta not in (1, -1):
            if strict:
                raise EventParseError("delta out of range", line_number=number)
            warnings.append(f"line {number}: delta {delta} out of range, skipped")
            continue
        if t_max is not None and timestamp > t_max:
            continue
        raw.append((src, dst, delta, timestamp))
    raw.sort(key=lambda item: item[3])
    ids = sorted({item[0] for item in raw} | {item[1] for item in raw})
    compact = {original: m + 1 for m, original in enumerate(ids)}
    events = tuple(EdgeEvent(compact[s], compact[d], delta, t) for s, d, delta, t in raw)
    return len(ids), events, tuple(ids), tuple(warnings)


def _dict_to_csr(entries, n):
    items = sorted(entries.items())
    rows = np.array([i for (i, _), _ in items], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array(
        (np.array([w for _, w in items], dtype=float),
         np.array([j for (_, j), _ in items], dtype=np.int64), indptr), shape=(n, n))


def replay_events_per_event(events, instants, n, initial=None, policy="strict"):
    """(snapshots, clamped): a dict of running counts sampled at ``instants``."""
    from temporank import ConsistencyError, InvalidInputError

    events = list(events)
    running = {}
    if initial is not None:
        first = sparse.coo_array(initial)
        for i, j, w in zip(first.row, first.col, first.data):
            if not np.isfinite(w) or w < 0:
                raise InvalidInputError(f"initial adjacency entry ({i + 1}, {j + 1}) is {w}")
            if w != 0:   # repeated coordinates are summed
                running[(int(i), int(j))] = running.get((int(i), int(j)), 0.0) + float(w)
    clamped, cursor, snapshots = 0, 0, []
    for t_k in instants:
        while cursor < len(events):
            event = events[cursor]
            if event.timestamp > t_k:
                break
            if not (1 <= event.src <= n and 1 <= event.dst <= n):
                raise InvalidInputError(f"event {cursor + 1} references node outside 1..{n}")
            key = (event.src - 1, event.dst - 1)
            value = running.get(key, 0.0) + event.delta
            if value < 0:
                if policy == "strict":
                    raise ConsistencyError(
                        f"event {cursor + 1} ({event.src} -> {event.dst} at "
                        f"timestamp {event.timestamp:g}): decrement below zero")
                clamped += 1
                value = 0.0
            if value == 0.0:
                running.pop(key, None)
            else:
                running[key] = value
            cursor += 1
        snapshots.append(_dict_to_csr(running, n))
    return snapshots, clamped


def summarize_with_sets(n, events, warnings, clamped=0):
    """The IngestSummary fields as a dict, counted with Python sets."""
    adds = sum(1 for e in events if e.delta == 1)
    return {"n": n, "events": len(events), "adds": adds, "removes": len(events) - adds,
            "distinct_added": len({(e.src, e.dst) for e in events if e.delta == 1}),
            "distinct_removed": len({(e.src, e.dst) for e in events if e.delta == -1}),
            "warnings": len(warnings) + clamped}


# ---------------------------------------------------------------------------
# discrete networks built one scipy CSR matrix per block
#
# How network files and build_snapshots built each snapshot before a
# discrete network kept its matrices as one record of entries: every block,
# an empty one too, has the int64 indices and row pointer it was built
# from.  The tests require the matrices a network reads out of its record
# to be these, dtypes included.


def sorted_to_csr(rows, cols, data, n):
    """n x n CSR matrix from 0-based int64 entries sorted by (row, col), none repeated."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((data, cols, indptr), shape=(n, n))


def entries_to_csr(entries, n):
    """n x n CSR matrix from a {(i, j): weight} mapping of 0-based pairs."""
    items = sorted(entries.items())
    return sorted_to_csr(np.array([key[0] for key, _ in items], dtype=np.int64),
                         np.array([key[1] for key, _ in items], dtype=np.int64),
                         np.array([value for _, value in items], dtype=float), n)


def nonzeros_to_csr(matrix):
    """The matrix a network file holding the nonzero entries of CSR ``matrix`` loads as."""
    coo = sparse.coo_array(matrix)
    keep = coo.data != 0
    rows, cols = coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)
    order = np.lexsort((cols, rows))
    return sorted_to_csr(rows[order], cols[order], coo.data[keep][order].astype(float),
                         matrix.shape[0])


# ---------------------------------------------------------------------------
# UTF-8 errors, found line by line


def not_utf8(raw: bytes, error: type):
    """``error`` naming the first line of ``raw`` that is not valid UTF-8.

    Lines end at \\n only; the message gives the line, the column and the
    first bad byte.
    """
    for number, line in enumerate(io.BytesIO(raw), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as err:
            return error(f"not UTF-8 text: byte 0x{line[err.start]:02x} "
                         f"at column {err.start + 1}", line_number=number)
    return error("not UTF-8 text")


def dumps_discrete_network(network):
    """The text of a discrete network, formatting every entry's indices and weight anew."""
    blocks = [] if network.initial_adjacency is None else [
        ("initial", network.initial_adjacency)]
    blocks += [(f"instant {float(t)!r}", matrix)
               for t, matrix in zip(network.instants, network.snapshots)]
    text = [f"nodes {network.n}\n"]
    for header, matrix in blocks:
        if not matrix.has_canonical_format:
            matrix = matrix.copy()
            matrix.sum_duplicates()
        rows = np.repeat(np.arange(1, matrix.shape[0] + 1), np.diff(matrix.indptr))
        lines = [f"{i} {j + 1} {w!r}"
                 for i, j, w in zip(rows.tolist(), matrix.indices.tolist(), matrix.data.tolist())
                 if w != 0]
        text.append("\n".join([header, *lines]) + "\n")
    return "".join(text)
