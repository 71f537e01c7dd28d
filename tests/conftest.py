import csv
import os
import re

import numpy as np
import pytest

from canclust.correlation import DissimilarityMatrix
from canclust.errors import DataError, DegenerateCaptureError, InsufficientOverlapError, ParseError
from canclust.hierarchy import LINKAGES, Dendrogram, agglomerate
from canclust.ingest import CONSTANT_TOL, MAX_ABS_VALUE, MAX_GRID_POINTS, RawSignal, SignalMatrix


def random_dissimilarity(rng, n, ids=None):
    """Random symmetric dissimilarity with zero diagonal, entries in (0, 1)."""
    m = rng.uniform(0.05, 1.0, size=(n, n))
    d = (m + m.T) / 2.0
    np.fill_diagonal(d, 0.0)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(n))
    return DissimilarityMatrix(tuple(ids), d)


def random_dendrogram(rng, n, linkage=None):
    if linkage is None:
        linkage = LINKAGES[rng.integers(len(LINKAGES))]
    return agglomerate(random_dissimilarity(rng, n), linkage)


def heights(dend):
    """Merge heights of a dendrogram, in merge order."""
    return [h for _l, _r, h, _s in dend.merges]


def leaves_under(dend, node):
    """Set of leaf indices contained in a node (leaf or merge index)."""
    n = dend.n_leaves
    stack, out = [node], set()
    while stack:
        k = stack.pop()
        if k < n:
            out.add(k)
        else:
            left, right, _, _ = dend.merges[k - n]
            stack.extend((left, right))
    return out


def replay_restrict(dend, keep_ids):
    """Oracle for hierarchy.restrict: a replay of the merges that keeps two tables per original node.

    Kept leaves are numbered in leaf order; each original node maps to the new
    node it survives as, or None, and to that node's size. A merge with both
    sides surviving becomes the next new node; one with one side surviving
    passes that side's node and size through.
    """
    keep = set(keep_ids)
    new_leaf_ids = tuple(lid for lid in dend.leaf_ids if lid in keep)
    new_index = {lid: i for i, lid in enumerate(new_leaf_ids)}
    n = dend.n_leaves
    survives = [None] * (n + len(dend.merges))
    sizes = [None] * (n + len(dend.merges))
    for i, lid in enumerate(dend.leaf_ids):
        if lid in keep:
            survives[i], sizes[i] = new_index[lid], 1
    new_merges, next_node = [], len(new_leaf_ids)
    for j, (left, right, h, _size) in enumerate(dend.merges):
        a, b = survives[left], survives[right]
        if a is not None and b is not None:
            sz = sizes[left] + sizes[right]
            new_merges.append((a, b, h, sz))
            survives[n + j], sizes[n + j] = next_node, sz
            next_node += 1
        elif a is not None:
            survives[n + j], sizes[n + j] = a, sizes[left]
        elif b is not None:
            survives[n + j], sizes[n + j] = b, sizes[right]
    return Dendrogram(leaf_ids=new_leaf_ids, merges=tuple(new_merges), linkage=dend.linkage)


def level_weights(dend, element, r):
    """Oracle for clusim._transitions: softmax weights over one element's ancestor clusters.

    Returns a list of (node, depth, weight) from root to leaf, where node is
    a tree node index (leaf < N, merge >= N), depth runs linearly from 0 at
    the root to 1 at the leaf, and the weights exp(r * depth) are normalized
    to sum to 1 over the path.
    """
    try:
        leaf = dend.leaf_ids.index(element)
    except ValueError:
        raise DataError(f"element {element!r} is not a leaf of the dendrogram") from None
    n = dend.n_leaves
    parent = [None] * (n + len(dend.merges))
    for k, (left, right, _h, _s) in enumerate(dend.merges):
        parent[left] = parent[right] = n + k
    path = [leaf]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # root first
    depths = np.arange(len(path)) / (len(path) - 1)
    w = np.exp(r * depths)
    w /= w.sum()
    return [(node, float(nu), float(wi)) for node, nu, wi in zip(path, depths, w)]


def membership_transition(dend, r):
    """Oracle for clusim._transitions, bit for bit: W from a node x leaf membership matrix.

    Membership is built bottom-up and depth top-down by looping over the
    merges; W is the same float expression clusim evaluates on its
    depth-first layout.
    """
    n = dend.n_leaves
    member = np.zeros((n + len(dend.merges), n))
    member[:n] = np.eye(n)
    for k, (left, right, _h, _s) in enumerate(dend.merges):
        member[n + k] = member[left] + member[right]
    depth = np.zeros(n + len(dend.merges))
    for k in range(len(dend.merges) - 1, -1, -1):
        left, right = dend.merges[k][:2]
        depth[left] = depth[right] = depth[n + k] + 1
    nu = depth[None, :] / depth[:n, None]
    weights = np.exp(np.where(member.T > 0, r * nu, -np.inf))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights / member.sum(axis=1)) @ member


def power_iteration_ppr(w, alpha, tol=1e-12, max_iter=10_000):
    """Oracle for clusim.affinity: iterate P <- (1 - alpha) I + alpha P W to an l1 fixed point."""
    n = len(w)
    p = np.eye(n)
    for _ in range(max_iter):
        p_next = (1.0 - alpha) * np.eye(n) + alpha * (p @ w)
        residual = np.max(np.abs(p_next - p).sum(axis=1))
        p = p_next
        if residual < tol:
            return p
    raise AssertionError(f"power iteration did not converge (residual {residual:.3e})")


def list_agglomerate(dm, linkage):
    """Oracle for hierarchy.agglomerate: the O(N^3) pure-Python loop over nested lists.

    Every step scans all active pairs for the least (height, rep_lo, rep_hi)
    tuple, then deletes the two merged rows and columns and appends the
    Lance-Williams row of the new cluster.
    """
    def lw_update(d_ik, d_jk, d_ij, n_i, n_j, n_k):
        if linkage == "single":
            return min(d_ik, d_jk)
        if linkage == "complete":
            return max(d_ik, d_jk)
        if linkage == "average":
            return (n_i * d_ik + n_j * d_jk) / (n_i + n_j)
        n = n_i + n_j + n_k
        return ((n_i + n_k) * d_ik + (n_j + n_k) * d_jk - n_k * d_ij) / n

    dist = np.array(dm.d, dtype=float).tolist()
    n = len(dist)
    nodes, sizes, reps = list(range(n)), [1] * n, list(range(n))
    merges = []
    for step in range(n - 1):
        m = len(nodes)
        best = None  # (height, rep_lo, rep_hi, a, b)
        for a in range(m):
            for b in range(a + 1, m):
                lo, hi = (reps[a], reps[b]) if reps[a] < reps[b] else (reps[b], reps[a])
                key = (dist[a][b], lo, hi)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (key[0], lo, hi, a, b)
        height, _, _, a, b = best
        if reps[a] > reps[b]:
            a, b = b, a
        new_size = sizes[a] + sizes[b]
        new_rep = min(reps[a], reps[b])
        merges.append((nodes[a], nodes[b], float(height), new_size))
        new_row = [lw_update(dist[a][k], dist[b][k], dist[a][b], sizes[a], sizes[b], sizes[k])
                   for k in range(m) if k not in (a, b)]
        for idx in sorted((a, b), reverse=True):
            del nodes[idx], sizes[idx], reps[idx]
            del dist[idx]
            for row in dist:
                del row[idx]
        nodes.append(n + step)
        sizes.append(new_size)
        reps.append(new_rep)
        for row, v in zip(dist, new_row):
            row.append(v)
        dist.append(new_row + [0.0])
    return tuple(merges)


def loop_resample(capture, frequency_hz=10.0):
    """Oracle for ingest.resample: one signal at a time in signal-id order, each row built, tested and scaled alone.

    The grid, and the signals times its points, must stay within MAX_GRID_POINTS.
    Each signal's values are checked against MAX_ABS_VALUE just before it is
    interpolated; a row is constant when its range is below CONSTANT_TOL of
    max(1, |its maximum|); a kept row is centered by its mean and divided by
    np.linalg.norm, and the kept rows are stacked.
    """
    if not (0.0 < frequency_hz < np.inf):
        raise ValueError("frequency_hz must be positive and finite")
    signals = sorted(capture.signals, key=lambda sig: sig.signal_id)  # the order resample's rows are in
    if not signals:
        raise DataError(f"{capture.capture_id}: empty capture")
    start = max(float(s.timestamps[0]) for s in signals)
    end = min(float(s.timestamps[-1]) for s in signals)
    step = 1.0 / frequency_hz
    n_points = np.floor((end - start) / step + 1e-9) + 1
    if n_points > MAX_GRID_POINTS:
        raise DataError(
            f"{capture.capture_id}: common window [{start}, {end}] needs {n_points:.3g} grid points "
            f"at {frequency_hz} Hz, more than the {MAX_GRID_POINTS} allowed")
    if n_points < 2:
        raise InsufficientOverlapError(
            f"{capture.capture_id}: common window [{start}, {end}] holds fewer than 2 grid points at {frequency_hz} Hz")
    n_values = len(signals) * int(n_points)
    if n_values > MAX_GRID_POINTS:
        raise DataError(f"{capture.capture_id}: {len(signals)} signals on {int(n_points)} grid points at "
                        f"{frequency_hz} Hz need {n_values} values, more than the {MAX_GRID_POINTS} allowed")
    grid = start + np.arange(int(n_points)) * step

    kept_ids, rows, dropped = [], [], []
    for sig in signals:
        if np.max(np.abs(sig.values)) > MAX_ABS_VALUE:
            raise DataError(f"{capture.capture_id}: signal {sig.signal_id!r} holds a value of magnitude "
                            f"above {MAX_ABS_VALUE:.3g}, the most allowed")
        interp = np.interp(grid, sig.timestamps, sig.values)
        vmax, vmin = float(np.max(interp)), float(np.min(interp))
        if (vmax - vmin) < CONSTANT_TOL * max(1.0, abs(vmax)):
            dropped.append(sig.signal_id)
            continue
        centered = interp - interp.mean()
        rows.append(centered / np.linalg.norm(centered))
        kept_ids.append(sig.signal_id)
    if not rows:
        raise DegenerateCaptureError(f"{capture.capture_id}: all signals constant on the common grid")
    return SignalMatrix(capture_id=capture.capture_id, signal_ids=tuple(kept_ids),
                        grid=grid, data=np.vstack(rows), dropped_constant=tuple(dropped))


# what a mutation inserts or puts in place of one character: the blanks U+001C-U+001F that numpy's C
# reader and str.strip() strip and float() alone rejects, numerals and blanks that only float() reads,
# and line structure
MUTATION_TOKENS = ("\x1c", "\x1f", "1_0", "\u0663", "\xa0", "\u3000", "\x00", "\x0b", "#", '"', ",", "\n", " ")


def mutate(rnd, text):
    """text with one character inserted, replaced or deleted after its header line, or an empty
    line or a line of blanks inserted; a token may be several characters long."""
    k = rnd.randrange(re.search("[\r\n]", text).end(), len(text))
    kind = rnd.choice(("insert", "replace", "delete", "line"))
    if kind == "line":
        k = max(text.rfind("\n", 0, k), text.rfind("\r", 0, k)) + 1
        return text[:k] + rnd.choice(("\n", "  \t\n")) + text[k:]
    token = "" if kind == "delete" else rnd.choice(MUTATION_TOKENS)
    return text[:k] + token + text[k + (kind != "insert"):]


def csv_reader_signals(path, format="wide_csv"):
    """Oracle for ingest.parse_capture: the RawSignals of a file read row by row with csv.reader.

    Every numeric cell goes through float(cell.strip()) on its own and each signal's (t, v)
    tuples are sorted by time; the errors are those parse_capture raises.
    Cells are split on commas only: a header or data line holding '"' is an error.
    """
    path = str(path)

    def parse_float(cell, lineno, what):
        try:
            return float(cell.strip())
        except ValueError:
            raise ParseError(f"non-numeric {what} {cell!r}", path=path, line=lineno) from None

    def finish(signal_id, samples):
        samples.sort(key=lambda tv: tv[0])
        ts = np.array([t for t, _ in samples])
        with np.errstate(invalid="ignore"):  # inf - inf is nan: a repeated inf is a non-finite time, not a repeat
            repeated = ts.size > 1 and np.any(np.diff(ts) <= 0)
        if repeated:
            raise ParseError(f"duplicate timestamp in signal {signal_id!r}", path=path)
        try:
            return RawSignal(signal_id, ts, np.array([v for _, v in samples]))
        except DataError as exc:
            raise ParseError(str(exc), path=path) from None

    def data_rows(fh):
        for lineno, row in enumerate(csv.reader(fh, quoting=csv.QUOTE_NONE), start=1):
            if row and not row[0].lstrip().startswith("#"):
                if any('"' in cell for cell in row):
                    raise ParseError("quote character '\"': cells are split on commas, without CSV quoting",
                                     path=path, line=lineno)
                yield lineno, row

    with open(path, newline="", encoding="utf-8") as fh:
        rows = data_rows(fh)
        try:
            header_lineno, header = next(rows)
        except StopIteration:
            raise ParseError("empty file", path=path) from None
        header = [c.strip() for c in header]
        samples = {}
        if format == "wide_csv":
            if len(header) < 2 or header[0] != "time":
                raise ParseError("wide_csv header must be 'time,<signal>,...'", path=path, line=header_lineno)
            sig_ids = header[1:]
            if "" in sig_ids:
                raise ParseError("empty signal id in header", path=path, line=header_lineno)
            if len(set(sig_ids)) != len(sig_ids):
                raise ParseError("duplicate signal column in header", path=path, line=header_lineno)
            samples = {sid: [] for sid in sig_ids}
            for lineno, row in rows:
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} cells, got {len(row)}", path=path, line=lineno)
                t = parse_float(row[0], lineno, "time")
                for sid, cell in zip(sig_ids, row[1:]):
                    cell = cell.strip()
                    if cell:
                        samples[sid].append((t, parse_float(cell, lineno, "value")))
        else:
            if header != ["time", "signal", "value"]:
                raise ParseError("long_csv header must be 'time,signal,value'", path=path, line=header_lineno)
            for lineno, row in rows:
                if len(row) != 3:
                    raise ParseError(f"expected 3 cells, got {len(row)}", path=path, line=lineno)
                t = parse_float(row[0], lineno, "time")
                v = parse_float(row[2], lineno, "value")
                if not row[1].strip():
                    raise ParseError("empty signal id", path=path, line=lineno)
                samples.setdefault(row[1].strip(), []).append((t, v))
    signals = [finish(sid, s) for sid, s in samples.items() if s]
    if not signals:
        raise DataError(f"{path}: capture contains no signals")
    return signals


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail any test that leaves a child process unreaped, such as a fan_out() worker."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child left
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
