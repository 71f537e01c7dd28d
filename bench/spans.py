"""Spans recorded around calls into canclust, and the per-layer metrics made from them.

The benchmark traces the program from outside: install() replaces a public
name at the place its caller looks it up (canclust's modules import each
other's names directly, so canclust.clusim.affinity and
canclust.cli.agglomerate are separate lookup sites) with a wrapper that
records a span. Spans stay in memory and are written out when the run ends.

This module uses only the standard library, so the CLI stand-in (cli_child.py) can
import it before timing the import of canclust itself.
"""

import functools
import importlib
import os
import time

# (module, attribute, span name): every lookup site the pipeline and the CLI use
PATCH_POINTS = (
    ("canclust.pipeline", "parse_capture", "ingest.parse"),
    ("canclust.cli", "parse_capture", "ingest.parse"),
    ("canclust.pipeline", "resample", "ingest.resample"),
    ("canclust.cli", "resample", "ingest.resample"),
    ("canclust.pipeline", "pearson_matrix", "correlation"),
    ("canclust.cli", "pearson_matrix", "correlation"),
    ("canclust.pipeline", "to_dissimilarity", "correlation"),
    ("canclust.cli", "to_dissimilarity", "correlation"),
    ("canclust.pipeline", "agglomerate", "hierarchy.agglomerate"),
    ("canclust.cli", "agglomerate", "hierarchy.agglomerate"),
    ("canclust.clusim", "restrict", "hierarchy.restrict"),
    ("canclust.clusim", "affinity", "clusim.affinity"),
    ("canclust.stats", "similarity", "clusim.similarity"),
    ("canclust.cli", "similarity", "clusim.similarity"),
    ("canclust.pipeline", "benign_pairs", "stats.pair_loop"),
    ("canclust.pipeline", "attack_vs_benign", "stats.pair_loop"),
    ("canclust.pipeline", "mann_whitney", "stats.mann_whitney"),
    ("canclust.cli", "run", "pipeline.run"),
    ("canclust.cli", "main", "cli"),
)

# per-layer metric -> unit; the order is the order of the printed table
LAYER_METRICS = {
    "ingest.parse_s": "s",
    "ingest.parse_calls": "count",
    "ingest.parse_mb_per_s": "MB/s",
    "ingest.resample_s": "s",
    "correlation.s": "s",
    "hierarchy.agglomerate_s": "s",
    "hierarchy.agglomerate_calls": "count",
    "hierarchy.restrict_s": "s",
    "hierarchy.restrict_calls": "count",
    "clusim.affinity_s": "s",
    "clusim.affinity_calls": "count",
    "clusim.affinity_distinct_ratio": "ratio",
    "clusim.similarity_self_s": "s",
    "stats.pairs_scored": "count",
    "stats.pair_loop_self_s": "s",
    "stats.mann_whitney_s": "s",
    "stats.mann_whitney_exact_calls": "count",
    "pipeline.self_s": "s",
    "pipeline.output_bytes": "bytes",
    "cli.import_s": "s",
    "cli.simtest_self_s": "s",
    "trace.overhead_s": "s",
    "trace.ops": "count",
}

# metrics that count work: identical on every traced operation of one input
COUNT_METRICS = ("ingest.parse_calls", "hierarchy.agglomerate_calls", "hierarchy.restrict_calls",
                 "clusim.affinity_calls", "clusim.affinity_distinct_ratio", "stats.pairs_scored",
                 "stats.mann_whitney_exact_calls", "pipeline.output_bytes")


class Tracer:
    """In-memory span log. Span ids are list positions; parent is the enclosing span."""

    def __init__(self, op=0):
        self.op = op
        self.spans = []
        self._stack = []

    def begin(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "op": self.op, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()


def _tree_key(dend):
    """Content key of a dendrogram, so equal trees count once as distinct."""
    return hash((tuple(dend.leaf_ids), tuple(tuple(m) for m in dend.merges)))


def _annotate(name, span, args, kwargs, result):
    if name == "ingest.parse":
        path = args[0] if args else kwargs.get("path")
        span["bytes"] = os.path.getsize(path)
    elif name == "clusim.affinity":
        span["tree"] = _tree_key(args[0] if args else kwargs.get("dend"))
    elif name == "stats.pair_loop":
        span["pairs"] = len(result.values)
    elif name == "stats.mann_whitney":
        span["method"] = result.method
    elif name == "cli":
        argv = args[0] if args else kwargs.get("argv")
        span["name"] = f"cli.{argv[0]}" if argv else "cli"


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        _annotate(name, span, args, kwargs, result)
        return result
    return wrapper


def install(tracer):
    """Wrap every patch point that exists; return (restore list, missing sites)."""
    restore, missing = [], []
    for module_name, attr, name in PATCH_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        restore.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, name, fn))
    return restore, missing


def uninstall(restore):
    for module, attr, fn in reversed(restore):
        setattr(module, attr, fn)


def self_times(spans):
    """Map span id -> duration minus the part of it that direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def op_layers(spans):
    """Per-layer metrics of one traced operation from its spans."""
    selfs = self_times(spans)
    busy, self_sum, calls = {}, {}, {}
    for s in spans:
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + (s["end"] - s["start"])
        self_sum[name] = self_sum.get(name, 0.0) + selfs[s["id"]]
        calls[name] = calls.get(name, 0) + 1
    parse_s = busy.get("ingest.parse", 0.0)
    parse_bytes = sum(s.get("bytes", 0) for s in spans if s["name"] == "ingest.parse")
    aff_calls = calls.get("clusim.affinity", 0)
    trees = {s["tree"] for s in spans if s["name"] == "clusim.affinity"}
    return {
        "ingest.parse_s": parse_s,
        "ingest.parse_calls": calls.get("ingest.parse", 0),
        "ingest.parse_mb_per_s": parse_bytes / 1e6 / parse_s if parse_s > 0 else 0.0,
        "ingest.resample_s": busy.get("ingest.resample", 0.0),
        "correlation.s": busy.get("correlation", 0.0),
        "hierarchy.agglomerate_s": busy.get("hierarchy.agglomerate", 0.0),
        "hierarchy.agglomerate_calls": calls.get("hierarchy.agglomerate", 0),
        "hierarchy.restrict_s": busy.get("hierarchy.restrict", 0.0),
        "hierarchy.restrict_calls": calls.get("hierarchy.restrict", 0),
        "clusim.affinity_s": busy.get("clusim.affinity", 0.0),
        "clusim.affinity_calls": aff_calls,
        "clusim.affinity_distinct_ratio": len(trees) / aff_calls if aff_calls else 0.0,
        "clusim.similarity_self_s": self_sum.get("clusim.similarity", 0.0),
        "stats.pairs_scored": sum(s.get("pairs", 0) for s in spans if s["name"] == "stats.pair_loop"),
        "stats.pair_loop_self_s": self_sum.get("stats.pair_loop", 0.0),
        "stats.mann_whitney_s": busy.get("stats.mann_whitney", 0.0),
        "stats.mann_whitney_exact_calls": sum(
            1 for s in spans if s["name"] == "stats.mann_whitney" and s.get("method") == "exact"),
        "pipeline.self_s": self_sum.get("pipeline.run", 0.0),
        "cli.simtest_self_s": self_sum.get("cli.simtest", 0.0),
    }


def layer_metrics(spans, op_extra, untraced_walls, traced_walls, import_times):
    """Per-layer metrics of a traced run.

    Times are medians over the traced operations; counts are those of the
    first traced operation.

    op_extra maps op id -> dict of per-op values measured outside spans
    (pipeline.output_bytes). Returns (metrics, counts_repeat) where
    counts_repeat is False when a work count differed between operations.
    """
    import statistics  # here, not at the top: cli_child.py imports this module before timing

    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    rows = []
    for op in sorted(set(by_op) | set(op_extra)):
        row = op_layers(by_op.get(op, []))
        row["pipeline.output_bytes"] = op_extra.get(op, {}).get("output_bytes", 0)
        rows.append(row)
    metrics = {}
    if rows:
        for name in rows[0]:
            values = [r[name] for r in rows]
            metrics[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    counts_repeat = all(r[name] == rows[0][name] for r in rows for name in COUNT_METRICS)
    metrics["cli.import_s"] = statistics.median(import_times) if import_times else 0.0
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls)
                                   if traced_walls and untraced_walls else 0.0)
    metrics["trace.ops"] = len(rows)
    for name in LAYER_METRICS:
        metrics.setdefault(name, 0.0)
    return {name: metrics[name] for name in LAYER_METRICS}, counts_repeat
