"""End-to-end orchestration: captures in, verdict report out.

prepare() takes one capture through resampling, correlation and the
dissimilarity transform. run() prepares every in-memory capture once and
clusters each once per requested linkage. Per linkage it scores, in one
clusim.similarities() batch, the C(k, 2) benign pairs and then the attack x
benign pairs of each non-empty attack kind, so a tree shared by benign and
attack pairs is solved once; it slices the scores into the benign sample and
the attack samples, runs the Mann-Whitney test per (attack kind, linkage)
cell, and emits a self-contained report. Loading capture files is the
caller's job (the CLI does it with parse_capture). verdict() condenses a
report into the human-readable detection tally.
"""

import json
import math
import re
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from .clusim import HierarchyParams, similarities
from .correlation import DISSIMILARITIES, pearson_matrix, to_dissimilarity
from .errors import ConfigError, DataError
from .hierarchy import LINKAGES, agglomerate
from .ingest import resample
from .stats import density_export, mann_whitney

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    benign_captures: tuple = ()
    attack_capture_groups: dict = field(default_factory=dict)  # kind -> tuple of captures
    frequency_hz: float = 10.0
    linkages: tuple = ("single", "complete", "average", "ward")
    r: float = -5.0
    alpha: float = 0.9
    significance: float = 0.05
    dissimilarity: str = "one_minus_abs_rho"
    allow_intersection: bool = False
    output_dir: str = ""

    def validate(self):
        """Check the configuration; return the HierarchyParams the run scores with."""
        if len(self.benign_captures) < 2:
            raise ConfigError("need at least 2 benign captures")
        return self.check_parameters()

    def check_parameters(self):
        """Check everything but the captures; return the HierarchyParams the run scores with."""
        if not self.linkages:
            raise ConfigError("need at least one linkage")
        bad = [l for l in self.linkages if l not in LINKAGES]
        if bad:
            raise ConfigError(f"unknown linkages {bad}; choose from {LINKAGES}")
        if len(set(self.linkages)) < len(self.linkages):
            raise ConfigError(f"duplicate linkages in {list(self.linkages)}")
        if self.dissimilarity not in DISSIMILARITIES:
            raise ConfigError(f"unknown dissimilarity {self.dissimilarity!r}; choose from {DISSIMILARITIES}")
        # a kind names output files (density_<kind>_<linkage>.csv)
        bad = [k for k in self.attack_capture_groups
               if not (isinstance(k, str) and re.fullmatch(r"[A-Za-z0-9_.-]+", k))]
        if bad:
            raise ConfigError(f"attack kinds {bad} are not non-empty names of letters, digits, '_', '-' and '.'")
        if not (0.0 < self.significance < 1.0):
            raise ConfigError("significance must be in (0, 1)")
        if not (0.0 < self.frequency_hz < math.inf):
            raise ConfigError("frequency_hz must be positive and finite")
        try:
            return HierarchyParams(r=self.r, alpha=self.alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def echo(self):
        return {
            "frequency_hz": self.frequency_hz,
            "linkages": list(self.linkages),
            "r": self.r,
            "alpha": self.alpha,
            "significance": self.significance,
            "dissimilarity": self.dissimilarity,
            "allow_intersection": self.allow_intersection,
        }


@dataclass(frozen=True)
class SimilaritySample:
    """Similarities of one comparison group, one per (capture_id, capture_id) pair."""

    values: tuple
    pair_ids: tuple


@dataclass(frozen=True)
class VerdictReport:
    schema: int
    config: dict
    diagnostics: tuple  # per-capture dicts: capture_id, source_path, label, kind, n_signals, t, dropped
    benign_samples: dict  # linkage -> SimilaritySample
    entries: dict  # (attack_kind, linkage) -> entry dict

    def to_dict(self):
        return {
            "schema": self.schema,
            "config": self.config,
            "diagnostics": list(self.diagnostics),
            "benign_samples": {
                linkage: {"values": list(s.values), "pair_ids": [list(p) for p in s.pair_ids]}
                for linkage, s in self.benign_samples.items()
            },
            "results": [
                {"attack_kind": kind, "linkage": linkage, **entry}
                for (kind, linkage), entry in sorted(self.entries.items())
            ],
        }


def prepare(capture, frequency_hz, dissimilarity):
    """Resample, correlate and transform one capture for clustering.

    Returns (SignalMatrix, CorrelationMatrix, DissimilarityMatrix). A
    DataError is re-raised naming the capture and the file it came from.
    """
    try:
        m = resample(capture, frequency_hz)
        c = pearson_matrix(m)
        return m, c, to_dissimilarity(c, mode=dissimilarity)
    except DataError as exc:
        raise DataError(f"capture {capture.capture_id!r} ({capture.source_path or 'inline'}): {exc}") from exc


def run(config):
    """Execute the full forensic pipeline and return a VerdictReport.

    When config.output_dir is set, report.json, similarities.jsonl and
    per-sample density CSVs are written there, only after every computation
    has succeeded.
    """
    params = config.validate()
    attack_groups = config.attack_capture_groups
    captures = list(config.benign_captures) + [c for g in attack_groups.values() for c in g]
    seen = set()
    for cap in captures:
        if cap.capture_id in seen:
            raise DataError(f"duplicate capture_id {cap.capture_id!r}")
        seen.add(cap.capture_id)

    diagnostics = []
    dissims = {}
    for cap in captures:
        m, _c, dissims[cap.capture_id] = prepare(cap, config.frequency_hz, config.dissimilarity)
        diagnostics.append({
            "capture_id": cap.capture_id,
            "source_path": cap.source_path,
            "label": cap.label,
            "attack_kind": cap.attack_kind,
            "n_signals": len(m.signal_ids),
            "t": int(m.grid.size),
            "dropped_constant": list(m.dropped_constant),
        })

    # each capture is clustered exactly once per linkage
    dendrograms = {}  # (capture_id, linkage) -> Dendrogram
    for linkage in config.linkages:
        for cap_id, dm in dissims.items():
            dendrograms[(cap_id, linkage)] = agglomerate(dm, linkage)

    # one batch per linkage: the C(k, 2) benign pairs first, then attack x benign for
    # each non-empty kind, whose pairs are pair_ids[lo:hi] for its (kind, lo, hi)
    benign_ids = [c.capture_id for c in config.benign_captures]
    pair_ids = list(combinations(benign_ids, 2))
    n_benign = len(pair_ids)
    groups = []
    for kind, caps in attack_groups.items():
        if caps:
            lo = len(pair_ids)
            pair_ids += [(c.capture_id, b) for c in caps for b in benign_ids]
            groups.append((kind, lo, len(pair_ids)))
    benign_samples = {}
    entries = {}
    for linkage in config.linkages:
        scores = similarities([(dendrograms[(a, linkage)], dendrograms[(b, linkage)]) for a, b in pair_ids],
                              params, allow_intersection=config.allow_intersection)
        values = tuple(s.value for s in scores)
        benign_samples[linkage] = bsample = SimilaritySample(values=values[:n_benign],
                                                             pair_ids=tuple(pair_ids[:n_benign]))
        for kind, lo, hi in groups:
            t = mann_whitney(bsample.values, values[lo:hi], significance=config.significance)
            entries[(kind, linkage)] = {
                "u": t.u_statistic,
                "p_value": t.p_value,
                "method": t.method,
                "significant": t.significant,
                "n_benign_pairs": t.n1,
                "n_attack_pairs": t.n2,
                "attack_values": list(values[lo:hi]),
                "attack_pair_ids": [list(p) for p in pair_ids[lo:hi]],
            }

    report = VerdictReport(schema=SCHEMA_VERSION, config=config.echo(),
                           diagnostics=tuple(diagnostics),
                           benign_samples=benign_samples, entries=entries)
    if config.output_dir:
        _write_outputs(report, config, params)
    return report


def _write_outputs(report, config, params):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")

    with open(out / "similarities.jsonl", "w", encoding="utf-8") as fh:
        for linkage, sample in report.benign_samples.items():
            for (a, b), v in zip(sample.pair_ids, sample.values):
                fh.write(json.dumps({"capture_a": a, "capture_b": b, "linkage": linkage,
                                     "r": params.r, "alpha": params.alpha, "similarity": v}) + "\n")
        for (kind, linkage), entry in sorted(report.entries.items()):
            for (a, b), v in zip(entry["attack_pair_ids"], entry["attack_values"]):
                fh.write(json.dumps({"capture_a": a, "capture_b": b, "linkage": linkage,
                                     "r": params.r, "alpha": params.alpha, "similarity": v,
                                     "attack_kind": kind}) + "\n")

    for linkage, sample in report.benign_samples.items():
        _write_density(out / f"density_benign_{linkage}.csv", sample.values)
    for (kind, linkage), entry in report.entries.items():
        _write_density(out / f"density_{kind}_{linkage}.csv", entry["attack_values"])


def _write_density(path, values):
    if len(values) < 2 or len(set(values)) < 2:
        return  # degenerate sample: no curve to export
    curve = density_export(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,density\n")
        for x, dens in curve:
            fh.write(f"{x!r},{dens!r}\n")


def verdict(report):
    """Condense a report into the per-attack detection tally.

    Returns (summary_text, tally) where tally maps each linkage to
    (detected, total attack kinds).
    """
    kinds = sorted({kind for kind, _ in report.entries})
    linkages = report.config["linkages"]
    lines = []
    tally = {linkage: 0 for linkage in linkages}
    for kind in kinds:
        detected_by = [l for l in linkages
                       if report.entries.get((kind, l), {}).get("significant")]
        for l in detected_by:
            tally[l] += 1
        ps = ", ".join(f"{l}={report.entries[(kind, l)]['p_value']:.3f}"
                       for l in linkages if (kind, l) in report.entries)
        lines.append(f"{kind}: detected by {{{', '.join(detected_by) or 'none'}}} ({ps})")
    if kinds:
        for l in linkages:
            lines.append(f"{l.capitalize()} detected {tally[l]} of {len(kinds)}")
    else:
        lines.append("no attack groups supplied; benign diagnostics only")
        for diag in report.diagnostics:
            lines.append(f"  {diag['capture_id']}: {diag['n_signals']} signals, "
                         f"T={diag['t']}, dropped={len(diag['dropped_constant'])}")
    return "\n".join(lines), {l: (tally[l], len(kinds)) for l in linkages}
