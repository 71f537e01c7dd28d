"""Across captures: from checked sources and capture summaries to a verdict report.

check_sources() checks attack kinds and capture ids before any capture is
touched, and its sources are the one record of each capture's role.
conclude() scores each linkage's pairs of pipeline.summarize()'s dendrograms in
one clusim.similarities() batch into a capture x capture table, runs the
Mann-Whitney test per (attack kind, linkage) cell on the samples that
VerdictReport.sample() reads from it, and emits a VerdictReport, which
write_outputs() writes to a directory. run() does all of this for in-memory
captures. verdict() condenses a report into a tally. The CLI imports this
module only for `analyze`.
"""

import json
from itertools import combinations, count, product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .clusim import common_ids, similarities
from .errors import ConfigError, DataError, is_name
from .pipeline import RunConfig, fan_out, summarize
from .stats import density_export, mann_whitney

SCHEMA_VERSION = 1


def check_sources(benign, attacks):
    """Sources by kind, None first for benign, after checking attack kind names and capture ids.

    benign and each group of attacks (kind -> group) are (capture_id, source path or "" in memory)
    pairs, in run order; a duplicate id is rejected, naming both sources. Nothing else records roles.
    """
    # a kind names output files (density_<kind>_<linkage>.csv), so it cannot be the benign sample's name
    bad = [k for k in attacks if k == "benign" or not is_name(k)]
    if bad:
        raise ConfigError(f"attack kinds {bad} are not names of letters, digits, '_', '-' and '.' other than 'benign'")
    sources = {None: benign, **attacks}
    seen = {}  # capture_id -> its first source
    for cap_id, source in (s for group in sources.values() for s in group):
        if cap_id in seen:
            raise DataError(f"duplicate capture_id {cap_id!r} ({seen[cap_id] or 'inline'} and {source or 'inline'})")
        seen[cap_id] = source
    return sources


def _cells(positions, kind):
    """The (row, column) table cells of a sample, in report order: the benign block's upper triangle for
    kind None, else kind's rows x the benign columns. Nothing else decides which cells form a sample."""
    benign = positions[None]
    return list(combinations(benign, 2) if kind is None else product(positions[kind], benign))


class VerdictReport(NamedTuple):
    schema: int
    config: RunConfig
    diagnostics: tuple  # per-capture dicts: capture_id, source_path, label, attack_kind, then summarize()'s fields
    tables: dict  # linkage -> read-only capture x capture similarities in diagnostics order, NaN where unscored
    positions: dict  # None (benign) or attack kind -> positions of its captures in diagnostics
    entries: dict  # (attack_kind, linkage) -> the Mann-Whitney test's fields

    def sample(self, linkage, kind=None):
        """(pair ids, values) of linkage's benign sample, or of kind's attack x benign sample, in report order."""
        cells, table = _cells(self.positions, kind), self.tables[linkage].tolist()
        ids = [d["capture_id"] for d in self.diagnostics]
        return [(ids[a], ids[b]) for a, b in cells], [table[a][b] for a, b in cells]

    def to_dict(self):
        def lists(linkage, kind=None, keys=("values", "pair_ids")):  # as report.json lists a sample
            ids, values = self.sample(linkage, kind)
            return dict(zip(keys, (values, [list(p) for p in ids])))

        return {
            "schema": self.schema,
            "config": self.config._asdict(),
            "diagnostics": list(self.diagnostics),
            "benign_samples": {linkage: lists(linkage) for linkage in self.tables},
            "results": [
                {"attack_kind": kind, "linkage": linkage, **entry,
                 **lists(linkage, kind, ("attack_values", "attack_pair_ids"))}
                for (kind, linkage), entry in sorted(self.entries.items())
            ],
        }


def run(config, benign, attacks=None):
    """The VerdictReport of in-memory benign captures and attacks, which maps each kind to its captures."""
    def sources(captures):
        return [(c.capture_id, c.source_path) for c in captures]
    attacks = attacks or {}
    checked = check_sources(sources(benign), {kind: sources(caps) for kind, caps in attacks.items()})
    captures = [c for caps in (benign, *attacks.values()) for c in caps]
    return conclude(config, checked, fan_out(lambda cap: summarize(cap, config), captures))


def conclude(config, sources, summaries):
    """The VerdictReport of the summaries of sources' captures, one fan_out() item per linkage.

    sources is what check_sources() returns; summaries are summarize()'s, one per capture in the same
    order. Each capture's diagnostics entry is its id, source path and role, then its summary's fields.
    """
    roles = [{"capture_id": cap_id, "source_path": source, "label": "attack" if kind else "benign",
              "attack_kind": kind or ""} for kind, group in sources.items() for cap_id, source in group]
    diagnostics = tuple({**role, **measured} for role, (measured, _dends) in zip(roles, summaries, strict=True))
    position = count()
    positions = {kind: tuple(next(position) for _ in group) for kind, group in sources.items()}
    if len(positions[None]) < 2:  # checked after loading, so a bad file is reported first
        raise ConfigError("need at least 2 benign captures")
    # one batch per linkage: every sample's cells, the benign sample's first, then each kind's in sources order
    pairs = [cell for kind in positions for cell in _cells(positions, kind)]
    for a, b in pairs:  # element sets are the same under every linkage: each pair is checked once, naming it
        try:
            common_ids(summaries[a][1][0], summaries[b][1][0], config.allow_intersection)
        except DataError as exc:
            named = (f"{roles[k]['capture_id']!r} ({roles[k]['source_path'] or 'inline'})" for k in (a, b))
            raise DataError(f"captures {' and '.join(named)}: {exc}") from None
    params = config.params

    def score(j):
        batch = [(summaries[a][1][j], summaries[b][1][j]) for a, b in pairs]
        return tuple(s.value for s in similarities(batch, params, allow_intersection=config.allow_intersection))

    rows, cols = zip(*pairs)
    tables = {}
    for linkage, values in zip(config.linkages, fan_out(score, range(len(config.linkages)))):
        tables[linkage] = table = np.full((len(roles), len(roles)), np.nan)
        table[rows, cols] = table[cols, rows] = values
        table.flags.writeable = False

    report = VerdictReport(schema=SCHEMA_VERSION, config=config, diagnostics=diagnostics, tables=tables,
                           positions=positions, entries={})
    for linkage in config.linkages:
        _ids, benign = report.sample(linkage)
        for kind, group in positions.items():
            if kind is not None and group:
                t = mann_whitney(benign, report.sample(linkage, kind)[1], significance=config.significance)
                report.entries[(kind, linkage)] = {"u": t.u_statistic, "p_value": t.p_value, "method": t.method,
                                                   "significant": t.significant, "n_benign_pairs": t.n1,
                                                   "n_attack_pairs": t.n2}
    return report


def write_outputs(report, output_dir):
    """Write report.json, similarities.jsonl and the density CSVs of a report to output_dir."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")

    # each linkage's benign sample, then each test cell's attack sample
    samples = {(kind, linkage): report.sample(linkage, kind)
               for kind, linkage in [(None, linkage) for linkage in report.tables] + sorted(report.entries)}
    r, alpha = report.config.r, report.config.alpha
    with open(out / "similarities.jsonl", "w", encoding="utf-8") as fh:
        for (kind, linkage), (pair_ids, values) in samples.items():
            tag = {"attack_kind": kind} if kind else {}
            for (a, b), v in zip(pair_ids, values):
                fh.write(json.dumps({"capture_a": a, "capture_b": b, "linkage": linkage,
                                     "r": r, "alpha": alpha, "similarity": v, **tag}) + "\n")

    for (kind, linkage), (_pair_ids, values) in samples.items():
        _write_density(out / f"density_{kind or 'benign'}_{linkage}.csv", values)


def _write_density(path, values):
    if len(values) < 2 or len(set(values)) < 2:
        path.unlink(missing_ok=True)  # degenerate sample: no curve, and none left from an earlier report
        return
    rows = "".join(f"{x!r},{dens!r}\n" for x, dens in density_export(values).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,density\n" + rows)


def verdict(report):
    """Condense a report into the per-attack detection tally.

    Returns (summary_text, tally) where tally maps each linkage to
    (detected, total attack kinds).
    """
    kinds = sorted({kind for kind, _ in report.entries})
    linkages = report.config.linkages
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
