"""Output checks for every benchmark operation.

Structural checks hold for any seed: an analyze run scores all C(k, 2)
benign pairs and the full attack x benign product for every linkage, every
similarity lies in [0, 1], every verdict follows from its p-value, and the
files on disk agree with each other; a simtest query prints one JSON line
naming the pair it was asked about. On the seed that has a stored reference,
every verdict, test method and p-value must match it and every similarity
must lie within SIM_TOL of it. Within one run, every repeat of an operation
must agree with its first outcome to the same tolerances.

Checks return a list of problem strings; an empty list means the output
passed. Only the standard library is used.
"""

import json
import math
from itertools import combinations
from pathlib import Path

SIM_TOL = 1e-10
# p-values are functions of ranks; this only absorbs last-digit arithmetic
P_REL_TOL = 1e-12
SIGNIFICANCE = 0.05
METHODS = ("exact", "normal_approx")


def key(*parts):
    return "|".join(parts)


def _in_unit(v):
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def _sample_problems(where, pairs, values, expected_pairs):
    problems = []
    got = [tuple(p) for p in pairs]
    if len(got) != len(expected_pairs) or set(got) != set(expected_pairs):
        problems.append(f"{where}: {len(got)} pairs, expected {len(expected_pairs)}")
    bad = [v for v in values if not _in_unit(v)]
    if bad:
        problems.append(f"{where}: {len(bad)} similarities outside [0, 1], e.g. {bad[0]!r}")
    return problems


def analyze_outputs(out_dir, manifest, linkages):
    """Check one analyze run's output directory; return (summary, problems).

    The summary holds every verdict, method, p-value and similarity keyed by
    names, in the form stored as the reference.
    """
    out = Path(out_dir)
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        lines = (out / "similarities.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return None, [f"outputs unreadable: {exc}"]

    benign = [m["capture_id"] for m in manifest if m["label"] == "benign"]
    kinds = {}
    for m in manifest:
        if m["label"] == "attack":
            kinds.setdefault(m["attack_kind"], []).append(m["capture_id"])
    benign_pairs = list(combinations(benign, 2))
    problems = []
    summary = {"benign": {}, "cells": {}}
    try:
        for linkage in linkages:
            sample = report["benign_samples"][linkage]
            problems += _sample_problems(f"benign/{linkage}", sample["pair_ids"], sample["values"], benign_pairs)
            summary["benign"][linkage] = {key(*p): v for p, v in zip(sample["pair_ids"], sample["values"])}
        cells = {(r["attack_kind"], r["linkage"]): r for r in report["results"]}
        for kind, attack_ids in sorted(kinds.items()):
            expected = [(a, b) for a in attack_ids for b in benign]
            for linkage in linkages:
                cell = cells.get((kind, linkage))
                if cell is None:
                    problems.append(f"{kind}/{linkage}: no test result")
                    continue
                where = f"{kind}/{linkage}"
                problems += _sample_problems(where, cell["attack_pair_ids"], cell["attack_values"], expected)
                p = cell["p_value"]
                if not _in_unit(p):
                    problems.append(f"{where}: p-value {p!r} outside [0, 1]")
                elif cell["significant"] != (p < SIGNIFICANCE):
                    problems.append(f"{where}: significant={cell['significant']} but p={p!r}")
                if cell["method"] not in METHODS:
                    problems.append(f"{where}: unknown test method {cell['method']!r}")
                if (cell["n_benign_pairs"], cell["n_attack_pairs"]) != (len(benign_pairs), len(expected)):
                    problems.append(f"{where}: sample sizes {cell['n_benign_pairs']}, {cell['n_attack_pairs']}")
                summary["cells"][key(kind, linkage)] = {
                    "significant": cell["significant"], "method": cell["method"], "p_value": p,
                    "values": {key(*pr): v for pr, v in zip(cell["attack_pair_ids"], cell["attack_values"])},
                }
    except (KeyError, TypeError) as exc:
        return None, problems + [f"report.json lacks {exc!r}"]

    # similarities.jsonl repeats every scored pair of report.json
    n_expected = len(linkages) * (len(benign_pairs) + len(benign) * sum(len(v) for v in kinds.values()))
    if len(rows) != n_expected:
        problems.append(f"similarities.jsonl: {len(rows)} rows, expected {n_expected}")
    for row in rows:
        kind = row.get("attack_kind")
        pair = key(row.get("capture_a", ""), row.get("capture_b", ""))
        linkage = row.get("linkage", "")
        table = (summary["cells"].get(key(kind, linkage), {}).get("values", {}) if kind
                 else summary["benign"].get(linkage, {}))
        if pair not in table or not abs(table[pair] - row.get("similarity", math.inf)) <= SIM_TOL:
            problems.append(f"similarities.jsonl: {pair}/{linkage} disagrees with report.json")
            break
    for linkage, sample in summary["benign"].items():
        _density_problem(out / f"density_benign_{linkage}.csv", sample.values(), problems)
    for cell_key, cell in summary["cells"].items():
        kind, linkage = cell_key.split("|")
        _density_problem(out / f"density_{kind}_{linkage}.csv", cell["values"].values(), problems)
    return summary, problems


def _density_problem(path, values, problems):
    if len(set(values)) < 2:
        return  # degenerate samples have no curve
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
    except OSError:
        problems.append(f"{path.name} missing")
        return
    if header != "x,density":
        problems.append(f"{path.name}: header {header!r}")


def compare_analyze(summary, ref, what="reference"):
    """Problems where an analyze summary departs from a reference summary."""
    problems = []
    for linkage, values in ref["benign"].items():
        problems += _compare_values(f"benign/{linkage}", summary["benign"].get(linkage, {}), values, what)
    for where, rcell in ref["cells"].items():
        cell = summary["cells"].get(where)
        if cell is None:
            problems.append(f"{where}: missing, present in {what}")
            continue
        for field in ("significant", "method"):
            if cell[field] != rcell[field]:
                problems.append(f"{where}: {field} {cell[field]!r}, {what} {rcell[field]!r}")
        if not math.isclose(cell["p_value"], rcell["p_value"], rel_tol=P_REL_TOL, abs_tol=0.0):
            problems.append(f"{where}: p-value {cell['p_value']!r}, {what} {rcell['p_value']!r}")
        problems += _compare_values(where, cell["values"], rcell["values"], what)
    return problems


def _compare_values(where, got, ref, what):
    if set(got) != set(ref):
        return [f"{where}: pair set differs from {what}"]
    worst = max((abs(got[k] - ref[k]), k) for k in ref) if ref else (0.0, "")
    if not worst[0] <= SIM_TOL:
        return [f"{where}: similarity of {worst[1]} moved by {worst[0]:.3g} from {what}"]
    return []


def simtest_output(stdout, capture_a, capture_b, linkage):
    """Check one simtest query's stdout; return (similarity or None, problems)."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        value = doc["similarity"]
        named = (doc["capture_a"], doc["capture_b"], doc["linkage"])
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        return None, [f"simtest output unreadable: {exc!r}"]
    problems = []
    if named != (capture_a, capture_b, linkage):
        problems.append(f"simtest named {named}, asked {(capture_a, capture_b, linkage)}")
    if not _in_unit(value):
        problems.append(f"simtest similarity {value!r} outside [0, 1]")
    return value, problems


def compare_simtest(value, ref_value, key, what="reference"):
    if not abs(value - ref_value) <= SIM_TOL:
        return [f"simtest {key}: similarity {value!r}, {what} {ref_value!r}"]
    return []
