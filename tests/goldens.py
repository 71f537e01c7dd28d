"""Golden fixture cases and their verifier.

Every fixture under fixtures/v1/ is a JSON document holding a case's inputs,
its expected output, and a tolerance. verify_goldens() recomputes each case
from the stored inputs and compares; `PYTHONPATH=src python3 tests/goldens.py
--regen` rewrites the expected blocks from the current implementation
(idempotent, so any change to a canonical rule shows up as a fixture diff).

The dendrogram-similarity case pins the two reference scores (0.82 / 0.76 at
r=5.0, alpha=0.9) for three 4-leaf trees transcribed from the method's
illustrative figure; its tolerance is loose (0.05) because the trees come
from reading a drawing. Formula-level cases use tight tolerances.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from canclust.clusim import HierarchyParams, _transitions, affinity, similarities, similarity
from canclust.correlation import DissimilarityMatrix
from canclust.hierarchy import LINKAGES, Dendrogram, agglomerate
from canclust.stats import mann_whitney

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "v1"

# the three 4-leaf trees behind the 0.82 / 0.76 reference scores:
# (b) chain (((X1,X2),X3),X4); (a) same with X3/X4 swapped; (c) two balanced pairs
_FIG_TREES = {
    "a": {"leaf_ids": ["X1", "X2", "X3", "X4"], "linkage": "single",
          "merges": [[0, 1, 0.2, 2], [4, 3, 0.5, 3], [5, 2, 1.0, 4]]},
    "b": {"leaf_ids": ["X1", "X2", "X3", "X4"], "linkage": "single",
          "merges": [[0, 1, 0.2, 2], [4, 2, 0.5, 3], [5, 3, 1.0, 4]]},
    "c": {"leaf_ids": ["X1", "X2", "X3", "X4"], "linkage": "single",
          "merges": [[0, 2, 0.2, 2], [1, 3, 0.3, 2], [4, 5, 1.0, 4]]},
}

_CHAIN_DISSIM = [
    [0.0, 0.1, 0.5, 0.9],
    [0.1, 0.0, 0.5, 0.9],
    [0.5, 0.5, 0.0, 0.9],
    [0.9, 0.9, 0.9, 0.0],
]


def dendrogram_to_dict(dend):
    """Plain-JSON form of a Dendrogram, as the fixtures store it."""
    return {
        "leaf_ids": list(dend.leaf_ids),
        "linkage": dend.linkage,
        "merges": [[int(l), int(r), float(h), int(s)] for l, r, h, s in dend.merges],
    }


def dendrogram_from_dict(doc):
    merges = tuple((int(l), int(r), float(h), int(s)) for l, r, h, s in doc["merges"])
    return Dendrogram(leaf_ids=tuple(doc["leaf_ids"]), merges=merges, linkage=doc["linkage"])


def _batch_dendrograms():
    """Ten seeded trees over the ids s0..s20, each missing up to two of s0, s1, s2.

    Like captures that drop differing constant signals: their pairs compare
    trees restricted to 18, 19 and 20 common ids as well as whole trees.
    """
    rng = np.random.default_rng(14)
    dends = []
    for k in range(10):
        dropped = set(rng.choice(3, int(rng.integers(0, 3)), replace=False).tolist())
        ids = [f"s{i}" for i in rng.permutation(21).tolist() if i not in dropped]
        m = rng.uniform(0.05, 1.0, size=(len(ids), len(ids)))
        d = (m + m.T) / 2.0
        np.fill_diagonal(d, 0.0)
        dends.append(dendrogram_to_dict(agglomerate(DissimilarityMatrix(tuple(ids), d), LINKAGES[k % 4])))
    return dends


def _compute_similarities_batch(inputs):
    params = HierarchyParams(r=inputs["r"], alpha=inputs["alpha"])
    trees = [dendrogram_from_dict(doc) for doc in inputs["dendrograms"]]
    pairs = [(trees[i], trees[j]) for i, j in inputs["pairs"]]
    scores = similarities(pairs, params, allow_intersection=True)
    return {"values": [s.value for s in scores], "scores": [s.scores.tolist() for s in scores]}


def _compute_merge_order_chain(inputs):
    dm = DissimilarityMatrix(tuple(inputs["signal_ids"]), np.array(inputs["d"]))
    dend = agglomerate(dm, inputs["linkage"])
    return {"dendrogram": dendrogram_to_dict(dend)}


def _compute_similarity_bands(inputs):
    params = HierarchyParams(r=inputs["r"], alpha=inputs["alpha"])
    trees = {k: dendrogram_from_dict(v) for k, v in inputs["dendrograms"].items()}
    return {"sim_ab": similarity(trees["a"], trees["b"], params).value,
            "sim_bc": similarity(trees["b"], trees["c"], params).value}


def _compute_mw_exact(inputs):
    t = mann_whitney(inputs["x"], inputs["y"])
    return {"u": t.u_statistic, "p_value": t.p_value, "method": t.method}


def _compute_projection(inputs):
    dend = dendrogram_from_dict(inputs["dendrogram"])
    params = HierarchyParams(r=inputs["r"], alpha=inputs["alpha"])
    w = _transitions([dend], params.r)[0]
    p = affinity(dend, params)
    return {"transition": w.tolist(), "stationary": p.tolist()}


CASES = {
    "merge_order_chain": {
        "inputs": {"signal_ids": ["X1", "X2", "X3", "X4"], "d": _CHAIN_DISSIM, "linkage": "single"},
        "compute": _compute_merge_order_chain,
        "tolerance": 0.0,
    },
    "dendrogram_similarity_bands": {
        "inputs": {"dendrograms": _FIG_TREES, "r": 5.0, "alpha": 0.9},
        "compute": _compute_similarity_bands,
        "tolerance": 0.05,
        # figure-transcribed targets take precedence over the recomputed value
        "pinned": {"sim_ab": 0.82, "sim_bc": 0.76},
    },
    "mw_exact_small": {
        "inputs": {"x": [1, 2, 3], "y": [4, 5, 6]},
        "compute": _compute_mw_exact,
        "tolerance": 1e-12,
        "pinned": {"p_value": 0.1},
    },
    "affinity_projection": {
        "inputs": {"dendrogram": _FIG_TREES["b"], "r": -5.0, "alpha": 0.9},
        "compute": _compute_projection,
        "tolerance": 1e-9,
    },
    "similarities_batch": {
        "inputs": {"dendrograms": _batch_dendrograms(), "r": -5.0, "alpha": 0.9,
                   "pairs": [[i, j] for i in range(10) for j in range(i, 10)]},
        "compute": _compute_similarities_batch,
        "tolerance": 0.0,
    },
}


def _close(a, b, tol):
    if isinstance(a, dict):
        return set(a) == set(b) and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= tol
    return a == b


def regenerate(fixtures_dir=None):
    """Rewrite every fixture's expected block from the current code."""
    fixtures_dir = Path(fixtures_dir or FIXTURES_DIR)
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    for name, case in CASES.items():
        expected = case["compute"](case["inputs"])
        expected.update(case.get("pinned", {}))
        doc = {"name": name, "tolerance": case["tolerance"],
               "inputs": case["inputs"], "expected": expected}
        with open(fixtures_dir / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return sorted(CASES)


def verify_goldens(fixtures_dir=None):
    """Recompute each golden case and compare within its tolerance.

    Returns a list of {name, passed, detail} dicts; a missing fixture is a
    failure, not a crash.
    """
    fixtures_dir = Path(fixtures_dir or FIXTURES_DIR)
    results = []
    for name, case in sorted(CASES.items()):
        path = fixtures_dir / f"{name}.json"
        if not path.exists():
            results.append({"name": name, "passed": False, "detail": f"missing fixture {path}"})
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        actual = case["compute"](doc["inputs"])
        tol = doc["tolerance"]
        failures = [k for k, v in doc["expected"].items()
                    if k in actual and not _close(actual[k], v, tol)]
        passed = not failures
        detail = "ok" if passed else f"mismatch in {failures} (tol={tol})"
        results.append({"name": name, "passed": passed, "detail": detail})
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description="verify or regenerate golden fixtures")
    parser.add_argument("--regen", action="store_true")
    parser.add_argument("--fixtures-dir", default=None)
    args = parser.parse_args(argv)
    if args.regen:
        for name in regenerate(args.fixtures_dir):
            print(f"regenerated {name}")
        return 0
    results = verify_goldens(args.fixtures_dir)
    for res in results:
        print(f"{'PASS' if res['passed'] else 'FAIL'} {res['name']}: {res['detail']}")
    return 0 if all(r["passed"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
