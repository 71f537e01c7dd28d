"""Self-tests for the benchmark harness.

    python3 -m pytest bench -q        (or: python3 bench/test_harness.py)

Run from the root of a canclust checkout. The smoke tests run each kind of
workload at a tiny size through the same code path as a real run.
"""

import copy
import json
import shutil
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import inputs  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _summary():
    benign = ["benign_00", "benign_01", "benign_02"]
    pairs = [("benign_00", "benign_01"), ("benign_00", "benign_02"), ("benign_01", "benign_02")]
    return {
        "benign": {"ward": {check.key(*p): 0.9 - 0.01 * i for i, p in enumerate(pairs)}},
        "cells": {"correlated_break|ward": {
            "significant": True, "method": "exact", "p_value": 0.01,
            "values": {check.key("correlated_break_00", b): 0.5 + 0.01 * i for i, b in enumerate(benign)}}},
    }


def _write_outputs(out, summary):
    """An analyze output directory holding exactly what the summary says."""
    out.mkdir(parents=True, exist_ok=True)
    benign = summary["benign"]["ward"]
    cell = summary["cells"]["correlated_break|ward"]
    report = {
        "benign_samples": {"ward": {"values": list(benign.values()),
                                    "pair_ids": [k.split("|") for k in benign]}},
        "results": [{"attack_kind": "correlated_break", "linkage": "ward", "u": 0.0,
                     "p_value": cell["p_value"], "method": cell["method"], "significant": cell["significant"],
                     "n_benign_pairs": len(benign), "n_attack_pairs": len(cell["values"]),
                     "attack_values": list(cell["values"].values()),
                     "attack_pair_ids": [k.split("|") for k in cell["values"]]}],
    }
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    rows = [{"capture_a": k.split("|")[0], "capture_b": k.split("|")[1], "linkage": "ward", "similarity": v}
            for k, v in benign.items()]
    rows += [{"capture_a": k.split("|")[0], "capture_b": k.split("|")[1], "linkage": "ward", "similarity": v,
              "attack_kind": "correlated_break"} for k, v in cell["values"].items()]
    (out / "similarities.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    for name in ("density_benign_ward.csv", "density_correlated_break_ward.csv"):
        (out / name).write_text("x,density\n0.5,1.0\n", encoding="utf-8")


MANIFEST = ([{"capture_id": f"benign_0{i}", "label": "benign", "attack_kind": ""} for i in range(3)]
            + [{"capture_id": "correlated_break_00", "label": "attack", "attack_kind": "correlated_break"}])


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_consistent_outputs_pass(self):
        _write_outputs(self.tmp, _summary())
        summary, problems = check.analyze_outputs(self.tmp, MANIFEST, ["ward"])
        self.assertEqual(problems, [])
        self.assertEqual(check.compare_analyze(summary, _summary()), [])

    def test_flipped_significant_flag_is_flagged(self):
        ref = _summary()
        flipped = copy.deepcopy(ref)
        flipped["cells"]["correlated_break|ward"]["significant"] = False
        self.assertEqual(len(check.compare_analyze(flipped, ref)), 1)
        _write_outputs(self.tmp, flipped)  # also inconsistent with its own p-value
        _summary_read, problems = check.analyze_outputs(self.tmp, MANIFEST, ["ward"])
        self.assertTrue(any("significant" in p for p in problems), problems)

    def test_similarity_moved_by_1e9_is_flagged(self):
        ref = _summary()
        for table in (lambda s: s["benign"]["ward"], lambda s: s["cells"]["correlated_break|ward"]["values"]):
            moved = copy.deepcopy(ref)
            first = next(iter(table(moved)))
            table(moved)[first] += 1e-9
            self.assertEqual(len(check.compare_analyze(moved, ref)), 1)
            table(moved)[first] -= 1e-9 - 1e-11  # within tolerance
            self.assertEqual(check.compare_analyze(moved, ref), [])

    def test_p_value_and_method_must_match(self):
        ref = _summary()
        changed = copy.deepcopy(ref)
        changed["cells"]["correlated_break|ward"]["p_value"] = 0.0100001
        changed["cells"]["correlated_break|ward"]["method"] = "normal_approx"
        self.assertEqual(len(check.compare_analyze(changed, ref)), 2)

    def test_missing_pair_is_flagged(self):
        summary = _summary()
        del summary["benign"]["ward"]["benign_01|benign_02"]
        _write_outputs(self.tmp, summary)
        _summary_read, problems = check.analyze_outputs(self.tmp, MANIFEST, ["ward"])
        self.assertTrue(any("pairs, expected 3" in p for p in problems), problems)

    def test_simtest_output(self):
        line = json.dumps({"capture_a": "a", "capture_b": "b", "linkage": "ward", "similarity": 0.75})
        self.assertEqual(check.simtest_output(line, "a", "b", "ward"), (0.75, []))
        self.assertEqual(len(check.simtest_output(line, "b", "a", "ward")[1]), 1)
        self.assertEqual(len(check.simtest_output("Traceback", "a", "b", "ward")[1]), 1)
        self.assertEqual(len(check.compare_simtest(0.75 + 1e-9, 0.75, "a|b|ward")), 1)
        self.assertEqual(check.compare_simtest(0.75 + 1e-11, 0.75, "a|b|ward"), [])


def _span(sid, parent, name, start, end, op=0, **attrs):
    return {"id": sid, "parent": parent, "name": name, "op": op, "start": start, "end": end, **attrs}


class SpanTest(unittest.TestCase):
    def test_self_time_on_hand_built_tree(self):
        tree = [
            _span(0, None, "pipeline.run", 0.0, 10.0),
            _span(1, 0, "stats.pair_loop", 1.0, 4.0, pairs=3),
            _span(2, 1, "clusim.similarity", 1.5, 2.0),
            _span(3, 0, "hierarchy.agglomerate", 3.0, 6.0),  # overlaps span 1
            _span(4, 0, "hierarchy.agglomerate", 9.0, 12.0),  # runs past its parent's end
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 2.5)
        self.assertAlmostEqual(selfs[2], 0.5)
        self.assertAlmostEqual(selfs[3], 3.0)
        layers = spans.op_layers(tree)
        self.assertAlmostEqual(layers["pipeline.self_s"], 4.0)
        self.assertAlmostEqual(layers["hierarchy.agglomerate_s"], 6.0)
        self.assertEqual(layers["hierarchy.agglomerate_calls"], 2)
        self.assertEqual(layers["stats.pairs_scored"], 3)
        self.assertAlmostEqual(layers["stats.pair_loop_self_s"], 2.5)

    def test_layer_metrics_ratios_and_medians(self):
        tree = []
        for op, scale in ((0, 1.0), (2, 3.0), (4, 2.0)):
            base = len(tree)
            tree += [_span(base, None, "clusim.affinity", 0.0, scale, op=op, tree=1),
                     _span(base + 1, None, "clusim.affinity", scale, 2 * scale, op=op, tree=1),
                     _span(base + 2, None, "clusim.affinity", 2 * scale, 3 * scale, op=op, tree=2),
                     _span(base + 3, None, "ingest.parse", 0.0, 0.5, op=op, bytes=2_000_000)]
        metrics, repeat = spans.layer_metrics(tree, {0: {}, 2: {}, 4: {}}, [1.0, 3.0], [2.0, 5.0], [1.5])
        self.assertTrue(repeat)
        self.assertEqual(metrics["clusim.affinity_calls"], 3)
        self.assertAlmostEqual(metrics["clusim.affinity_distinct_ratio"], 2 / 3)
        self.assertAlmostEqual(metrics["clusim.affinity_s"], 6.0)  # median of 3, 9, 6
        self.assertAlmostEqual(metrics["ingest.parse_mb_per_s"], 4.0)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 1.5)
        self.assertEqual(metrics["trace.ops"], 3)
        self.assertEqual(list(metrics), list(spans.LAYER_METRICS))


class SpeedTest(unittest.TestCase):
    def test_corrected_median_on_hand_built_runs(self):
        timed = [(2.0, {"samples": [1e-4, 3e-4, 2e-4], "overhead_s": 0.1}),
                 (3.0, {"samples": [2e-4], "overhead_s": 0.2}),
                 (1.0, None)]  # an operation that failed before its probe reported
        ref = speed.REF_PROBE_S
        self.assertAlmostEqual(speed.corrected(2.0, timed[0][1], 0.8), 1.9 * (ref / 2e-4) ** 0.8)
        self.assertAlmostEqual(speed.corrected(3.0, timed[1][1], 1.0), 2.8 * ref / 2e-4)
        self.assertEqual(speed.corrected(1.0, None, 0.8), 1.0)
        value, raw = speed.corrected_median(timed, 1.0)
        self.assertAlmostEqual(value, 1.9 * ref / 2e-4)  # median of 1.9 ref/2e-4, 2.8 ref/2e-4 and 1.0
        self.assertAlmostEqual(raw, 2.0)

    def test_probe_samples_inside_its_block_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Probe() as probe:
            start = time.perf_counter()
            while time.perf_counter() - start < 10 * speed.INTERVAL_S:
                sum(range(1000))
        summary = probe.summary()
        self.assertGreaterEqual(len(summary["samples"]), 5)
        self.assertAlmostEqual(summary["overhead_s"], sum(summary["samples"][1:]))
        self.assertLess(summary["overhead_s"], time.perf_counter() - start)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class InputTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        spec = inputs.SparseCorpus(n_groups=2, per_group=2, duration_s=5.0, rates_hz=(20, 4), n_benign=2,
                                   n_break=1, n_max_value=1, constant_pool=2, constant_per_capture=1)
        with tempfile.TemporaryDirectory() as tmp:
            docs = []
            for seed in (3, 3, 4):
                man = inputs.write_sparse_corpus(spec, seed, Path(tmp) / str(len(docs)))
                docs.append([Path(m["path"]).read_bytes() for m in man])
            self.assertEqual(docs[0], docs[1])
            self.assertNotEqual(docs[0], docs[2])

    def test_benchmark_json_names_what_run_reports(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, spans.LAYER_METRICS)
        self.assertEqual(set(run.load_reference()["workloads"]), set(run.WORKLOADS))


SMOKE = {
    "road-sparse": run.Workload("analyze", inputs.SparseCorpus(n_groups=2, per_group=3, duration_s=20.0,
                                                               rates_hz=(20, 4), n_benign=3, n_break=1,
                                                               n_max_value=1, constant_pool=2,
                                                               constant_per_capture=1),
                                cli_args=run.WORKLOADS["road-sparse"].cli_args),
    "simtest-cli": run.Workload("simtest", inputs.WideCorpus(n_groups=2, per_group=3, duration_s=10.0,
                                                             rate_hz=10.0, n_benign=1, n_break=1)),
}


class SmokeTest(unittest.TestCase):
    def test_each_workload_at_smoke_size(self):
        for name, workload in SMOKE.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace), tempfile.TemporaryDirectory() as tmp:
                    start = time.monotonic()
                    result, _res, lines = run.run_workload(name, workload, 7, 0.5, trace, Path(tmp))
                    self.assertLess(time.monotonic() - start, 60)
                    self.assertTrue(result["correct"], "\n".join(lines))
                    expected = run.END_TO_END if trace == 0 else spans.LAYER_METRICS
                    self.assertEqual(set(result["metrics"]), set(expected))
                    if trace:
                        self.assertGreater(result["metrics"]["hierarchy.agglomerate_calls"]["value"], 0)
                        self.assertGreater(result["metrics"]["clusim.affinity_calls"]["value"], 0)


class ReferenceCheckTest(unittest.TestCase):
    def test_reference_seed_is_checked_on_every_seed(self):
        """A run on another seed also runs the reference seed's inputs, and a 1e-9 move there fails it."""
        for name in ("road-sparse", "simtest-cli"):
            workload = SMOKE[name]
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                (tmp / "ref").mkdir()
                if workload.kind == "analyze":
                    ref = run.run_workload(name, workload, 0, 0, 1, tmp / "ref")[1]["summary"]
                    moved = copy.deepcopy(ref)
                    table = next(iter(moved["benign"].values()))
                else:
                    ref = make_reference.simtest_reference(workload, 0, tmp / "ref")
                    moved = copy.deepcopy(ref)
                    table = moved["pairs"]
                table[next(iter(table))] += 1e-9
                for doc, failed in ((ref, 0), (moved, 1)):
                    work_dir = tmp / f"moved{failed}"
                    work_dir.mkdir()
                    result, res, lines = run.run_workload(name, workload, 7, 0, 1, work_dir,
                                                          {"seed": 0, "workloads": {name: doc}})
                    self.assertEqual(result["failed"], failed, "\n".join(lines))
                    self.assertEqual(len(res["reference_ops"]), 1 if workload.kind == "analyze" else 4)


if __name__ == "__main__":
    unittest.main()
