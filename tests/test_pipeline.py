import json
from itertools import combinations

import pytest

from canclust import clusim
from canclust.cli import main
from canclust.errors import ConfigError, DataError
from canclust.hierarchy import agglomerate
from canclust.ingest import parse_capture
from canclust.pipeline import RunConfig, prepare, run, verdict
from canclust.synth import AttackSpec, SynthSpec, generate, inject, signal_id, write_wide_csv

SPEC = SynthSpec(n_groups=3, signals_per_group=3, duration_s=40.0, rate_hz=10.0,
                 intra_group_rho=0.95, noise_sigma=1.0)


def make_benign(k, base_seed=500):
    return tuple(generate(SynthSpec(**{**SPEC.__dict__, "seed": base_seed + i}),
                          capture_id=f"benign_{i}") for i in range(k))


def make_attacks(kind, k, base_seed=900):
    # a whole-window max_value attack would pin targets constant and get
    # them pruned at ingest; keep part of the window benign instead
    window = (4.0, 36.0) if kind == "max_value" else (0.0, 40.0)
    caps = []
    for i in range(k):
        # rotate the attacked group and alternate how many of its members are
        # hit, so repeated attack captures rewire the tree into different
        # shapes and the attack sample is not a point mass (rotation alone
        # gives mirror-image trees, whose scores differ only by float noise)
        targets = tuple(signal_id(i % SPEC.n_groups, j) for j in range(3 - i % 2))
        atk = AttackSpec(kind, targets, *window)
        cap = generate(SynthSpec(**{**SPEC.__dict__, "seed": base_seed + i}),
                       capture_id=f"attack_{kind}_{i}")
        caps.append(inject(cap, atk, seed=base_seed + 50 + i))
    return tuple(caps)


def pin(capture, sid):
    """The capture with signal sid held at its maximum throughout, so resampling drops it as constant."""
    return inject(capture, AttackSpec("max_value", (sid,), 0.0, SPEC.duration_s))


@pytest.fixture(scope="module")
def small_report():
    config = RunConfig(benign_captures=make_benign(5),
                       attack_capture_groups={"correlated_break": make_attacks("correlated_break", 2)},
                       linkages=("average", "ward"))
    return run(config)


class TestRun:
    def test_sample_sizes(self, small_report):
        for linkage in ("average", "ward"):
            assert len(small_report.benign_samples[linkage].values) == 10  # C(5,2)
            entry = small_report.entries[("correlated_break", linkage)]
            assert entry["n_benign_pairs"] == 10
            assert entry["n_attack_pairs"] == 10  # 2 x 5
            assert len(entry["attack_values"]) == 10

    def test_diagnostics_cover_all_captures(self, small_report):
        ids = [d["capture_id"] for d in small_report.diagnostics]
        assert len(ids) == 7 and len(set(ids)) == 7
        labels = {d["capture_id"]: d["label"] for d in small_report.diagnostics}
        assert labels["benign_0"] == "benign"
        assert labels["attack_correlated_break_0"] == "attack"
        for d in small_report.diagnostics:
            assert d["n_signals"] == 9 and d["t"] == 400
            assert d["source_path"] == ""  # in-memory capture

    def test_deterministic(self, small_report):
        config = RunConfig(benign_captures=make_benign(5),
                           attack_capture_groups={"correlated_break": make_attacks("correlated_break", 2)},
                           linkages=("average", "ward"))
        again = run(config)
        assert again.to_dict() == small_report.to_dict()

    def test_report_is_json_serializable(self, small_report):
        doc = json.loads(json.dumps(small_report.to_dict()))
        assert doc["schema"] == 1
        assert {r["linkage"] for r in doc["results"]} == {"average", "ward"}
        assert doc["config"]["linkages"] == ["average", "ward"]

    def test_similarity_values_in_range(self, small_report):
        for linkage, sample in small_report.benign_samples.items():
            assert all(0.0 <= v <= 1.0 for v in sample.values)
        for entry in small_report.entries.values():
            assert all(0.0 <= v <= 1.0 for v in entry["attack_values"])

    def test_benign_only_run(self):
        report = run(RunConfig(benign_captures=make_benign(3), linkages=("ward",)))
        assert report.entries == {}
        summary, tally = verdict(report)
        assert "benign diagnostics only" in summary
        assert tally == {"ward": (0, 0)}

    def test_output_files(self, tmp_path):
        config = RunConfig(benign_captures=make_benign(4),
                           attack_capture_groups={"correlated_break": make_attacks("correlated_break", 2)},
                           linkages=("ward",), output_dir=str(tmp_path / "out"))
        report_obj = run(config)
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["results"][0]["attack_kind"] == "correlated_break"
        lines = [json.loads(l) for l in (out / "similarities.jsonl").read_text().splitlines()]
        assert len(lines) == 6 + 8  # C(4,2) benign + 2x4 attack rows
        # benign topology is identical across captures, so the benign sample
        # is a point mass and its density export is skipped by design
        benign_vals = report_obj.benign_samples["ward"].values
        assert len(set(benign_vals)) == 1
        assert not (out / "density_benign_ward.csv").exists()
        assert (out / "density_correlated_break_ward.csv").exists()
        header = (out / "density_correlated_break_ward.csv").read_text().splitlines()[0]
        assert header == "x,density"


class TestConfigValidation:
    def test_too_few_benign(self):
        with pytest.raises(ConfigError, match="at least 2 benign"):
            run(RunConfig(benign_captures=make_benign(1)))

    def test_unknown_linkage(self):
        with pytest.raises(ConfigError, match="unknown linkages"):
            run(RunConfig(benign_captures=make_benign(2), linkages=("centroid",)))

    def test_empty_linkages(self):
        with pytest.raises(ConfigError):
            run(RunConfig(benign_captures=make_benign(2), linkages=()))

    def test_bad_significance(self):
        with pytest.raises(ConfigError):
            run(RunConfig(benign_captures=make_benign(2), significance=1.5))

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            run(RunConfig(benign_captures=make_benign(2), alpha=1.0))

    def test_non_finite_r(self):
        with pytest.raises(ConfigError, match="r must be finite"):
            run(RunConfig(benign_captures=make_benign(2), r=float("inf")))

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            run(RunConfig(benign_captures=make_benign(2), frequency_hz=0.0))

    def test_duplicate_linkages(self):
        with pytest.raises(ConfigError, match="duplicate linkages"):
            run(RunConfig(benign_captures=make_benign(2), linkages=("ward", "ward")))

    @pytest.mark.parametrize("kind", ["x/y", "", "a b", "../up", None])
    def test_bad_attack_kind(self, kind, monkeypatch):
        # rejected before any capture is prepared
        monkeypatch.setattr("canclust.pipeline.prepare", None)
        with pytest.raises(ConfigError, match="attack kinds"):
            run(RunConfig(benign_captures=make_benign(2), attack_capture_groups={kind: make_attacks("max_value", 1)}))

    def test_bad_dissimilarity(self, monkeypatch):
        monkeypatch.setattr("canclust.pipeline.prepare", None)
        with pytest.raises(ConfigError, match="unknown dissimilarity 'bogus'"):
            run(RunConfig(benign_captures=make_benign(2), dissimilarity="bogus"))

    def test_duplicate_capture_ids(self):
        caps = make_benign(2)
        with pytest.raises(DataError, match=r"duplicate capture_id 'benign_0' \(inline and inline\)"):
            run(RunConfig(benign_captures=(caps[0], caps[0])))

    def test_duplicate_capture_ids_name_their_files(self, tmp_path):
        # the same file name in two directories: the error names both files
        cap = make_benign(1)[0]
        paths = [tmp_path / d / "x.csv" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            write_wide_csv(cap, path)
        with pytest.raises(DataError) as info:
            run(RunConfig(benign_captures=tuple(parse_capture(p) for p in paths)))
        assert str(info.value) == f"duplicate capture_id 'x' ({paths[0]} and {paths[1]})"


class TestPairSamples:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_benign(12), make_attacks("correlated_break", 3)

    @pytest.fixture(scope="class")
    def report(self, corpus):
        benign, attacks = corpus
        return run(RunConfig(benign_captures=benign, attack_capture_groups={"correlated_break": attacks},
                             linkages=("ward",)))

    def test_benign_pair_count(self, report):
        sample = report.benign_samples["ward"]
        assert len(sample.values) == 66
        assert sample.pair_ids == tuple(combinations([f"benign_{i}" for i in range(12)], 2))

    def test_cross_product_count(self, corpus, report):
        # each attack x benign pair scores as it does on its own
        benign, attacks = corpus
        entry = report.entries[("correlated_break", "ward")]
        assert entry["n_attack_pairs"] == len(entry["attack_values"]) == 36
        assert entry["attack_pair_ids"][0] == ["attack_correlated_break_0", "benign_0"]
        assert entry["attack_pair_ids"][-1] == ["attack_correlated_break_2", "benign_11"]
        dends = {c.capture_id: agglomerate(prepare(c, 10.0, "one_minus_abs_rho")[2], "ward")
                 for c in benign + attacks}
        alone = [clusim.similarity(dends[a], dends[b], clusim.HierarchyParams()).value
                 for a, b in entry["attack_pair_ids"]]
        assert entry["attack_values"] == alone


class TestBatchScoring:
    def test_one_solve_per_distinct_tree_per_linkage(self, monkeypatch):
        # captures that drop different constant signals pair up over differing common sets
        drops = {"benign_1": signal_id(0, 0), "benign_2": signal_id(1, 1),
                 "attack_correlated_break_1": signal_id(2, 2)}
        benign, attacks = (tuple(pin(c, drops[c.capture_id]) if c.capture_id in drops else c for c in caps)
                           for caps in (make_benign(4), make_attacks("correlated_break", 2)))
        kept = {c.capture_id: frozenset(s.signal_id for s in c.signals) - {drops.get(c.capture_id)}
                for c in benign + attacks}

        def trees(pairs):
            """The distinct (capture, common ids) trees a batch of capture pairs compares."""
            out = set()
            for a, b in pairs:
                common = kept[a] & kept[b]
                out |= {(a, common), (b, common)}
            return out

        bids = [c.capture_id for c in benign]
        benign_trees = trees(combinations(bids, 2))
        attack_trees = trees((c.capture_id, b) for c in attacks for b in bids)
        restricted = {(cid, common) for cid, common in benign_trees | attack_trees if common != kept[cid]}
        # the benign and attack pairs share trees, so one batch solves fewer than two would
        assert len(benign_trees | attack_trees) < len(benign_trees) + len(attack_trees)

        solved, restricts = [], []
        real_affinity, real_restrict = clusim.affinity, clusim.restrict
        monkeypatch.setattr(clusim, "affinity", lambda dend, params: solved.append(dend) or real_affinity(dend, params))
        monkeypatch.setattr(clusim, "restrict", lambda dend, ids: restricts.append(ids) or real_restrict(dend, ids))
        linkages = ("average", "ward")
        report = run(RunConfig(benign_captures=benign,
                               attack_capture_groups={"correlated_break": attacks, "empty": ()},
                               linkages=linkages, allow_intersection=True))
        assert len(solved) == len(linkages) * len(benign_trees | attack_trees)
        assert len(restricts) == len(linkages) * len(restricted)
        assert sorted(report.entries) == [("correlated_break", l) for l in linkages]
        assert {d["capture_id"]: d["dropped_constant"] for d in report.diagnostics
                if d["dropped_constant"]} == {cid: [sid] for cid, sid in drops.items()}


class TestFileInputs:
    def test_paths_and_inline_agree(self, tmp_path):
        # the CLI parses the files; run() on the same captures in memory must
        # give the same samples and test cells
        benign = make_benign(3)
        attacks = make_attacks("correlated_break", 2)
        for cap in benign + attacks:
            write_wide_csv(cap, tmp_path / f"{cap.capture_id}.csv")
        out = tmp_path / "cli"
        rc = main(["analyze", "--benign", str(tmp_path / "benign_*.csv"),
                   "--attack", f"correlated_break={tmp_path / 'attack_*.csv'}",
                   "--linkage", "average,ward", "--out", str(out)])
        assert rc == 0
        from_files = json.loads((out / "report.json").read_text())
        inline = run(RunConfig(benign_captures=benign, attack_capture_groups={"correlated_break": attacks},
                               linkages=("average", "ward")))
        inline = json.loads(json.dumps(inline.to_dict()))
        assert from_files["benign_samples"] == inline["benign_samples"]
        assert from_files["results"] == inline["results"]
        assert len(from_files["results"]) == 2
        sources = {d["capture_id"]: d["source_path"] for d in from_files["diagnostics"]}
        assert sources["attack_correlated_break_1"] == str(tmp_path / "attack_correlated_break_1.csv")

    def test_degenerate_capture_names_culprit(self, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("time,a,b\n" + "".join(f"{i/10},1.0,2.0\n" for i in range(50)))
        good = make_benign(1)[0]
        gp = tmp_path / "good.csv"
        write_wide_csv(good, gp)
        with pytest.raises(DataError, match="flat"):
            run(RunConfig(benign_captures=(parse_capture(gp), parse_capture(p)), linkages=("ward",)))


class TestVerdict:
    def test_tally_lines(self, small_report):
        summary, tally = verdict(small_report)
        assert "correlated_break: detected by" in summary
        assert "Average detected" in summary and "Ward detected" in summary
        for linkage, (det, total) in tally.items():
            assert total == 1 and 0 <= det <= 1

    def test_p_values_formatted(self, small_report):
        summary, _ = verdict(small_report)
        assert "ward=" in summary and "average=" in summary
