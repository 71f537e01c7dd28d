import builtins
import json
import os
import random
from itertools import combinations

import numpy as np
import pytest

from canclust import clusim
from canclust.cli import main
from canclust.errors import ConfigError, DataError, DegenerateCaptureError
from canclust.ingest import RawSignal, SignalCapture, parse_capture
from canclust.pipeline import RunConfig, summarize
from canclust.report import run, verdict, write_outputs
from canclust.stats import density_export
from canclust.synth import AttackSpec, SynthSpec, generate, inject, signal_id, write_wide_csv

SPEC = SynthSpec(n_groups=3, signals_per_group=3, duration_s=40.0, rate_hz=10.0,
                 intra_group_rho=0.95, noise_sigma=1.0)


def make_benign(k, base_seed=500):
    return tuple(generate(SynthSpec(**{**SPEC._asdict(), "seed": base_seed + i}),
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
        atk = AttackSpec(kind, targets, *window, seed=base_seed + 50 + i)
        cap = generate(SynthSpec(**{**SPEC._asdict(), "seed": base_seed + i}),
                       capture_id=f"attack_{kind}_{i}")
        caps.append(inject(cap, atk))
    return tuple(caps)


def pin(capture, sid):
    """The capture with signal sid held at its maximum throughout, so resampling drops it as constant."""
    return inject(capture, AttackSpec("max_value", (sid,), 0.0, SPEC.duration_s))


@pytest.fixture(scope="module")
def small_report():
    return run(RunConfig(linkages=("average", "ward")), make_benign(5),
               {"correlated_break": make_attacks("correlated_break", 2)})


class TestRun:
    def test_sample_sizes(self, small_report):
        for linkage in ("average", "ward"):
            assert len(small_report.sample(linkage)[1]) == 10  # C(5,2)
            entry = small_report.entries[("correlated_break", linkage)]
            assert entry["n_benign_pairs"] == 10
            assert entry["n_attack_pairs"] == 10  # 2 x 5
            assert len(small_report.sample(linkage, "correlated_break")[1]) == 10

    def test_diagnostics_cover_all_captures(self, small_report):
        ids = [d["capture_id"] for d in small_report.diagnostics]
        assert len(ids) == 7 and len(set(ids)) == 7
        labels = {d["capture_id"]: d["label"] for d in small_report.diagnostics}
        assert labels["benign_0"] == "benign"
        assert labels["attack_correlated_break_0"] == "attack"
        for d in small_report.diagnostics:
            assert d["n_signals"] == 9 and d["t"] == 400
            assert d["source_path"] == ""  # in-memory capture

    def test_roles_are_the_groups(self):
        # an inject()ed capture passed as benign is benign, a generate()d one passed as an attack is of its kind
        benign = make_benign(3)
        benign = (pin(benign[0], signal_id(0, 0)), *benign[1:])
        spoof = generate(SynthSpec(**{**SPEC._asdict(), "seed": 900}), capture_id="spoof_0")
        report = run(RunConfig(linkages=("ward",), allow_intersection=True), benign, {"spoof": (spoof,)})
        assert [(d["capture_id"], d["label"], d["attack_kind"]) for d in report.diagnostics] == [
            ("benign_0", "benign", ""), ("benign_1", "benign", ""), ("benign_2", "benign", ""),
            ("spoof_0", "attack", "spoof")]

    def test_deterministic(self, small_report):
        again = run(RunConfig(linkages=("average", "ward")), make_benign(5),
                    {"correlated_break": make_attacks("correlated_break", 2)})
        assert again.to_dict() == small_report.to_dict()

    def test_report_is_json_serializable(self, small_report):
        doc = json.loads(json.dumps(small_report.to_dict()))
        assert doc["schema"] == 1
        assert {r["linkage"] for r in doc["results"]} == {"average", "ward"}
        assert doc["config"]["linkages"] == ["average", "ward"]

    def test_similarity_values_in_range(self, small_report):
        for linkage in small_report.tables:
            assert all(0.0 <= v <= 1.0 for v in small_report.sample(linkage)[1])
        for kind, linkage in small_report.entries:
            assert all(0.0 <= v <= 1.0 for v in small_report.sample(linkage, kind)[1])

    def test_benign_only_run(self):
        report = run(RunConfig(linkages=("ward",)), make_benign(3))
        assert report.entries == {}
        summary, tally = verdict(report)
        assert "benign diagnostics only" in summary
        assert tally == {"ward": (0, 0)}

    def test_output_files(self, tmp_path):
        report_obj = run(RunConfig(linkages=("ward",)), make_benign(4),
                         {"correlated_break": make_attacks("correlated_break", 2)})
        out = tmp_path / "out"
        write_outputs(report_obj, out)
        report = json.loads((out / "report.json").read_text())
        assert report["results"][0]["attack_kind"] == "correlated_break"
        lines = [json.loads(l) for l in (out / "similarities.jsonl").read_text().splitlines()]
        assert len(lines) == 6 + 8  # C(4,2) benign + 2x4 attack rows
        # benign topology is identical across captures, so the benign sample
        # is a point mass and its density export is skipped by design
        _pairs, benign_vals = report_obj.sample("ward")
        assert len(set(benign_vals)) == 1
        assert not (out / "density_benign_ward.csv").exists()
        text = (out / "density_correlated_break_ward.csv").read_text()
        assert "np." not in text
        header, *rows = text.splitlines()
        assert header == "x,density"
        curve = density_export(report_obj.sample("ward", "correlated_break")[1]).tolist()
        assert [[float(cell) for cell in row.split(",")] for row in rows] == curve

    def test_degenerate_sample_removes_an_earlier_density(self, tmp_path):
        # a second report into the same directory must not leave the first one's curve for a sample it cannot draw
        out = tmp_path / "out"
        write_outputs(run(RunConfig(linkages=("ward",)), make_benign(4),
                          {"correlated_break": make_attacks("correlated_break", 2)}), out)
        density = out / "density_correlated_break_ward.csv"
        assert density.exists()
        clean = tuple(generate(SynthSpec(**{**SPEC._asdict(), "seed": 950 + i}), capture_id=f"clean_{i}")
                      for i in range(2))
        report_obj = run(RunConfig(linkages=("ward",)), make_benign(4), {"correlated_break": clean})
        assert len(set(report_obj.sample("ward", "correlated_break")[1])) == 1
        write_outputs(report_obj, out)
        assert not density.exists()
        assert not (out / "density_benign_ward.csv").exists()


class TestConfigValidation:
    """A bad parameter is rejected when its RunConfig is built; a bad attack kind or capture id by run()."""

    def test_too_few_benign(self):
        with pytest.raises(ConfigError, match="at least 2 benign"):
            run(RunConfig(), make_benign(1))

    def test_no_captures(self):
        with pytest.raises(ConfigError, match="at least 2 benign"):
            run(RunConfig(), [])

    def test_unknown_linkage(self):
        with pytest.raises(ConfigError, match="unknown linkages"):
            RunConfig(linkages=("centroid",))

    def test_empty_linkages(self):
        with pytest.raises(ConfigError):
            RunConfig(linkages=())

    def test_bad_significance(self):
        with pytest.raises(ConfigError):
            RunConfig(significance=1.5)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha=1.0)

    def test_non_finite_r(self):
        for r in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigError, match="r must be finite"):
                RunConfig(r=r)

    @pytest.mark.parametrize("r", [700.5, 710.0, 1e308, -700.5, -1e308])
    def test_r_beyond_its_bound(self, r, tmp_path, capsys):
        # the bound keeps the level weights' exp(r * depth ratio) and the product itself finite
        with pytest.raises(ConfigError, match=r"r must be in \[-700.0, 700.0\]"):
            RunConfig(r=r)
        write_wide_csv(generate(SPEC), tmp_path / "a.csv")
        assert main(["simtest", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "a.csv"), f"--r={r}"]) == 2
        assert "config error: r must be in" in capsys.readouterr().err

    def test_bad_frequency(self):
        with pytest.raises(ConfigError):
            RunConfig(frequency_hz=0.0)

    def test_duplicate_linkages(self):
        with pytest.raises(ConfigError, match="duplicate linkages"):
            RunConfig(linkages=("ward", "ward"))

    @pytest.mark.parametrize("kind", ["x/y", "", "a b", "../up", None, "benign"])
    def test_bad_attack_kind(self, kind, monkeypatch):
        # rejected before any capture is resampled; "benign" names the benign sample's density files
        monkeypatch.setattr("canclust.pipeline.resample", None)
        with pytest.raises(ConfigError, match="attack kinds"):
            run(RunConfig(), make_benign(2), {kind: make_attacks("max_value", 1)})

    def test_bad_dissimilarity(self):
        with pytest.raises(ConfigError, match="unknown dissimilarity 'bogus'"):
            RunConfig(dissimilarity="bogus")

    @pytest.mark.parametrize("record, field, bad, error", [
        (RunConfig(), "significance", 1.5, ConfigError),
        (RunConfig(), "linkages", ("ward", "ward"), ConfigError),
        (clusim.HierarchyParams(), "alpha", 1.0, ValueError),
        (RawSignal("s", [0.0, 1.0], [2.0, 3.0]), "timestamps", [1.0, 0.0], DataError),
    ])
    def test_replace_and_make_check_as_the_constructor(self, record, field, bad, error):
        # a record is checked however it is built, with the constructor's error and message
        fields = {**record._asdict(), field: bad}
        with pytest.raises(error) as built:
            type(record)(**fields)
        for build in (lambda: record._replace(**{field: bad}), lambda: type(record)._make(fields.values())):
            with pytest.raises(error) as rebuilt:
                build()
            assert (type(rebuilt.value), str(rebuilt.value)) == (type(built.value), str(built.value))

    def test_duplicate_capture_ids(self, monkeypatch):
        # rejected before any capture is resampled
        monkeypatch.setattr("canclust.pipeline.resample", None)
        caps = make_benign(2)
        with pytest.raises(DataError, match=r"duplicate capture_id 'benign_0' \(inline and inline\)"):
            run(RunConfig(), (caps[0], caps[0]))

    def test_duplicate_capture_ids_name_their_files(self, tmp_path):
        # the same file name in two directories: the error names both files
        cap = make_benign(1)[0]
        paths = [tmp_path / d / "x.csv" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            write_wide_csv(cap, path)
        with pytest.raises(DataError) as info:
            run(RunConfig(), tuple(parse_capture(p) for p in paths))
        assert str(info.value) == f"duplicate capture_id 'x' ({paths[0]} and {paths[1]})"

    def test_duplicate_signal_ids(self):
        # each capture given a second ID_100_sig_0: the first capture's is named, as resample finds it
        caps = [generate(SynthSpec(2, 2, 6.0, 10.0, seed=i)) for i in range(3)]
        caps = [c._replace(signals=(*c.signals, c.signals[1]._replace(signal_id=signal_id(0, 0)))) for c in caps]
        with pytest.raises(DataError, match=r"^synth_0000000000000000: duplicate signal id 'ID_100_sig_0'$"):
            run(RunConfig(), caps[:2], {"max_value": caps[2:]})

    def test_differing_element_sets_name_both_captures(self):
        # in-memory captures are "inline" here as in the duplicate-id error
        first, second = make_benign(2)
        with pytest.raises(DataError) as info:
            run(RunConfig(), (first, second._replace(signals=second.signals[1:])))
        assert str(info.value).startswith("captures 'benign_0' (inline) and 'benign_1' (inline): element sets differ")


class TestOneConfig:
    """The analysis parameters are RunConfig's fields; only write_outputs() writes."""

    def test_report_config_is_the_fields(self, small_report, tmp_path):
        write_outputs(small_report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc["config"]) == list(RunConfig._fields)
        assert doc["config"] == {"frequency_hz": 10.0, "linkages": ["average", "ward"], "r": -5.0, "alpha": 0.9,
                                 "significance": 0.05, "dissimilarity": "one_minus_abs_rho",
                                 "allow_intersection": False}

    def test_run_writes_no_files(self, tmp_path, monkeypatch):
        # one CPU, so that every open() of the run is seen here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.chdir(tmp_path)
        opened = []
        real_open = builtins.open

        def recorded(file, mode="r", *args, **kwargs):
            opened.append((file, mode))
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", recorded)
        report = run(RunConfig(linkages=("ward",)), make_benign(3),
                     {"correlated_break": make_attacks("correlated_break", 1)})
        monkeypatch.setattr(builtins, "open", real_open)
        assert [(f, mode) for f, mode in opened if set(mode) & set("wax+")] == []
        assert list(tmp_path.iterdir()) == []
        write_outputs(report, "out")
        assert (tmp_path / "out" / "report.json").exists()


class TestPairSamples:
    @pytest.fixture(scope="class")
    def corpus(self):
        return make_benign(12), make_attacks("correlated_break", 3)

    @pytest.fixture(scope="class")
    def report(self, corpus):
        benign, attacks = corpus
        return run(RunConfig(linkages=("ward",)), benign, {"correlated_break": attacks})

    def test_benign_pair_count(self, report):
        pair_ids, values = report.sample("ward")
        assert len(values) == 66
        assert pair_ids == list(combinations([f"benign_{i}" for i in range(12)], 2))

    def test_cross_product_count(self, corpus, report):
        # each attack x benign pair scores as it does on its own
        benign, attacks = corpus
        entry = report.entries[("correlated_break", "ward")]
        pair_ids, values = report.sample("ward", "correlated_break")
        assert entry["n_attack_pairs"] == len(values) == 36
        assert pair_ids[0] == ("attack_correlated_break_0", "benign_0")
        assert pair_ids[-1] == ("attack_correlated_break_2", "benign_11")
        dends = {c.capture_id: summarize(c, RunConfig(linkages=("ward",)))[1][0] for c in benign + attacks}
        alone = [clusim.similarity(dends[a], dends[b], clusim.HierarchyParams()).value
                 for a, b in pair_ids]
        assert values == alone


class TestTables:
    """Each linkage's similarities are one capture x capture table; every sample is a view of it."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return make_benign(4), {"correlated_break": make_attacks("correlated_break", 2),
                                "max_value": make_attacks("max_value", 2, base_seed=950)}

    @pytest.fixture(scope="class")
    def report(self, corpus):
        return run(RunConfig(linkages=("average", "ward")), *corpus)

    def test_symmetric_and_nan_exactly_where_unscored(self, report):
        attack = [d["label"] == "attack" for d in report.diagnostics]
        unscored = np.eye(8, dtype=bool) | np.outer(attack, attack)
        assert unscored.sum() == 8 + 4 * 3  # the diagonal, and attack x attack off it
        for table in report.tables.values():
            assert table.shape == (8, 8) and not table.flags.writeable
            assert np.array_equal(table, table.T, equal_nan=True)
            assert np.array_equal(np.isnan(table), unscored)

    def test_samples_in_report_order(self, corpus, report):
        benign, attacks = corpus
        bids = [c.capture_id for c in benign]
        for linkage in report.tables:
            assert report.sample(linkage)[0] == list(combinations(bids, 2))
            for kind, caps in attacks.items():
                assert report.sample(linkage, kind)[0] == [(c.capture_id, b) for c in caps for b in bids]

    def test_each_value_is_its_pair_scored_alone(self, corpus, report):
        benign, attacks = corpus
        captures = benign + attacks["correlated_break"] + attacks["max_value"]
        config = RunConfig(linkages=("average", "ward"))
        dends = {c.capture_id: summarize(c, config)[1] for c in captures}
        for j, linkage in enumerate(config.linkages):
            for kind in (None, *attacks):
                pair_ids, values = report.sample(linkage, kind)
                assert values == [clusim.similarity(dends[a][j], dends[b][j], config.params).value
                                  for a, b in pair_ids]


class TestBatchScoring:
    def test_one_solve_per_distinct_tree_per_linkage(self, monkeypatch):
        # one CPU: the calls are counted in this process, and the batches are those of any CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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
        real_affinities, real_restrict = clusim._affinities, clusim.restrict
        monkeypatch.setattr(clusim, "_affinities",
                            lambda trees, params: solved.extend(trees) or real_affinities(trees, params))
        monkeypatch.setattr(clusim, "restrict", lambda dend, ids: restricts.append(ids) or real_restrict(dend, ids))
        linkages = ("average", "ward")
        report = run(RunConfig(linkages=linkages, allow_intersection=True), benign,
                     {"correlated_break": attacks, "empty": ()})
        assert len(solved) == len(linkages) * len(benign_trees | attack_trees)
        assert len(restricts) == len(linkages) * len(restricted)
        assert sorted(report.entries) == [("correlated_break", l) for l in linkages]
        assert {d["capture_id"]: d["dropped_constant"] for d in report.diagnostics
                if d["dropped_constant"]} == {cid: [sid] for cid, sid in drops.items()}


    @pytest.mark.parametrize("n_cpus", [2, 4])
    def test_each_linkage_scored_once_across_processes(self, tmp_path, monkeypatch, n_cpus):
        # a child's calls are not seen here, so each batch appends its linkage and process to a file
        log = tmp_path / "batches"
        real = clusim.similarities

        def logged(pairs, params, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {pairs[0][0].linkage}\n")
            return real(pairs, params, **kwargs)
        config = RunConfig()
        captures = make_benign(3), {"correlated_break": make_attacks("correlated_break", 1)}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run(config, *captures).to_dict()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        monkeypatch.setattr("canclust.report.similarities", logged)
        assert run(config, *captures).to_dict() == serial
        batches = [line.split() for line in log.read_text().splitlines()]
        assert sorted(linkage for _pid, linkage in batches) == sorted(config.linkages)
        assert len({pid for pid, _linkage in batches}) == n_cpus


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
        inline = run(RunConfig(linkages=("average", "ward")), benign, {"correlated_break": attacks})
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
            run(RunConfig(linkages=("ward",)), (parse_capture(gp), parse_capture(p)))


    def test_in_memory_capture_error_unchanged(self):
        # no source file to name: resample's error surfaces as it was raised
        flat = SignalCapture("flat", (RawSignal("a", [0.0, 1.0, 2.0], [1.0] * 3),
                                      RawSignal("b", [0.0, 1.0, 2.0], [2.0] * 3)))
        with pytest.raises(DegenerateCaptureError) as info:
            summarize(flat, RunConfig())
        assert str(info.value) == "flat: all signals constant on the common grid"
        assert info.value.__cause__ is None and info.value.__context__ is None


def with_copies(seed, capture_id):
    """A 16-signal capture with three exact copies of its first signal, and two constant signals first in file order."""
    cap = generate(SynthSpec(n_groups=4, signals_per_group=4, duration_s=60.0, rate_hz=10.0, seed=seed),
                   capture_id=capture_id)
    first, ts = cap.signals[0], cap.signals[0].timestamps
    copies = tuple(first._replace(signal_id=f"{first.signal_id}_copy{k}") for k in range(3))
    flats = tuple(RawSignal(sid, ts, np.full(ts.size, 2.5)) for sid in ("ID_1FF_flat", "ID_0FF_flat"))
    return cap._replace(signals=flats + cap.signals + copies)


def write_capture(capture, path, format):
    """capture as a wide_csv or long_csv file, its signals in capture order (a long file's first appearance)."""
    if format == "wide_csv":
        return write_wide_csv(capture, path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,signal,value\n")
        for k, t in enumerate(capture.signals[0].timestamps):
            fh.writelines(f"{float(t)!r},{sig.signal_id},{float(sig.values[k])!r}\n" for sig in capture.signals)


class TestSignalOrder:
    @pytest.mark.parametrize("format", ["wide_csv", "long_csv"])
    def test_report_independent_of_file_signal_order(self, tmp_path, monkeypatch, format):
        # exact copies tie in every linkage, so leaves in file order would let the file's order pick the tree
        benign = [with_copies(100 + i, f"benign_{i}") for i in range(12)]
        shuffled = [with_copies(200 + i, f"shuffled_{i}") for i in range(3)]
        rnd = random.Random(0)
        reports = []
        for name in ("as_generated", "permuted"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # relative paths, so the two reports name the same sources
            for cap in benign + shuffled:
                signals = list(cap.signals)
                if name == "permuted" or cap.capture_id.startswith("shuffled"):
                    rnd.shuffle(signals)
                write_capture(cap._replace(signals=tuple(signals)), f"{cap.capture_id}.csv", format)
            assert main(["analyze", "--benign", "benign_*.csv", "--attack", "shuffled=shuffled_*.csv",
                         "--format", format, "--out", "out"]) == 0
            reports.append((tmp_path / name / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert {tuple(d["dropped_constant"]) for d in report["diagnostics"]} == {("ID_0FF_flat", "ID_1FF_flat")}
        # a shuffled benign capture is benign: no linkage flags it
        assert [r["significant"] for r in report["results"]] == [False] * 4


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
