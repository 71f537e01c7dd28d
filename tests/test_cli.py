import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import canclust
from canclust import cli, pipeline
from canclust.cli import main
from canclust.errors import ParseError
from canclust.ingest import parse_capture


def synth_spec_doc(n_benign=4, attack=True):
    defaults = {"n_groups": 3, "signals_per_group": 3, "duration_s": 40.0,
                "rate_hz": 10.0, "intra_group_rho": 0.95, "noise_sigma": 1.0}
    captures = [{"id": f"benign_{i}", "seed": 100 + i} for i in range(n_benign)]
    if attack:
        captures.append({
            "id": "attack_0", "seed": 300,
            "attack": {"kind": "correlated_break",
                       "targets": [f"ID_100_sig_{j}" for j in range(3)],
                       "start_s": 0.0, "end_s": 40.0, "seed": 41},
        })
    return {"defaults": defaults, "captures": captures}


@pytest.fixture
def inf_time_csv(tmp_path):
    p = tmp_path / "inf_time.csv"
    p.write_text("time,a,b\n0.0,1.0,2.0\n0.1,2.0,1.0\n0.2,3.0,5.0\ninf,4.0,4.0\n")
    return p


@pytest.fixture
def huge_span_csv(tmp_path):
    # one stamp 1e15 s out: a 1e16-point grid at 10 Hz
    p = tmp_path / "huge_span.csv"
    p.write_text("time,a,b\n0.0,1.0,2.0\n0.1,2.0,1.0\n0.2,3.0,5.0\n1e15,4.0,4.0\n")
    return p


@pytest.fixture
def latin1_csv(tmp_path):
    # 0xff (a Latin-1 'ÿ') is never valid UTF-8; it sits on line 3
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"time,a,b\n0.0,1.0,2.0\n0.1,2.0,1.0 \xff\n0.2,3.0,5.0\n")
    return p


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = root / "spec.json"
    spec.write_text(json.dumps(synth_spec_doc()))
    out = root / "caps"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_files_and_manifest(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert len(manifest["files"]) == 5
        by_id = {e["capture_id"]: e for e in manifest["files"]}
        assert by_id["benign_0"]["label"] == "benign"
        assert by_id["attack_0"]["label"] == "attack"
        assert by_id["attack_0"]["attack_kind"] == "correlated_break"
        for entry in manifest["files"]:
            assert (corpus / entry["path"]).exists()

    def test_missing_spec_file(self, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3

    def test_malformed_spec_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_spec_missing_captures_key(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_bad_field_value(self, tmp_path):
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["defaults"]["intra_group_rho"] = 2.0
        p = tmp_path / "bad_rho.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_field(self, tmp_path, capsys):
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["captures"][0]["bogus"] = 1
        p = tmp_path / "unknown_field.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus" in err and "benign_0" in err

    def test_missing_required_field(self, tmp_path, capsys):
        doc = synth_spec_doc(n_benign=1, attack=False)
        del doc["defaults"]["rate_hz"]
        p = tmp_path / "missing_field.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rate_hz" in err


    def test_attack_without_targets(self, tmp_path, capsys):
        doc = synth_spec_doc(n_benign=1)
        del doc["captures"][1]["attack"]["targets"]
        p = tmp_path / "no_targets.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'attack_0'" in err and "'targets'" in err

    @pytest.mark.parametrize("attack, message", [
        ({"targets": ["nope"]}, "attack targets not in capture: ['nope']"),
        ({"start_s": 50.0, "end_s": 60.0}, "attack window starts after capture ends"),
        ({"kind": "binary_flip"}, "binary_flip target 'ID_100_sig_0' has"),
    ], ids=["unknown_target", "window_after_end", "binary_flip_non_binary"])
    def test_attack_that_does_not_fit_the_capture(self, tmp_path, capsys, attack, message):
        doc = synth_spec_doc(n_benign=1)
        doc["captures"][1]["attack"].update(attack)
        p = tmp_path / "misfit.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "capture 'attack_0'" in err and message in err

    @pytest.mark.parametrize("entry", [1, "benign_0", ["seed", 1], None])
    def test_capture_entry_not_an_object(self, tmp_path, capsys, entry):
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["captures"].append(entry)
        p = tmp_path / "not_object.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"captures[1] must be a JSON object, got {entry!r}" in err

    @pytest.mark.parametrize("doc", [[], {"captures": {}}, {"captures": 1}])
    def test_spec_not_a_captures_list(self, tmp_path, doc):
        p = tmp_path / "shape.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 3


class TestAnalyze:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        out = tmp_path / "report"
        rc = main(["analyze",
                   "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={corpus / 'attack_0.csv'}",
                   "--linkage", "average,ward",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "correlated_break: detected by" in stdout
        assert "Ward detected" in stdout
        report = json.loads((out / "report.json").read_text())
        assert len(report["benign_samples"]["ward"]["values"]) == 6  # C(4,2)
        assert {r["linkage"] for r in report["results"]} == {"average", "ward"}

    def test_benign_only(self, corpus, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "benign diagnostics only" in capsys.readouterr().out

    def test_directory_input(self, corpus, tmp_path, monkeypatch):
        # a bare directory expands to its *.csv files (attack file included,
        # so pass explicit benign glob in real runs; here all 5 are benign-ok)
        rc = main(["analyze", "--benign", str(corpus), "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_no_matching_files(self, tmp_path):
        rc = main(["analyze", "--benign", str(tmp_path / "missing_*.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_attack_syntax(self, corpus, tmp_path):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", "justapath.csv", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_linkage(self, corpus, tmp_path):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--linkage", "centroid", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_duplicate_linkage(self, corpus, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={corpus / 'attack_0.csv'}",
                   "--linkage", "ward,ward", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "duplicate linkages" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["x/y", ""])
    def test_bad_attack_kind(self, tmp_path, kind, capsys):
        # rejected before parsing: the corrupt capture would otherwise exit 3
        (tmp_path / "a.csv").write_text("time,x,y\n0.0,1.0,2.0\n0.1,2.0\n")
        rc = main(["analyze", "--benign", str(tmp_path / "*.csv"), "--attack", f"{kind}={tmp_path / 'a.csv'}",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "attack kinds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_few_benign(self, corpus, tmp_path):
        rc = main(["analyze", "--benign", str(corpus / "benign_0.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_finite_timestamp(self, corpus, inf_time_csv, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={inf_time_csv}", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "inf_time.csv" in capsys.readouterr().err

    def test_huge_span(self, corpus, huge_span_csv, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={huge_span_csv}", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "huge_span.csv" in err and "grid points" in err

    @pytest.mark.parametrize("flag,value", [("--linkage", "centroid"), ("--alpha", "1.5"),
                                            ("--r", "inf"), ("--significance", "2"),
                                            ("--freq", "0"), ("--freq", "inf")])
    def test_parameters_checked_before_parsing(self, tmp_path, flag, value, capsys):
        # a corrupt file must not hide a bad parameter (config error, not data error)
        (tmp_path / "a.csv").write_text("time,x,y\n0.0,1.0,2.0\n0.1,2.0\n")
        (tmp_path / "b.csv").write_text("time,x,y\n0.0,1.0,2.0\n0.1,2.0,1.0\n")
        rc = main(["analyze", "--benign", str(tmp_path / "*.csv"), flag, value,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_corrupt_capture(self, tmp_path):
        (tmp_path / "a.csv").write_text("time,x\n0.0,1.0\n0.1,banana\n")
        (tmp_path / "b.csv").write_text("time,x\n0.0,1.0\n0.1,2.0\n")
        rc = main(["analyze", "--benign", str(tmp_path / "*.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_not_utf8_capture(self, corpus, latin1_csv, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={latin1_csv}", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{latin1_csv}:3: not UTF-8 text" in capsys.readouterr().err


    def test_first_bad_file_in_run_order(self, corpus, tmp_path, capsys):
        # benign files come first, then each kind's files in command-line order,
        # as run() takes them: k1's second file precedes k2's
        bad = {}
        for name in ("benign_bad", "k2_bad", "k1_bad"):
            bad[name] = tmp_path / f"{name}.csv"
            bad[name].write_text("time,x\n0.0,1.0\n0.1,banana\n")
        good = str(corpus / "attack_0.csv")

        def analyze(benign):
            return main(["analyze", "--benign", benign, "--attack", f"k1={good}", "--attack", f"k2={bad['k2_bad']}",
                         "--attack", f"k1={bad['k1_bad']}", "--out", str(tmp_path / "o")])

        assert analyze(str(tmp_path / "benign_*.csv")) == 3
        assert f"{bad['benign_bad']}:3:" in capsys.readouterr().err
        assert analyze(str(corpus / "benign_*.csv")) == 3
        assert f"{bad['k1_bad']}:3:" in capsys.readouterr().err

    def test_duplicate_capture_id_names_files(self, corpus, tmp_path, capsys):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.csv").write_bytes((corpus / "benign_0.csv").read_bytes())
        rc = main(["analyze", "--benign", str(tmp_path / "*" / "x.csv"), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"duplicate capture_id 'x' ({tmp_path / 'a' / 'x.csv'} and {tmp_path / 'b' / 'x.csv'})" in err

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_internal_error_is_not_a_user_error(self, corpus, tmp_path, monkeypatch, error):
        # a bug inside run() must surface as itself, not as exit 2 or 3
        def broken(*args, **kwargs):
            raise error("internal bug")
        monkeypatch.setattr(pipeline, "mann_whitney", broken)
        with pytest.raises(error, match="internal bug"):
            main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                  "--attack", f"correlated_break={corpus / 'attack_0.csv'}", "--out", str(tmp_path / "o")])


class TestSimtest:
    def test_pair_similarity(self, corpus, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"),
                   "--b", str(corpus / "benign_1.csv"), "--linkage", "ward"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["capture_a"] == "benign_0" and doc["capture_b"] == "benign_1"
        assert doc["linkage"] == "ward"
        assert 0.0 <= doc["similarity"] <= 1.0
        # identical benign topology scores exactly 1
        assert abs(doc["similarity"] - 1.0) < 1e-9

    def test_attack_pair_scores_lower(self, corpus, capsys):
        main(["simtest", "--a", str(corpus / "benign_0.csv"),
              "--b", str(corpus / "attack_0.csv"), "--linkage", "ward"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["similarity"] < 1.0

    def test_r_alpha_flags(self, corpus, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"),
                   "--b", str(corpus / "benign_1.csv"), "--r", "5.0", "--alpha", "0.8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == 5.0 and doc["alpha"] == 0.8

    def test_bad_alpha(self, corpus):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"),
                   "--b", str(corpus / "benign_1.csv"), "--alpha", "1.5"])
        assert rc == 2

    @pytest.mark.parametrize("freq", ["0", "inf"])
    def test_freq_checked_before_parsing(self, tmp_path, freq, capsys):
        # a corrupt file must not hide a bad --freq (config error, not data error)
        truncated = tmp_path / "truncated.csv"
        truncated.write_text("time,x,y\n0.0,1.0,2.0\n0.1,2.0\n")
        rc = main(["simtest", "--a", str(truncated), "--b", str(truncated), "--freq", freq])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, corpus, tmp_path):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"),
                   "--b", str(tmp_path / "nope.csv")])
        assert rc == 3

    def test_non_finite_timestamp(self, corpus, inf_time_csv, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(inf_time_csv)])
        assert rc == 3
        assert "non-finite timestamps" in capsys.readouterr().err

    def test_huge_span(self, corpus, huge_span_csv, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(huge_span_csv)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "huge_span.csv" in err and "grid points" in err

    def test_not_utf8_capture(self, corpus, latin1_csv, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(latin1_csv)])
        assert rc == 3
        assert f"{latin1_csv}:3: not UTF-8 text" in capsys.readouterr().err

    def test_flat_capture_names_file(self, corpus, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("time,a,b\n" + "".join(f"{i / 10},1.0,2.0\n" for i in range(50)))
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(flat)])
        assert rc == 3
        assert str(flat) in capsys.readouterr().err

    def test_dissimilarity_alias(self, corpus, capsys):
        values = []
        for mode in ("signed", "half_one_minus_rho"):
            rc = main(["simtest", "--a", str(corpus / "benign_0.csv"),
                       "--b", str(corpus / "attack_0.csv"), "--dissimilarity", mode])
            assert rc == 0
            values.append(json.loads(capsys.readouterr().out)["similarity"])
        assert values[0] == values[1]


def same_capture(a, b):
    """Whether two captures are equal, their sample arrays bit for bit."""
    return ((a.capture_id, a.source_path, a.label, a.attack_kind) == (b.capture_id, b.source_path, b.label, b.attack_kind)
            and len(a.signals) == len(b.signals)
            and all(x.signal_id == y.signal_id and x.timestamps.tobytes() == y.timestamps.tobytes()
                    and x.values.tobytes() == y.values.tobytes() for x, y in zip(a.signals, b.signals)))


def serial_outcome(jobs):
    """What parsing the jobs one after another gives: the captures, or the first exception."""
    try:
        return [parse_capture(path, format="wide_csv", **labels) for path, labels in jobs]
    except Exception as exc:
        return exc


@pytest.fixture
def jobs(corpus):
    """The corpus as loader jobs: four benign files, then the attack file."""
    benign = [(str(corpus / f"benign_{i}.csv"), {}) for i in range(4)]
    return benign + [(str(corpus / "attack_0.csv"), {"label": "attack", "attack_kind": "correlated_break"})]


@pytest.mark.parametrize("n_files,n_cpus,fork", [(1, 4, True), (3, 1, True), (3, 4, False)])
def test_load_captures_serial(jobs, monkeypatch, n_files, n_cpus, fork):
    # one file, one CPU or no os.fork: no child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    if fork:
        monkeypatch.setattr(os, "fork", None)
    else:
        monkeypatch.delattr(os, "fork")
    captures = cli._load_captures(jobs[:n_files], "wide_csv")
    assert all(same_capture(a, b) for a, b in zip(captures, serial_outcome(jobs[:n_files]), strict=True))


class TestLoadCaptures:
    """The CLI's loader: this process parses jobs[0::n], forked children the other shares."""

    @pytest.fixture(params=[2, 4], autouse=True)
    def cpus(self, request, monkeypatch):
        # the fork path runs whatever the host's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        yield request.param
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_same_as_serial(self, jobs):
        captures = cli._load_captures(jobs, "wide_csv")
        serial = serial_outcome(jobs)
        assert len(captures) == len(serial) == 5
        assert all(same_capture(a, b) for a, b in zip(captures, serial))
        assert [c.label for c in captures] == ["benign"] * 4 + ["attack"]

    def test_this_process_parses_its_share(self, jobs, cpus, monkeypatch):
        calls = []

        def counted(path, **kwargs):
            calls.append(path)
            return parse_capture(path, **kwargs)
        monkeypatch.setattr(cli, "parse_capture", counted)
        cli._load_captures(jobs, "wide_csv")
        assert calls == [path for path, _labels in jobs[0::cpus]]  # children's calls stay in the children

    @pytest.mark.parametrize("bad", [(0,), (1,), (1, 4), (0, 1)])
    def test_first_failure_in_input_order(self, jobs, tmp_path, bad):
        # index 0 and 4 are this process's share, index 1 a child's
        for k, i in enumerate(bad):
            path = tmp_path / f"bad_{i}.csv"
            path.write_text("time,x\n0.0,1.0\n" * (k + 1) + "0.1,banana\n")
            jobs[i] = (str(path), jobs[i][1])
        expected = serial_outcome(jobs)
        with pytest.raises(ParseError) as info:
            cli._load_captures(jobs, "wide_csv")
        got = info.value
        assert type(got) is type(expected)
        assert (str(got), got.path, got.line) == (str(expected), expected.path, expected.line)
        assert got.path == jobs[bad[0]][0]

    def test_missing_file(self, jobs, tmp_path):
        jobs[1] = (str(tmp_path / "nope.csv"), {})
        with pytest.raises(FileNotFoundError) as info:
            cli._load_captures(jobs, "wide_csv")
        assert str(info.value) == str(serial_outcome(jobs))
        assert main(["simtest", "--a", jobs[0][0], "--b", jobs[1][0]]) == 3

    def test_internal_error_in_child(self, corpus, monkeypatch):
        # a bug in a child surfaces as itself, not as exit 3
        def broken(path, **kwargs):
            if path.endswith("benign_1.csv"):
                raise RuntimeError("parser bug")
            return parse_capture(path, **kwargs)
        monkeypatch.setattr(cli, "parse_capture", broken)
        with pytest.raises(RuntimeError, match="parser bug"):
            main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(corpus / "benign_1.csv")])

    def test_child_dies_without_result(self, jobs, monkeypatch):
        # index 1 is the first child's; with 4 CPUs two more children are still to be read
        def dies(path, **kwargs):
            if path == jobs[1][0]:
                os._exit(1)
            return parse_capture(path, **kwargs)

        def hangs(signum, frame):
            raise AssertionError("the loader waited for a dead child")
        monkeypatch.setattr(cli, "parse_capture", dies)
        previous = signal.signal(signal.SIGALRM, hangs)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="exited with status 1 before sending its captures"):
                cli._load_captures(jobs, "wide_csv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; every CLI call would pay for importing it
    src = str(Path(canclust.__file__).parent.parent)
    code = "import sys, canclust.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
