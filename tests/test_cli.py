import json
import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import canclust
from canclust import cli, ingest, pipeline, report
from canclust.cli import main
from canclust.errors import ParseError
from canclust.ingest import parse_capture
from conftest import mutate


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
def huge_value_csv(tmp_path):
    # 3e200 is finite, but its square is not
    p = tmp_path / "huge_value.csv"
    p.write_text("time,s0,s1\n0.0,1.0,2.0\n0.1,3e200,1.0\n0.2,3.0,5.0\n0.3,4.0,4.0\n")
    return p


def assert_huge_value_error(err, path):
    """The error names the file, the signal and the limit, and nothing warned."""
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(path) in err and "signal 's0' holds a value of magnitude above 1.5e+150, the most allowed" in err


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

    @pytest.mark.parametrize("defaults", [[], "x", None, 5], ids=["list", "string", "null", "number"])
    def test_defaults_that_is_not_an_object(self, tmp_path, capsys, defaults):
        # defaults are part of the document's shape, as the captures list is: no capture is blamed
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["defaults"] = defaults
        p = tmp_path / "defaults.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.endswith(
            f"{p}: a spec is a JSON object with a 'captures' list and optional 'defaults' object\n")

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
        ({"kind": "binary_flip"}, "unknown attack kind 'binary_flip'"),
    ], ids=["unknown_target", "window_after_end", "binary_flip_non_binary"])
    def test_attack_that_does_not_fit_the_capture(self, tmp_path, capsys, attack, message):
        doc = synth_spec_doc(n_benign=1)
        doc["captures"][1]["attack"].update(attack)
        p = tmp_path / "misfit.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "capture 'attack_0'" in err and message in err

    @pytest.mark.parametrize("key, raw, message", [
        ("seed", "1e400", "attack seed must be an integer, got inf"),
        ("seed", "1.5", "attack seed must be an integer, got 1.5"),
        ("seed", '"7"', "attack seed must be an integer, got '7'"),
        ("seed", "true", "attack seed must be an integer, got True"),
        ("sed", "5", "got an unexpected keyword argument 'sed'"),
        ("start_s", '"1"', "start_s must be a number, got '1'"),
        ("targets", '"ID_100_sig_0"', "targets must be a list of signal ids, got 'ID_100_sig_0'"),
        ("targets", "null", "targets must be a list of signal ids, got None"),
    ], ids=["seed_overflow", "seed_fraction", "seed_string", "seed_bool", "misspelt_key", "start_string",
            "targets_string", "targets_null"])
    def test_attack_block_mistake(self, tmp_path, capsys, key, raw, message):
        # an attack block is AttackSpec's keys, checked as every other spec field is
        doc = synth_spec_doc(n_benign=1)
        doc["captures"][1]["attack"][key] = "@"
        p = tmp_path / "attack.json"
        p.write_text(json.dumps(doc).replace('"@"', raw))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: capture 'attack_0': ") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize("cap_id", ["../esc/evil", "a/b", "", "x y", 5])
    def test_id_that_is_not_a_name(self, tmp_path, capsys, cap_id):
        # an id names its capture's file, so it is a name that keeps the file in --out
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["captures"][0]["id"] = cap_id
        p = tmp_path / "id.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: capture {cap_id!r}: "
                                           "id must be a name of letters, digits, '_', '-' and '.'\n")
        assert sorted(os.listdir(tmp_path)) == ["id.json", "o"] and os.listdir(tmp_path / "o") == []

    @pytest.mark.parametrize("named", [True, False])
    def test_id_two_entries_share(self, tmp_path, capsys, named):
        # named or left to its seed's default, an id written twice is a config error naming both entries
        doc = synth_spec_doc(n_benign=3, attack=False)
        if named:
            doc["captures"][0]["id"] = doc["captures"][2]["id"] = cap_id = "dup"
        else:
            del doc["captures"][0]["id"], doc["captures"][2]["id"]
            doc["captures"][2]["seed"], cap_id = 100, "synth_0000000000000064"
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: captures[0] and captures[2] have the same id {cap_id!r}\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

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

    @pytest.mark.parametrize("kind", ["x/y", "", "benign"])
    def test_bad_attack_kind(self, tmp_path, kind, capsys):
        # "benign" would write its densities over the benign sample's density_benign_<linkage>.csv
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

    def test_huge_value(self, corpus, huge_value_csv, tmp_path, capsys):
        rc = main(["analyze", "--benign", str(corpus / "benign_*.csv"),
                   "--attack", f"correlated_break={huge_value_csv}", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert_huge_value_error(capsys.readouterr().err, huge_value_csv)

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

    def test_duplicate_capture_id_names_files(self, corpus, tmp_path, capsys, monkeypatch):
        # an id is its file's stem, so a duplicate is rejected before any file is parsed
        def parsed(path, **kwargs):
            raise AssertionError(f"{path} was parsed")
        monkeypatch.setattr(cli, "parse_capture", parsed)
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
        monkeypatch.setattr(report, "mann_whitney", broken)
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

    def test_huge_value(self, corpus, huge_value_csv, capsys):
        rc = main(["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(huge_value_csv)])
        assert rc == 3
        assert_huge_value_error(capsys.readouterr().err, huge_value_csv)

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


@pytest.fixture
def flat_csv(tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text("time,a,b\n" + "".join(f"{i / 10},1.0,2.0\n" for i in range(50)))
    return p


@pytest.mark.parametrize("command", ["simtest", "analyze"])
@pytest.mark.parametrize("bad, message", [
    ("huge_value_csv", "signal 's0' holds a value of magnitude above 1.5e+150, the most allowed"),
    ("flat_csv", "all signals constant on the common grid"),
    ("huge_span_csv", "common window [0.0, 1000000000000000.0] needs 1e+16 grid points at 10.0 Hz, "
                      "more than the 10000000 allowed"),
])
def test_data_error_names_capture_and_file_once(corpus, tmp_path, capsys, request, command, bad, message):
    path = request.getfixturevalue(bad)
    if command == "simtest":
        argv = ["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(path)]
    else:
        argv = ["analyze", "--benign", str(corpus / "benign_*.csv"), "--attack", f"k={path}",
                "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {path}: {path.stem}: {message}\n"


@pytest.mark.parametrize("command", ["simtest", "analyze"])
@pytest.mark.parametrize("text, message", [
    ("a,time\n0.0,1.0\n", ":1: wide_csv header must be 'time,<signal>,...'"),
    ("time,a,b,a\n0.0,1.0,2.0,3.0\n", ":1: duplicate signal column in header"),
    ("time,a,b,c,\n0.0,1.0,2.0,3.0,4.0\n", ":1: empty signal id in header"),
    ('# a note\n"time",a,b\n0.0,1.0,2.0\n', ":2: quote character '\"': cells are split on commas, without CSV quoting"),
    ("# only a comment\n\n", ": empty file"),
], ids=["header_order", "header_duplicate", "header_empty_id", "header_quote", "empty_file"])
def test_bad_header_names_file(corpus, tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    if command == "simtest":
        argv = ["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(path)]
    else:
        argv = ["analyze", "--benign", str(corpus / "benign_*.csv"), "--attack", f"k={path}",
                "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {path}{message}\n"


@pytest.mark.parametrize("command", ["simtest", "analyze"])
def test_empty_long_signal_id_names_line(tmp_path, capsys, command):
    # a blank signal cell is no signal id: before, its rows made a signal named ''
    rnd = random.Random(command)
    paths = [tmp_path / f"{name}.csv" for name in ("benign_0", "benign_1", "benign_2")]
    for path in paths:
        path.write_text(small_capture_text(rnd, "long_csv"))
    lines = paths[1].read_text().splitlines(keepends=True)
    cells = lines[7].split(",")
    lines[7] = ",".join([cells[0], "  ", cells[2]])
    paths[1].write_text("".join(lines))
    if command == "simtest":
        argv = ["simtest", "--a", str(paths[0]), "--b", str(paths[1]), "--format", "long_csv"]
    else:
        argv = ["analyze", "--benign", str(tmp_path / "benign_*.csv"), "--out", str(tmp_path / "o"),
                "--format", "long_csv"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: {paths[1]}:8: empty signal id\n"


@pytest.mark.parametrize("command", ["simtest", "analyze"])
def test_element_sets_differ_names_both_captures(tmp_path, capsys, command):
    rnd = random.Random(command)
    a, c = tmp_path / "benign_a.csv", tmp_path / "benign_c.csv"
    a.write_text(small_capture_text(rnd, "wide_csv", ids=("s0", "s1", "s2", "s3")))
    c.write_text(small_capture_text(rnd, "wide_csv", ids=("s0", "s1", "s2", "s9")))
    if command == "simtest":
        argv = ["simtest", "--a", str(a), "--b", str(c)]
    else:
        argv = ["analyze", "--benign", str(tmp_path / "benign_*.csv"), "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"data error: captures 'benign_a' ({a}) and 'benign_c' ({c}): element sets differ "
        "(only in a: ['s3'], only in b: ['s9']); pass allow_intersection=True to compare the overlap\n")
    assert main(argv + ["--allow-intersection"]) == 0


@pytest.mark.parametrize("layout", ["wide_csv", "long_csv"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, layout):
    # Excel's "CSV UTF-8" export starts a file with the mark EF BB BF: the same files without it print the same
    rnd = random.Random(layout)
    texts = {name: small_capture_text(rnd, layout) for name in ("benign_0", "benign_1")}
    outs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        folder = tmp_path / ("bom" if mark else "plain")
        folder.mkdir()
        for name, text in texts.items():
            (folder / f"{name}.csv").write_bytes(mark + text.encode())
        argv = ["simtest", "--a", str(folder / "benign_0.csv"), "--b", str(folder / "benign_1.csv")]
        assert main(argv + ["--format", layout]) == 0
        outs.append(capsys.readouterr())
    assert outs[1] == outs[0] and outs[0].err == ""
    assert json.loads(outs[0].out)["capture_a"] == "benign_0"


def small_capture_text(rnd, layout, ids=("a", "b", "c", "d"), n_rows=30):
    """A valid capture of a few signals sampled together at 10 Hz, in either layout."""
    rows = [(k / 10, [rnd.gauss(0, 1) for _ in ids]) for k in range(n_rows)]
    if layout == "wide_csv":
        return "time," + ",".join(ids) + "\n" + "".join(
            f"{t!r}," + ",".join(f"{v:.6f}" for v in vs) + "\n" for t, vs in rows)
    return "time,signal,value\n" + "".join(f"{t!r},{sid},{v:.6f}\n" for t, vs in rows for sid, v in zip(ids, vs))


def mutated_runs(tmp_path, command, layout):
    """(argv, the changed file, the bytes of all files) of 150 runs of command over a few small captures.

    Before each run is yielded its files are written anew, one of them with one character changed as
    TestParseParity::test_mutated_input changes it; the runs are the same for the same command and layout.
    """
    rnd = random.Random(f"{command}-{layout}")
    paths = [tmp_path / f"{name}.csv" for name in ("benign_0", "benign_1", "benign_2", "attack_0")]
    if command == "analyze":
        argv = ["analyze", "--benign", str(tmp_path / "benign_*.csv"), "--attack", f"k={paths[3]}",
                "--out", str(tmp_path / "o"), "--format", layout]
    else:
        paths = paths[:2]
        argv = ["simtest", "--a", str(paths[0]), "--b", str(paths[1]), "--format", layout]
    for _ in range(150):
        for path in paths:
            path.write_text(small_capture_text(rnd, layout))
        bad = rnd.choice(paths)
        bad.write_text(mutate(rnd, bad.read_text()), newline="")
        yield argv, bad, sum(path.stat().st_size for path in paths)


@pytest.mark.parametrize("layout", ["wide_csv", "long_csv"])
@pytest.mark.parametrize("command", ["analyze", "simtest"])
def test_mutated_input(tmp_path, capsys, monkeypatch, command, layout):
    # each mutated run exits 0, or 3 naming the changed file, and raises and warns nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    codes = set()
    for argv, bad, _size in mutated_runs(tmp_path, command, layout):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert (rc, err) == (0, "") or (rc == 3 and err.startswith(f"data error: {bad}")), (rc, err)
        codes.add(rc)
    assert codes == {0, 3}


@pytest.mark.parametrize("layout", ["wide_csv", "long_csv"])
@pytest.mark.parametrize("command", ["analyze", "simtest"])
def test_mutated_input_memory(tmp_path, capsys, monkeypatch, command, layout):
    # test_mutated_input's runs under tracemalloc, which would slow that test past 2 s: each run's peak
    # stays within 64 times the bytes of its files (one CPU, so no work forks out of the trace). Peaks
    # are 13-43 times: most of a peak is a fixed ~100 kB, argument parsing and numpy's reader buffers, and
    # the rest grows with a run's rows and its time span, which a changed time cell can widen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for argv, bad, size in mutated_runs(tmp_path, command, layout):
        tracemalloc.start()
        try:
            main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 64 * size, (bad.read_text(), peak, size)


# extreme values of a float option or spec field: infinities, nan, zero, the largest and smallest
# floats, the exp() overflow edge of r, and the float just below 1
EXTREMES = [math.inf, -math.inf, math.nan, 0.0, 1e308, -1e308, 5e-324, 700.0, 710.0, 1 - 2 ** -53]


def assert_clean_exit(argv, capsys):
    """main(argv) exits 0, 2 or 3, raising, warning and printing no traceback; its exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == [] and "Traceback" not in err, (argv, err)
    assert rc in (0, 2, 3) and (rc == 0) == (err == ""), (argv, rc, err)
    return rc


@pytest.mark.parametrize("option", ["--freq", "--r", "--alpha"])
def test_extreme_option_values(tmp_path, capsys, monkeypatch, option):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rnd = random.Random(0)  # at alpha = 1 - 2^-53 these captures' solves lose the row sums of P
    for name in ("a", "b"):
        (tmp_path / f"{name}.csv").write_text(small_capture_text(rnd, "wide_csv"))
    argv = ["simtest", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]
    codes = [assert_clean_exit(argv + [f"{option}={value!r}"], capsys) for value in EXTREMES]
    assert 0 in codes and 2 in codes


@pytest.mark.parametrize("field", ["duration_s", "rate_hz", "noise_sigma", "seed", "n_groups", "signals_per_group"])
def test_extreme_span_fields(tmp_path, capsys, field):
    spec = tmp_path / "spec.json"

    def argv(value):
        doc = synth_spec_doc(n_benign=1, attack=False)
        doc["captures"][0][field] = value  # an entry's fields override the defaults, its seed among them
        if field in ("n_groups", "signals_per_group"):  # 2 s at 10 Hz: 700 groups of 3 signals stay quick to build
            doc["captures"][0]["duration_s"] = 2.0
        spec.write_text(json.dumps(doc))  # Infinity and NaN, as json writes them
        return ["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]

    codes = [assert_clean_exit(argv(value), capsys) for value in EXTREMES]
    assert 0 in codes and 2 in codes
    if field in ("duration_s", "rate_hz"):
        # an int past the largest float, which json reads exactly, would overflow the two fields' product
        assert main(argv(10 ** 400)) == 2
        assert capsys.readouterr().err.endswith(f": {field} must be at most 1.8e+308 in magnitude\n")
    if field in ("seed", "n_groups", "signals_per_group"):
        # an integral float is the integer; a fraction, a string or a bool is a config error naming the field
        assert main(argv(3.0)) == 0
        for value in (2.5, "3", True):
            assert main(argv(value)) == 2
            assert capsys.readouterr().err.endswith(f": {field} must be an integer, got {value!r}\n")
    else:  # a string, a bool or null is a config error naming the field
        for value in ("3", True, None):
            assert main(argv(value)) == 2
            assert capsys.readouterr().err.endswith(f": {field} must be a number, got {value!r}\n")


def same_capture(a, b):
    """Whether two captures are equal, their sample arrays bit for bit."""
    return ((a.capture_id, a.source_path) == (b.capture_id, b.source_path)
            and len(a.signals) == len(b.signals)
            and all(x.signal_id == y.signal_id and x.timestamps.tobytes() == y.timestamps.tobytes()
                    and x.values.tobytes() == y.values.tobytes() for x, y in zip(a.signals, b.signals)))


def load(jobs):
    """The jobs' captures, each parsed by the CLI's parse_capture through fan_out."""
    return pipeline.fan_out(lambda path: cli.parse_capture(path, format="wide_csv"), jobs)


def serial_outcome(jobs):
    """What parsing the jobs one after another gives: the captures, or the first exception."""
    try:
        return [parse_capture(path, format="wide_csv") for path in jobs]
    except Exception as exc:
        return exc


@pytest.fixture
def jobs(corpus):
    """The corpus's files as loader jobs: four benign files, then the attack file."""
    return [str(corpus / f"benign_{i}.csv") for i in range(4)] + [str(corpus / "attack_0.csv")]


@pytest.mark.parametrize("n_files,n_cpus,fork", [(1, 4, True), (3, 1, True), (3, 4, False)])
def test_load_captures_serial(jobs, monkeypatch, n_files, n_cpus, fork):
    # one file, one CPU or no os.fork: no child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    if fork:
        monkeypatch.setattr(os, "fork", None)
    else:
        monkeypatch.delattr(os, "fork")
    captures = load(jobs[:n_files])
    assert all(same_capture(a, b) for a, b in zip(captures, serial_outcome(jobs[:n_files]), strict=True))


class TestLoadCaptures:
    """Loading captures through fan_out: this process runs jobs[0::n], forked children the other shares.

    The autouse no_unreaped_child fixture checks that every child was reaped.
    """

    @pytest.fixture(params=[2, 4], autouse=True)
    def cpus(self, request, monkeypatch):
        # the fork path runs whatever the host's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        return request.param

    def test_same_as_serial(self, jobs):
        captures = load(jobs)
        serial = serial_outcome(jobs)
        assert len(captures) == len(serial) == 5
        assert all(same_capture(a, b) for a, b in zip(captures, serial))
        assert [c.capture_id for c in captures] == [f"benign_{i}" for i in range(4)] + ["attack_0"]

    def test_summaries_same_as_serial(self, jobs):
        # the children run BLAS after forking this process, whose OpenBLAS threads run:
        # the product below starts them (the test keeps the default BLAS thread count)
        np.ones((256, 256)) @ np.ones((256, 256))
        config = pipeline.RunConfig()  # all four linkages
        summaries = cli._summarize_files(jobs, "wide_csv", config)
        serial = [pipeline.summarize(capture, config) for capture in serial_outcome(jobs)]
        # repr shows every float of the diagnostics and merges exactly, so equal reprs are bit-identical
        assert [repr(summary) for summary in summaries] == [repr(summary) for summary in serial]

    def test_this_process_parses_its_share(self, jobs, cpus, monkeypatch):
        calls = []

        def counted(path, **kwargs):
            calls.append(path)
            return parse_capture(path, **kwargs)
        monkeypatch.setattr(cli, "parse_capture", counted)
        load(jobs)
        assert calls == jobs[0::cpus]  # children's calls stay in the children

    @pytest.mark.parametrize("bad", [(0,), (1,), (1, 4), (0, 1)])
    def test_first_failure_in_input_order(self, jobs, tmp_path, bad):
        # index 0 and 4 are this process's share, index 1 a child's
        for k, i in enumerate(bad):
            path = tmp_path / f"bad_{i}.csv"
            path.write_text("time,x\n0.0,1.0\n" * (k + 1) + "0.1,banana\n")
            jobs[i] = str(path)
        expected = serial_outcome(jobs)
        with pytest.raises(ParseError) as info:
            load(jobs)
        got = info.value
        assert type(got) is type(expected)
        assert (str(got), got.path, got.line) == (str(expected), expected.path, expected.line)
        assert got.path == jobs[bad[0]]

    def test_first_bad_file_across_stages(self, corpus, tmp_path, capsys):
        # file 1 parses but cannot be summarized (every signal constant), file 3 does not parse:
        # file 1's error wins, as it does when the files are parsed and summarized one after another
        for i in (0, 2, 4):
            (tmp_path / f"c{i}.csv").write_bytes((corpus / f"benign_{i // 2}.csv").read_bytes())
        (tmp_path / "c1.csv").write_text("time,a,b\n" + "".join(f"{i / 10},1.0,2.0\n" for i in range(50)))
        (tmp_path / "c3.csv").write_text("time,x\n0.0,1.0\n0.1,banana\n")
        assert main(["analyze", "--benign", str(tmp_path / "c*.csv"), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "c1.csv") in err and "c3.csv" not in err
        assert main(["simtest", "--a", str(tmp_path / "c1.csv"), "--b", str(tmp_path / "c3.csv")]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "c1.csv") in err and "c3.csv" not in err

    def test_no_items(self, monkeypatch):
        # no items is one empty share, run in this process
        monkeypatch.setattr(os, "fork", None)
        assert pipeline.fan_out(parse_capture, []) == []

    def test_missing_file(self, jobs, tmp_path):
        jobs[1] = str(tmp_path / "nope.csv")
        with pytest.raises(FileNotFoundError) as info:
            load(jobs)
        assert str(info.value) == str(serial_outcome(jobs))
        assert main(["simtest", "--a", jobs[0], "--b", jobs[1]]) == 3

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
            if path == jobs[1]:
                os._exit(1)
            return parse_capture(path, **kwargs)

        def hangs(signum, frame):
            raise AssertionError("the loader waited for a dead child")
        monkeypatch.setattr(cli, "parse_capture", dies)
        previous = signal.signal(signal.SIGALRM, hangs)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="exited with status 1 before sending its results"):
                load(jobs)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_analyze_holds_one_capture_at_a_time(tmp_path, monkeypatch, n_cpus):
    # the process that parses a capture summarizes it, so this process's peak allocation
    # does not grow with the number of captures by as much as one capture's parsed arrays
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    rng = np.random.default_rng(7)
    t = np.arange(10_000) / 100.0
    rows = np.column_stack([t, rng.normal(size=(t.size, 3)).cumsum(axis=0)])
    capture = tmp_path / "capture.csv"
    np.savetxt(capture, rows, delimiter=",", header="time,a,b,c", comments="", fmt="%.6f")
    one_capture = sum(s.timestamps.nbytes + s.values.nbytes for s in parse_capture(capture).signals)

    def peak(n_copies):
        corpus = tmp_path / f"copies_{n_copies}"
        corpus.mkdir()
        for i in range(n_copies):
            (corpus / f"c{i}.csv").write_bytes(capture.read_bytes())
        tracemalloc.start()
        try:
            assert main(["analyze", "--benign", str(corpus), "--linkage", "ward", "--out", str(tmp_path / "o")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(8) - peak(4) < one_capture


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; every CLI call would pay for importing it
    src = str(Path(canclust.__file__).parent.parent)
    code = "import sys, canclust.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# the canclust modules each command loads; every command loads these first
LOADED_BY_IMPORT = ["canclust", "canclust.cli", "canclust.clusim", "canclust.correlation", "canclust.errors",
                    "canclust.hierarchy", "canclust.ingest", "canclust.pipeline"]


def loaded_modules(statements, packages=("canclust",)):
    """The modules of packages a fresh interpreter holds after running statements, whose output is dropped."""
    src = str(Path(canclust.__file__).parent.parent)
    code = ("import contextlib, io, json, sys\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {statements}\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def cli_statements(argv):
    """Statements that run the CLI on argv; a failed assert fails the interpreter, and check=True the test."""
    return f"import canclust.cli; assert canclust.cli.main({argv!r}) == 0"


def test_each_command_loads_only_its_modules(corpus, tmp_path):
    assert loaded_modules("import canclust") == ["canclust"]
    assert loaded_modules("import canclust.cli") == LOADED_BY_IMPORT
    simtest = ["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(corpus / "attack_0.csv")]
    assert loaded_modules(cli_statements(simtest)) == LOADED_BY_IMPORT
    analyze = ["analyze", "--benign", str(corpus / "benign_*.csv"),
               "--attack", f"correlated_break={corpus / 'attack_0.csv'}", "--out", str(tmp_path / "o")]
    assert loaded_modules(cli_statements(analyze)) == sorted(LOADED_BY_IMPORT + ["canclust.report", "canclust.stats"])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(synth_spec_doc(n_benign=1, attack=False)))
    synth = ["synth", "--spec", str(spec), "--out", str(tmp_path / "s")]
    assert loaded_modules(cli_statements(synth)) == sorted(LOADED_BY_IMPORT + ["canclust.synth"])


def test_simtest_loads_neither_dataclasses_nor_glob(corpus):
    # records are NamedTuples, whose typing module numpy has already loaded, and only analyze expands patterns
    simtest = ["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(corpus / "attack_0.csv")]
    assert loaded_modules("import canclust.cli", ("dataclasses", "glob")) == []
    assert loaded_modules(cli_statements(simtest), ("dataclasses", "glob")) == []


@pytest.mark.parametrize("command", ["simtest", "analyze"])
def test_module_entry_point(corpus, tmp_path, capsys, command):
    # `python -m canclust.cli` runs cli as __main__ under a lazily resolved package: same output, no warning
    if command == "simtest":
        argv = ["simtest", "--a", str(corpus / "benign_0.csv"), "--b", str(corpus / "attack_0.csv")]
    else:
        argv = ["analyze", "--benign", str(corpus / "benign_*.csv"),
                "--attack", f"correlated_break={corpus / 'attack_0.csv'}", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(canclust.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "canclust.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected)


@pytest.mark.parametrize("format", ["wide_csv", "long_csv"])
def test_run_of_empty_lines(corpus, tmp_path, capsys, format):
    # a run of empty lines over two blocks long holds a block without data, which numpy's C reader
    # would warn about: both commands read it without a warning, as if the run were not there
    def write(out, run):
        out.mkdir()
        for path in sorted(corpus.glob("*.csv")):
            lines = path.read_text().splitlines()
            if format == "long_csv":
                ids, rows = lines[0].split(",")[1:], [line.split(",") for line in lines[1:]]
                lines = ["time,signal,value"] + [f"{row[0]},{sid},{value}" for row in rows for sid, value in zip(ids, row[1:])]
            half = len(lines) // 2
            (out / path.name).write_text("\n".join(lines[:half]) + "\n" * (run + 1) + "\n".join(lines[half:]) + "\n")
        return [["simtest", "--a", str(out / "benign_0.csv"), "--b", str(out / "attack_0.csv"), "--format", format],
                ["analyze", "--benign", str(out / "benign_*.csv"), "--attack", f"correlated_break={out / 'attack_0.csv'}",
                 "--out", str(out / "o"), "--format", format]]

    src = str(Path(canclust.__file__).parent.parent)
    for plain, with_run in zip(write(tmp_path / "plain", 0), write(tmp_path / "run", 2 * ingest.BLOCK_CHARS + 400)):
        assert main(plain) == 0
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "canclust.cli", *with_run],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", capsys.readouterr().out)
