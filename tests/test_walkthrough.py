"""docs/walkthrough.md's CLI session (sections 1-3), run as written in a temporary directory."""

import json
import re
import shlex
from pathlib import Path

from canclust.cli import main

WALKTHROUGH = Path(__file__).parent.parent / "docs" / "walkthrough.md"


def test_documented_commands(tmp_path, monkeypatch, capsys):
    text = WALKTHROUGH.read_text(encoding="utf-8").split("\n## 4.")[0]  # section 4 needs ROAD captures
    (spec,) = re.findall(r"```json\n(.*?)```", text, re.S)
    commands = [shlex.split(block.replace("\\\n", " ")) for block in re.findall(r"```sh\n(.*?)```", text, re.S)]
    assert [argv[:2] for argv in commands] == [["canclust", "synth"], ["canclust", "analyze"], ["canclust", "simtest"]]
    (tmp_path / "corpus.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    stdout = []
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        stdout.append(capsys.readouterr().out)
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text(encoding="utf-8"))
    roles = [(f["capture_id"], f["label"], f["attack_kind"]) for f in manifest["files"]]
    assert roles == [(f"benign_{i}", "benign", "") for i in range(4)] + [("attack_0", "attack", "correlated_break")]
    assert "Ward detected 1 of 1" in stdout[1].splitlines()
    report = json.loads((tmp_path / "results" / "report.json").read_text(encoding="utf-8"))
    assert [(d["capture_id"], d["label"], d["attack_kind"]) for d in report["diagnostics"]] == roles
    assert json.loads(stdout[2])["linkage"] == "ward"
