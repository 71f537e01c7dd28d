import json
from pathlib import Path

from goldens import CASES, FIXTURES_DIR, main, regenerate, verify_goldens


def test_all_goldens_pass():
    results = verify_goldens()
    failed = [r for r in results if not r["passed"]]
    assert not failed, failed
    assert {r["name"] for r in results} == set(CASES)


def test_regeneration_is_idempotent(tmp_path):
    regenerate(tmp_path)
    for name in CASES:
        fresh = json.loads((tmp_path / f"{name}.json").read_text())
        shipped = json.loads((FIXTURES_DIR / f"{name}.json").read_text())
        assert fresh == shipped, f"shipped fixture {name} is stale"


def test_missing_fixture_reports_failure(tmp_path):
    results = verify_goldens(tmp_path)
    assert all(not r["passed"] for r in results)
    assert all("missing fixture" in r["detail"] for r in results)


def test_cli_verify_and_regen(tmp_path, capsys):
    assert main(["--regen", "--fixtures-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["--fixtures-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(CASES) and "FAIL" not in out


def test_similarity_bands_within_pinned_tolerance():
    doc = json.loads((FIXTURES_DIR / "dendrogram_similarity_bands.json").read_text())
    computed = CASES["dendrogram_similarity_bands"]["compute"](doc["inputs"])
    assert abs(computed["sim_ab"] - 0.82) <= 0.05
    assert abs(computed["sim_bc"] - 0.76) <= 0.05


def test_merge_order_chain_topology():
    doc = json.loads((FIXTURES_DIR / "merge_order_chain.json").read_text())
    merges = doc["expected"]["dendrogram"]["merges"]
    # chain data must agglomerate as (((X1,X2),X3),X4) with heights 0.1/0.5/0.9
    assert [m[:2] for m in merges] == [[0, 1], [4, 2], [5, 3]]
    assert [m[2] for m in merges] == [0.1, 0.5, 0.9]
