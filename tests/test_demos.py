"""The demos are callers of the public API: they must keep running."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import canclust

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_all_exports_resolve():
    missing = [name for name in canclust.__all__ if not hasattr(canclust, name)]
    assert not missing
