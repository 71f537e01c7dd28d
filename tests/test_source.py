"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "canclust"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime invariant must raise instead
    paths = sorted(SRC.glob("*.py"))
    assert "report.py" in {p.name for p in paths}
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/canclust: {found}"
