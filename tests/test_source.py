"""Rules on the package source itself."""

import ast
import sys
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


def test_imports_only_stdlib_numpy_or_relative():
    # numpy is the one runtime dependency; scipy is a test oracle only, also inside a function body
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert not found, f"imports of neither the standard library, numpy nor canclust in src/canclust: {found}"
