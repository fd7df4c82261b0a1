"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "indgl2"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` compiles asserts out, so a check that backs a pass or a build must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_analysis_runs_on_coordinates():
    # the verifier decides everything on coordinates; the element calculus stays in the hecke suite and the test oracles
    path = SRC / "analysis.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"InducedElem", "flatten", "unflatten", "singleton", "u_act"}), imported
