"""The package keeps only what the program uses: a function or class that only
the tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisyqst"


def _names_used(paths) -> set[str]:
    """Every name that the code of ``paths`` loads, bare or as an attribute; not
    the words of its docstrings and comments."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_public_function_and_class_is_used_by_the_program():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entries = {tuple(target.split(":")) for target in scripts.values()}
    used = _names_used([*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in used and (f"noisyqst.{path.stem}", node.name) not in entries
    ]
    assert unused == [], f"used by no code in src/noisyqst or perfbench: {unused}"
