"""Static checks over the package source."""

import ast
from pathlib import Path

import mvdop

SRC = Path(mvdop.__file__).parent


def test_no_assert_in_package():
    # assert statements vanish under python -O, and a bare AssertionError
    # escapes the CLI's exit-code mapping; raise a typed MvdopError instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, found
