"""Module layering.  One seam for the term layout: only the model builds or
takes apart the raw terms of an element, and automorphisms reach class keys
through it.  No import cycle: every module imports at the top, never inside
a function."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lexarith"


def _touches(path, attrs):
    """``file:line .attr`` for every access of one of the attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def test_only_the_model_wraps_or_touches_private_terms():
    found = [t for path in sorted(SRC.glob("*.py")) for t in _touches(path, ("_wrap", "_raw"))]
    # the model's own accesses show that the check sees them
    assert found and all(t.startswith("model.py:") for t in found), found


def test_automorph_reads_no_raw_terms():
    assert _touches(SRC / "automorph.py", ("raw",)) == []


def test_no_module_imports_inside_a_function():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []
