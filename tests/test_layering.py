"""Module layering.  One seam for the term layout: only the model builds or
takes apart the raw terms of an element, only the model and automorphisms
(on opaque class keys) call the kernel, and no module reads another
module's private name.  No import cycle: every module imports at the top,
never inside a function."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lexarith"


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_the_model_wraps_or_touches_private_terms():
    found = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("raw", "_raw", "_wrap")
    ]
    # the model's own accesses show that the check sees them
    assert found and all(t.startswith("model.py:") for t in found), found


def test_automorph_reads_no_raw_terms():
    tree = ast.parse((SRC / "automorph.py").read_text(encoding="utf-8"))
    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "raw"]
    assert found == []


def test_only_the_model_and_automorphisms_take_the_kernel():
    found = {
        f"{name}: {node.module or ''}.{alias.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if {node.module, alias.name} & {"_backend", "_kernel_py"}
    }
    assert found == {
        "_backend.py: ._kernel_py",
        "__init__.py: _backend.backend_name",
        "automorph.py: _backend.kernel",
        "model.py: _backend.kernel",
    }


def test_no_module_reads_another_modules_private_name():
    found = []
    for name, tree in _trees():
        # names bound by an import from inside the package: modules, classes, functions
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    imported.add(alias.asname or alias.name)
                    # a package module may be private; a name imported from one may not
                    if alias.name.startswith("_") and not (SRC / f"{alias.name}.py").exists():
                        found.append(f"{name}:{node.lineno} import {alias.name}")
        found += [
            f"{name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    assert found == []


def test_no_module_imports_inside_a_function():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []
