"""Module layering.  One seam for the term layout: only the model builds or
takes apart the raw terms of an element, only the model and automorphisms
(on opaque class keys) call the kernel, and no module reads another
module's private name.  No import cycle among the top-level imports.  Only
the I/O boundary (``cli.py``, ``jsonio.py``) imports inside a function,
and only package modules by a plain ``from . import m``, so a CLI request
loads only the modules its command runs; nothing imports by name at run
time (``importlib``, ``__import__``).  The oracle, which defines the
equivalence levels, is the one module that writes the level set and the
one that refuses a standard element, so the pair rule has one home."""

import ast
import graphlib
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


# the level set, the bound levels and the companion levels
LEVEL_LITERALS = {(0, 1, 2, 3, 4), (0, 2, 4), (1, 3)}


def _constants(nodes):
    return tuple(n.value for n in nodes) if all(isinstance(n, ast.Constant) for n in nodes) else None


def test_only_the_oracle_writes_the_level_set():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Tuple, ast.List)) and _constants(node.elts) in LEVEL_LITERALS
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
        and _constants(node.args) == (5,)
    ]
    # the oracle's own definitions show that the check sees them
    assert found and all(t.startswith("oracle.py:") for t in found), found


def test_only_the_oracle_raises_standard_input():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "StandardInput" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    # the oracle's own pair rule shows that the check sees it
    assert found and all(t.startswith("oracle.py:") for t in found), found


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


def _imports(tree):
    """(import node, whether it runs inside a function) for every import of a module."""
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, id(node) in inside


def _package_modules(node) -> set:
    """The package modules a relative import names: ``from . import a, b``
    names a and b, ``from .a import x`` names a."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def test_the_top_level_import_graph_is_acyclic():
    graph = {
        name[:-3]: {m for node, late in _imports(tree) if not late for m in _package_modules(node)}
        for name, tree in _trees()
    }
    # a topological sort exists only for an acyclic graph; CycleError names the cycle
    order = list(graphlib.TopologicalSorter(graph).static_order())
    # the edges are seen: the kernel comes before the model, the model before the CLI
    assert order.index("_kernel_py") < order.index("model") < order.index("cli")


# module -> the package modules it imports inside functions: the I/O
# boundary loads what only some commands run when a command runs it
LATE_IMPORTS = {
    "cli.py": {"analysis", "automorph", "equiv", "suites"},
    "jsonio.py": {"automorph"},
}


def test_only_the_io_boundary_imports_inside_a_function():
    found, late = [], {}
    for name, tree in _trees():
        for node, inside in _imports(tree):
            if not inside:
                continue
            names = _package_modules(node)
            plain = isinstance(node, ast.ImportFrom) and node.module is None and node.level == 1
            if name not in LATE_IMPORTS or not plain or not all((SRC / f"{m}.py").exists() for m in names):
                found.append(f"{name}:{node.lineno}")
            late.setdefault(name, set()).update(names)
    assert found == []
    assert late == LATE_IMPORTS


def test_no_module_imports_by_name_at_run_time():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__import__"
        or isinstance(node, ast.Attribute) and node.attr == "__import__"
        or isinstance(node, ast.Import) and any(a.name.split(".")[0] == "importlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "importlib"
    ]
    assert found == []
