"""``tests/mutants.json`` against the tree: every recorded mutant still
applies, so a refactor that moves a snippet must update the list.

Each snippet occurs exactly once in its file, the ids are unique, and each
named test is defined in its test file.  The replay itself, which runs the
named tests on each mutant, is ``python3 tools/mutants.py``.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

MUTANTS = tool.load()


def test_every_snippet_occurs_exactly_once():
    assert MUTANTS and tool.stale(MUTANTS) == []


def test_ids_are_unique_and_each_mutant_changes_its_snippet():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    assert all(m["snippet"] != m["replacement"] and m["tests"] for m in MUTANTS)


def _defined(test_id: str) -> bool:
    """Whether the file of a ``path::Class::test`` id defines that chain of names."""
    path, *names = test_id.split("[")[0].split("::")
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        found = [n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        if not found:
            return False
        body = found[0].body
    return bool(names)


def test_every_named_test_is_defined():
    assert [t for m in MUTANTS for t in m["tests"] if not _defined(t)] == []
