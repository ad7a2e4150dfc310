"""Replay the recorded mutants: does each still fail the tests named for it?

Each entry of ``tests/mutants.json`` is one mutant: an ``id``, a ``file``
under the repository root, a ``snippet`` that must occur in that file
exactly once, its ``replacement``, the ``tests`` (pytest ids) that must
fail once it is applied, and a ``note`` on what it breaks.  For each
mutant the tool copies the tree to a temporary directory, applies the
mutant there, runs the named tests with ``python -m pytest -q -x``, and
reports the mutant killed (the tests fail) or survived (they pass).  The
named tests first run once on an unmutated copy, where they must pass, so
that a kill means the mutant.  Stdlib only; the repository is not touched.

Run from the repository root::

    python3 tools/mutants.py

Exit status 0 when every mutant is killed; 1 when one survives, when a
snippet does not occur exactly once, or when the tests do not run (an
unmutated copy fails them, or pytest ends with neither pass nor fail).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tests" / "mutants.json"
# what is not part of the tree a test run needs
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")


def load() -> list:
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def stale(mutants: list) -> list:
    """The ids of the mutants whose snippet does not occur exactly once."""
    return [m["id"] for m in mutants if (ROOT / m["file"]).read_text(encoding="utf-8").count(m["snippet"]) != 1]


def _run_tests(tree: Path, tests: list) -> int:
    """pytest's exit status for the tests, run inside the copied tree, whose
    pyproject puts the copy's ``src`` first on the import path."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", *tests],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _copy(tmp: str, name: str) -> Path:
    return Path(shutil.copytree(ROOT, Path(tmp) / name, ignore=_IGNORE))


def replay(mutant: dict, tmp: str) -> str:
    """"killed", "survived" or "error" (pytest neither passed nor failed)."""
    tree = _copy(tmp, mutant["id"])
    path = tree / mutant["file"]
    path.write_text(path.read_text(encoding="utf-8").replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
    status = _run_tests(tree, mutant["tests"])
    shutil.rmtree(tree)
    return {0: "survived", 1: "killed"}.get(status, "error")


def main() -> int:
    mutants = load()
    bad = stale(mutants)
    if bad:
        print(f"snippet does not occur exactly once: {', '.join(bad)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        status = _run_tests(_copy(tmp, "unmutated"), tests)
        if status != 0:
            print(f"the named tests do not pass unmutated (pytest exit {status})")
            return 1
        killed = 0
        for m in mutants:
            outcome = replay(m, tmp)
            killed += outcome == "killed"
            print(f"{outcome:8}  {m['id']}", flush=True)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
