"""``tools/code_lines.py``, the one line counter, against hand counts.

A code line holds at least one token of code.  Blank lines, comment lines
and the lines of module, class, ``def`` and ``async def`` docstrings do not
count; any other string does, and a statement spread over several lines
counts each of them.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

# every kind of line, numbered by hand; the 10 code lines are marked "# code"
SAMPLE = '''\
"""Module docstring,
over two lines."""

# a comment line
import os  # code


class Box:  # code
    """Class docstring."""

    label = "a string that is not a docstring"  # code

    def area(self):  # code
        """Def docstring,

        over three lines."""
        return (1  # code
                + 2  # code
                + 3)  # code


async def fetch():  # code
    """Async def docstring."""
    "a second string, not a docstring"  # code
    return os  # code
'''

# case -> (source, its code lines, counted by hand)
CASES = {
    "empty": ("", 0),
    "blank-lines": ("\n\n   \n", 0),
    "comment-lines": ("# one\n    # two\n", 0),
    "trailing-comment": ("x = 1  # counted\n", 1),
    "module-docstring": ('"""Doc,\nover two lines."""\nx = 1\n', 1),
    "class-docstring": ('class C:\n    """Doc."""\n', 1),
    "def-docstring": ('def f():\n    """Doc,\n    over two lines."""\n    return 1\n', 2),
    "async-def-docstring": ('async def f():\n    """Doc."""\n', 1),
    "string-not-a-docstring": ('x = 1\n"""A string after a statement."""\n', 2),
    "string-assigned": ('s = """a\nb"""\n', 2),
    "three-line-statement": ("x = (1 +\n     2 +\n     3)\n", 3),
    "sample": (SAMPLE, 10),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_code_lines_match_the_hand_count(case):
    source, expected = CASES[case]
    assert tool.code_lines(source) == expected


def test_sample_marks_its_code_lines():
    # the hand count of the sample is the number of lines it marks as code
    assert sum(line.endswith("# code") for line in SAMPLE.splitlines()) == CASES["sample"][1]


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text(CASES["three-line-statement"][0])
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    10  a.py", "     3  b.py", "    13  total"]
