"""The suite registry: names, order, and the dim-1 skips."""

import pathlib
import re

import pytest

from lexarith import suites

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_registry_order_is_the_readme_list():
    listed = re.search(r"Suites: `([^`]*)`", README.read_text(encoding="utf-8")).group(1).split()
    assert list(suites.SUITES) == listed


@pytest.mark.parametrize("dim", [1, 2])
def test_each_suite_returns_a_result_named_by_its_key(dim):
    for name, (suite, _) in suites.SUITES.items():
        r = suite(1, 7, dim)
        assert (r.name, r.dim, r.samples, r.seed) == (name, dim, 1, 7)
        assert r.ok, name


@pytest.mark.parametrize("name, reason", [
    ("auto-e3", "level-3 construction is nontrivial only for dim 2"),
    ("embed", "the real embedding is computed on the dim-2 lattice"),
], ids=["auto-e3", "embed"])
def test_dim2_only_suites_skip_in_dim1(name, reason):
    r, = suites.run_suites(name, 10, 7, 1)
    assert r.name == name
    assert r.stats == {"skipped": reason}
    assert r.cases == 0 and r.ok
