"""The suite registry: names, order, and the dim-1 skips."""

import pathlib
import re
from math import gcd

import pytest

from lexarith import model, suites
from lexarith._backend import kernel as K
from lexarith.errors import InvariantViolation

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


def _reduced(r):
    return type(r) is tuple and len(r) == 2 and r[1] > 0 and gcd(*r) == 1


def _canonical_faults(raw, dim):
    """What keeps a raw series from being a canonical element: a reason, or
    None."""
    if type(raw) is not tuple:
        return "not a tuple"
    for e, c in raw:
        if type(e) is not tuple or len(e) != dim or not all(_reduced(r) for r in e):
            return f"exponent {e} is not {dim} reduced pairs"
        if not _reduced(c):
            return f"coefficient {c} is not a reduced pair"
        if not c[0]:
            return "zero coefficient"
    for (e1, _), (e2, _) in zip(raw, raw[1:]):
        if not K.exp_cmp(e1, e2) > 0:
            return f"exponents {e1}, {e2} not strictly descending"
    try:
        model._check_terms(raw, dim)
    except InvariantViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("dim", [1, 2])
def test_every_element_the_suites_build_is_canonical(dim, monkeypatch):
    # Element._wrap skips validation, so every shortcut that assembles terms
    # by hand relies on this check
    wrap = model.Element.__dict__["_wrap"].__func__
    wrapped, faults = [], []

    def checked(cls, raw, d):
        wrapped.append(1)
        fault = _canonical_faults(raw, d)
        if fault:
            faults.append((fault, raw))
        return wrap(cls, raw, d)

    monkeypatch.setattr(model.Element, "_wrap", classmethod(checked))
    results = suites.run_suites("all", 30, 7, dim)
    assert faults == []
    assert all(r.ok for r in results)
    assert len(wrapped) > 1000
