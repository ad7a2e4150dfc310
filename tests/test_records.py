"""The package's records are plain classes and named tuples.

A record compares by its fields.  An immutable one refuses assignment and
hashes by its fields; a descriptor's equality and hash leave out the class
keys its constructor caches.  A suite result, which its suite fills in,
compares by its fields and has no hash.  A CLI process imports neither
``dataclasses`` nor ``inspect``.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from lexarith import automorph as am
from lexarith.analysis import ClassSequence, EmbedResult
from lexarith.equiv import Verdict
from lexarith.errors import InvariantViolation
from lexarith.jsonio import descriptor_from_json, descriptor_to_json
from lexarith.oracle import BoundN, Companion
from lexarith.sampler import SampleProfile, Sampler
from lexarith.suites import SuiteResult
from lexarith.textform import parse_element

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def P(text, dim=1):
    return parse_element(text, dim)


# kind -> (dim, a fresh descriptor of that kind, built anew on each call)
DESCRIPTORS = {
    "identity": (1, lambda: am.Identity()),
    "e0_class_shift": (1, lambda: am.E0ClassShift(P("t"), 3)),
    "e2_affine": (1, lambda: am.E2Affine(P("t"), P("3*t + 5"), 4, P("1/3*t - 1"), 2)),
    "e3_shift": (2, lambda: am.E3Shift(P("t^(1,0)", 2), P("t^(1,1)", 2), P("t^(0,1)", 2))),
    "compose": (1, lambda: am.Compose((am.E0ClassShift(P("t"), 3), am.E0ClassShift(P("t^2"), -1)))),
    "inverse": (1, lambda: am.Inverse(am.E0ClassShift(P("t"), 3))),
    "segment_extend": (1, lambda: am.SegmentExtend(am.E0ClassShift(P("t"), 2), P("t"), P("t + 2"))),
}

# record -> a fresh record, built anew on each call
RECORDS = {
    **{f"descriptor-{kind}": make for kind, (_, make) in DESCRIPTORS.items()},
    "ValidationReport": lambda: am.ValidationReport(probes=5, pairs=4),
    "BoundN": lambda: BoundN(4),
    "Companion": lambda: Companion(P("t + 1")),
    "Verdict": lambda: Verdict(2, True, BoundN(4), {"rule": "degrees-equal"}),
    "ClassSequence": lambda: ClassSequence("e0", 0, "up", (P("t"), P("t + 1"))),
    "EmbedResult": lambda: EmbedResult(Fraction(3, 2), False),
    "SampleProfile": lambda: SampleProfile(dim=2, seed=7),
    "SuiteResult": lambda: SuiteResult("demo", 1, 2, 7),
}


def _fields(record) -> tuple:
    return type(record)._fields


def test_every_former_dataclass_is_covered():
    assert set(DESCRIPTORS) == set(am.KINDS)
    assert len(RECORDS) == 15


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_make_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    try:
        ha = hash(a)
    except TypeError:  # a field is unhashable, or the record is mutable
        return
    assert ha == hash(b)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"SuiteResult"}))
def test_immutable_records_refuse_assignment(name):
    record = RECORDS[name]()
    for field in _fields(record) or ("kind",):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_descriptor_equality_and_hash_read_the_fields_only():
    d = DESCRIPTORS["e2_affine"][1]()
    values = tuple(getattr(d, name) for name in d._fields)
    assert d._fields == ("a", "b", "n", "c", "m")
    # the constructor caches class keys beside the fields
    assert set(vars(d)) > set(d._fields)
    assert hash(d) == hash(values)
    assert d != am.E2Affine(P("t"), P("3*t + 6"), 4, P("1/3*t - 2"), 0)
    assert d != am.Identity() and am.Identity() == am.Identity()
    with pytest.raises(AttributeError):
        del d.a


def test_suite_result_compares_by_fields_and_is_unhashable():
    a, b = SuiteResult("demo", 1, 2, 7), SuiteResult("demo", 1, 2, 7)
    a.cases += 1
    assert a != b
    b.cases += 1
    b.violations.append({"case": 0, "law": "demo", "detail": "t"})
    assert a != b
    a.violations.append({"case": 0, "law": "demo", "detail": "t"})
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("kind", sorted(DESCRIPTORS))
def test_every_kind_round_trips_through_json(kind):
    dim, make = DESCRIPTORS[kind]
    d = make()
    doc = descriptor_to_json(d)
    assert doc["kind"] == kind
    assert descriptor_from_json(doc, dim) == d


@pytest.mark.parametrize("bad", ({"dim": 3}, {"max_terms": 0}, {"coeff_bound": 0}))
def test_the_sampler_checks_its_profile(bad):
    with pytest.raises(InvariantViolation):
        Sampler(SampleProfile(**bad))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # what the interpreter and site load before lexarith does not count
    probe = (
        "import sys; before = set(sys.modules); import lexarith.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
