"""Order-automorphism descriptors: build, apply, invert, validate."""

import pytest

from lexarith import automorph as am
from lexarith import jsonio, model, suites
from lexarith.errors import (
    InvariantViolation,
    NotE2Equivalent,
    NotE3Equivalent,
    ValidationFailure,
)
from lexarith.model import (
    Element,
    const_value,
    deg_level,
    divmod_scalar,
    is_standard,
    sub,
    trunc_const,
)
from lexarith.sampler import SampleProfile, Sampler
from lexarith.textform import parse_element


def P(text, dim=1):
    return parse_element(text, dim)


def probes_for(dim, seed, count=150, extra=()):
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    pool = {s.element() for _ in range(count)}
    pool.update(extra)
    return sorted(pool)


class TestBuildFromE2:
    def test_basic_map(self):
        d = am.build_from_e2(P("t"), P("2*t + 1"))
        assert am.apply(d, P("t")) == P("2*t + 1")
        am.validate(d, probes_for(1, 3, extra=[P("t"), P("2*t + 1")]), anchors=((P("t"), P("2*t + 1")),))

    def test_identity(self):
        a = P("t^2 + 4")
        assert isinstance(am.build_from_e2(a, a), am.Identity)

    def test_not_equivalent(self):
        with pytest.raises(NotE2Equivalent, match=r"degrees differ: \(1\) vs \(2\)"):
            am.build_from_e2(P("t"), P("t^2"))

    def test_finite_distance_pair_uses_class_shift(self):
        d = am.build_from_e2(P("t"), P("t + 5"))
        assert isinstance(d, am.E0ClassShift)
        assert am.apply(d, P("t")) == P("t + 5")
        assert am.apply(d, P("t^2")) == P("t^2")

    def test_exact_multiple_boundary(self):
        a, b = P("t"), P("3*t")
        d = am.build_from_e2(a, b)
        assert am.apply(d, a) == b
        am.validate(d, probes_for(1, 5, extra=[a, b]), anchors=((a, b),))

    def test_descending_pair_inverts(self):
        a, b = P("4*t + 2"), P("t")
        d = am.build_from_e2(a, b)
        assert am.apply(d, a) == b
        am.validate(d, probes_for(1, 7, extra=[a, b]), anchors=((a, b),))

    def test_standard_elements_fixed_pointwise(self):
        d = am.build_from_e2(P("t"), P("5*t + 3"))
        for k in (0, 1, 2, 17):
            assert am.apply(d, Element.integer(k, 1)) == Element.integer(k, 1)

    def test_dim2_affine(self):
        a, b = P("t^(1,2) + 4", 2), P("3*t^(1,2) + t^(0,1)", 2)
        d = am.build_from_e2(a, b)
        assert am.apply(d, a) == b
        am.validate(d, probes_for(2, 11, extra=[a, b]), anchors=((a, b),))


class TestBuildFromE3:
    def test_normalized_case(self):
        a1, a2 = P("t^(1,0)", 2), P("t^(1,1)", 2)
        d = am.build_from_e3(a1, a2)
        assert isinstance(d, am.E3Shift)
        assert am.apply(d, a1) == a2
        am.validate(d, probes_for(2, 13, extra=[a1, a2]), anchors=((a1, a2),))

    def test_composite_case(self):
        a1, a2 = P("t^(1,0) + t^(1,-1)", 2), P("5*t^(1,3) + 7", 2)
        d = am.build_from_e3(a1, a2)
        assert am.apply(d, a1) == a2
        am.validate(d, probes_for(2, 17, extra=[a1, a2]), anchors=((a1, a2),))

    def test_dim1_delegates_to_affine(self):
        d = am.build_from_e3(P("t"), P("3*t"))
        assert am.apply(d, P("t")) == P("3*t")
        assert not isinstance(d, am.E3Shift)

    def test_not_equivalent(self):
        with pytest.raises(NotE3Equivalent, match=r"links \(1,0\) and \(2,0\)"):
            am.build_from_e3(P("t^(1,0)", 2), P("t^(2,0)", 2))

    def test_offsets_preserved_within_classes(self):
        a1, a2 = P("t^(1,0)", 2), P("t^(1,2)", 2)
        d = am.build_from_e3(a1, a2)
        x = P("t^(1,0) + t^(0,3) + 9", 2)
        fx = am.apply(d, x)
        assert fx == P("t^(1,2) + t^(0,3) + 9", 2)

    def test_descending_pair_inverts(self):
        # built for the ascending pair, then inverted: a1 > a2
        a1, a2 = P("t^(1,1)", 2), P("t^(1,0)", 2)
        d = am.build_from_e3(a1, a2)
        assert d == am.E3Shift(a2, a1, P("t^(0,1)", 2)).inverse()
        assert am.apply(d, a1) == a2
        am.validate(d, probes_for(2, 53, extra=[a1, a2]), anchors=((a1, a2),))

    def test_dominated_class_fixed(self):
        d = am.build_from_e3(P("t^(1,0)", 2), P("t^(1,1)", 2))
        small = P("t^(0,7) + 3", 2)
        assert am.apply(d, small) == small


class TestApplyInvertCompose:
    def test_identity(self):
        x = P("t^3 + t")
        assert am.apply(am.Identity(), x) == x
        assert isinstance(am.Identity().inverse(), am.Identity)

    def test_class_shift_examples(self):
        sh = am.E0ClassShift(P("t"), 1)
        assert am.apply(sh, P("t + 4")) == P("t + 5")
        assert am.apply(sh, P("t^2")) == P("t^2")
        assert sh.inverse() == am.E0ClassShift(P("t"), -1)

    def test_compose_right_to_left(self):
        sh1 = am.E0ClassShift(P("t"), 1)
        d = am.build_from_e2(P("t"), P("2*t"))
        comp = am.compose(d, sh1)  # first shift, then scale
        assert am.apply(comp, P("t")) == am.apply(d, P("t + 1"))

    def test_compose_of_no_factor_or_one(self):
        d = am.build_from_e2(P("t"), P("2*t + 1"))
        assert am.compose() == am.Identity()
        assert am.compose(am.Identity(), am.Compose(())) == am.Identity()
        assert am.compose(d) is d
        assert am.compose(am.Identity(), d, am.Compose(())) is d

    def test_compose_with_inverse_is_identity_on_probes(self):
        d = am.build_from_e2(P("t"), P("7*t + 2"))
        comp = am.compose(d, d.inverse())
        for x in probes_for(1, 23):
            assert am.apply(comp, x) == x

    def test_inverse_of_e3(self):
        d = am.build_from_e3(P("t^(1,0)", 2), P("t^(1,1)", 2))
        inv = d.inverse()
        for x in probes_for(2, 29):
            assert am.apply(inv, am.apply(d, x)) == x


def _factors(d, kind):
    """Every descriptor of the kind inside d, d itself included."""
    out, stack = [], [d]
    while stack:
        x = stack.pop()
        if isinstance(x, kind):
            out.append(x)
        stack.extend(getattr(x, "parts", ()))
        stack.extend(getattr(x, f) for f in ("of", "below") if hasattr(x, f))
    return out


def _built_factors(kind, dim, level, seed, samples=40):
    """The kind's factors of maps built from sampled equivalent pairs, biased
    toward the non-finite-ratio regime at level 3 as the suites are."""
    s = Sampler(SampleProfile(dim=dim, seed=seed))
    out = []
    for _ in range(samples):
        a, b = suites.equivalent_pair(s, level)
        if level == 3 and s.chance(0.5) and deg_level(a) == 0:
            b = b * Element.monomial(1, (0, 1), dim=2)
        out.extend(_factors((am.build_from_e2 if level == 2 else am.build_from_e3)(a, b), kind))
    return s, out


def _e2_inverse_by_images(d, y):
    """E2Affine's inverse by the route of images: divide y + (n-1)*c - m by
    n, take the representative of the quotient's class (a for a's class, c
    for c's), build its image and check that it lies in y's class."""
    key, const = trunc_const(y), const_value(y)
    if key <= trunc_const(d.c):
        return y, None
    q, _ = divmod_scalar(y + d.c * (d.n - 1) - d.m, d.n)
    r = trunc_const(q)
    if r == trunc_const(d.a):
        r = d.a
    elif not is_standard(d.c) and r == trunc_const(d.c):
        r = d.c
    image = sub(r * d.n + d.b, d.a * d.n)
    assert trunc_const(image) == key
    return r + (const - const_value(image)), r


def _class_key(x):
    """The terms of a dim-2 element with a nonzero first exponent component."""
    return Element([(t.exponent.components, t.coeff) for t in x.terms() if t.exponent.components[0]], 2)


def _e3_inverse_by_images(d, y):
    """E3Shift's inverse by the route of images: divide y's class key by c,
    take the class's representative (a1 for a1's class), build its image
    and check that it lies in y's class; offsets are preserved."""
    key = _class_key(y)
    if key.is_zero():
        return y, None
    (ce, cc), = [(t.exponent.components, t.coeff) for t in d.c.terms()]
    r = Element([(tuple(x - z for x, z in zip(t.exponent.components, ce)), t.coeff / cc) for t in key.terms()], 2)
    if r == _class_key(d.a1):
        r = d.a1
    image = d.a2 if r == d.a1 else d.c * r
    assert _class_key(image) == key
    return sub(y + r, image), r


class TestClosedFormInverse:
    """The closed-form inverses against the route of images they replace."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_e2_affine_matches_the_image_route(self, dim):
        s, maps = _built_factors(am.E2Affine, dim, 2, 53 + dim)
        assert len(maps) >= 10
        via_a = 0
        for d in maps:
            xs = [d.a, d.b, d.c, trunc_const(d.a), trunc_const(d.b), trunc_const(d.c), Element.integer(3, dim)]
            xs += [x + k for x in xs for k in (1, 4)] + [s.element() for _ in range(12)]
            for y in xs + [d.apply(x) for x in xs]:
                expected, rep = _e2_inverse_by_images(d, y)
                assert d.apply_inverse(y) == expected, (d, y)
                via_a += rep is d.a and const_value(d.a) != 0
        # a's class, whose representative a is not its key, is reached
        assert via_a > 0

    def test_e3_shift_matches_the_image_route(self):
        s, maps = _built_factors(am.E3Shift, 2, 3, 59)
        assert len(maps) >= 10
        via_a1 = 0
        for d in maps:
            dominated = [P("t^(0,5) + 3", 2), P("t^(0,1)", 2), Element.integer(2, 2)]
            xs = [d.a1, d.a2, _class_key(d.a1), _class_key(d.a2)] + dominated
            xs += [x + k for x in xs for k in (1, 6)] + [x + dominated[0] for x in xs]
            xs += [s.element() for _ in range(12)]
            for y in xs + [d.apply(x) for x in xs]:
                expected, rep = _e3_inverse_by_images(d, y)
                assert d.apply_inverse(y) == expected, (d, y)
                via_a1 += rep is d.a1 and d.a1 != _class_key(d.a1)
        # a1's class, whose representative a1 is not its key, is reached
        assert via_a1 > 0

    def test_e2_affine_inverse_builds_no_quotient_and_no_image(self, monkeypatch):
        d = am.build_from_e2(P("t^(1,2) + 4", 2), P("3*t^(1,2) + t^(0,1)", 2))
        assert isinstance(d, am.E2Affine)
        ys = [d.apply(x) for x in probes_for(2, 61, extra=[d.a, d.c])]

        def refused(*args):
            raise AssertionError("the closed-form inverse must not call this")

        monkeypatch.setattr(am, "divmod_scalar", refused)
        monkeypatch.setattr(model, "divmod_scalar", refused)
        monkeypatch.setattr(am.E2Affine, "apply", refused)
        for y in ys:
            d.apply_inverse(y)

    def test_e3_shift_inverse_makes_one_product_and_no_image(self, monkeypatch):
        d = am.build_from_e3(P("t^(1,0) + 2*t^(0,3) + 1", 2), P("t^(1,2)", 2))
        shift, = _factors(d, am.E3Shift)
        ys = [shift.apply(x) for x in probes_for(2, 67, extra=[shift.a1, shift.a1 + 2])]
        ys = [y for y in ys if _class_key(y)]
        products = []
        terms_mul = am.K.terms_mul

        def counted(A, B):
            products.append(1)
            return terms_mul(A, B)

        def refused(self, x):
            raise AssertionError("the closed-form inverse must not call apply")

        monkeypatch.setattr(am.K, "terms_mul", counted)
        monkeypatch.setattr(am.E3Shift, "apply", refused)
        for y in ys:
            products.clear()
            shift.apply_inverse(y)
            assert len(products) == 1


class TestSegmentExtend:
    def test_identity_segment(self):
        g = am.SegmentExtend(am.Identity(), P("t"), P("t"))
        for x in probes_for(1, 31):
            assert am.apply(g, x) == x

    def test_shift_above_anchor(self):
        a, b = P("t^2"), P("t^2 + t")
        g = am.SegmentExtend(am.build_from_e2(a, b), a, b)
        assert am.apply(g, a) == b
        assert am.apply(g, a + 5) == b + 5
        am.validate(g, [P("t^2 - 1"), a, P("t^2 + 1/2*t")])

    def test_glued_affine_segment(self):
        a = P("t^9")
        b = P("3*t^9 - t + 1")
        inner = am.build_from_e2(P("t"), P("2*t + 1"))
        assert am.apply(inner, a) == b
        g = am.SegmentExtend(inner, a, b)
        assert am.apply(g, a) == b
        assert am.apply(g, P("t + 3")) == am.apply(inner, P("t + 3"))
        probes = probes_for(1, 37, extra=[a, b, a + 7, P("t^9 - 1")])
        am.validate(g, probes, anchors=((a, b),))

    def test_bad_segment_surfaces_in_validate(self):
        # below(a) != b: the segment under a does not map onto the one under b
        with pytest.raises(InvariantViolation):
            am.SegmentExtend(am.Identity(), P("t"), P("1/2*t"))
        # past the constructor's check, the probes still catch the broken
        # map: monotonicity breaks at the seam
        g = am.SegmentExtend(am.Identity(), P("t"), P("t"))
        object.__setattr__(g, "b", P("1/2*t"))
        probes = sorted({P("t - 1"), P("t"), P("t + 1"), P("t^2")})
        with pytest.raises(ValidationFailure):
            am.validate(g, probes)


class TestValidate:
    def test_passes_on_good_descriptor(self):
        a, b = P("t"), P("2*t + 1")
        d = am.build_from_e2(a, b)
        report = am.validate(d, probes_for(1, 41, extra=[a, b]), anchors=((a, b),))
        assert report.probes > 100
        assert report.pairs == report.probes - 1

    def test_wrong_passed_anchor_fails(self):
        a, b = P("t"), P("2*t + 1")
        d = am.build_from_e2(a, b)
        with pytest.raises(ValidationFailure) as exc:
            am.validate(d, probes_for(1, 41, extra=[a, b]), anchors=((a, b + 1),))
        assert exc.value.check == "anchor"
        assert (exc.value.probe, exc.value.other) == (a, b + 1)

    def test_corrupted_descriptor_fails(self):
        d = am.build_from_e2(P("t"), P("2*t + 1"))
        with pytest.raises(InvariantViolation):
            am.E2Affine(a=d.a, b=d.b + 5, n=d.n, c=d.c, m=d.m)
        # past the constructor's check, the probes still catch the broken map
        bad = am.build_from_e2(P("t"), P("2*t + 1"))
        object.__setattr__(bad, "b", d.b + 5)
        with pytest.raises(ValidationFailure):
            am.validate(bad, probes_for(1, 43), anchors=((P("t"), P("2*t + 1")),))

    def test_broken_inverse_fails_the_round_trip(self):
        d = am.build_from_e3(P("t^(1,0)", 2), P("t^(1,1)", 2))
        # the inverse now divides by t^(0,2), the map still multiplies by t^(0,1)
        object.__setattr__(d, "_inv_c", model.monomial_inverse(P("t^(0,2)", 2)))
        with pytest.raises(ValidationFailure) as exc:
            am.validate(d, probes_for(2, 59))
        assert exc.value.check == "inverse-roundtrip"

    def test_standard_image_of_a_nonstandard_fails(self):
        # glued at 0 instead of t: x -> t + x, monotone and inverted exactly
        # on the probes, but 0 maps to t
        g = am.SegmentExtend(am.Identity(), P("t"), P("t"))
        object.__setattr__(g, "a", Element.zero(1))
        with pytest.raises(ValidationFailure) as exc:
            am.validate(g, probes_for(1, 61, extra=[Element.zero(1)]))
        assert exc.value.check == "standard-preservation"
        assert exc.value.probe == Element.zero(1)

    def test_probes_in_any_order_with_repeats(self):
        a, b = P("t"), P("2*t + 1")
        d = am.build_from_e2(a, b)
        probes = probes_for(1, 41, extra=[a, b])
        # reversed, then the even-indexed probes a second time
        shuffled = probes[::-1] + probes[::2]
        report = am.validate(d, shuffled, anchors=((a, b),))
        assert report == am.validate(d, probes, anchors=((a, b),))
        assert report.probes == len(probes)

    def test_e0_transport_on_probe_pairs(self):
        d = am.build_from_e3(P("t^(1,0)", 2), P("t^(1,4)", 2))
        probes = probes_for(2, 47)
        extra = [P("t^(1,0) + 3", 2), P("t^(1,0) + 4", 2)]
        # the two extras share a class, and so do their images
        report = am.validate(d, sorted(set(probes + extra)))
        assert report.pairs == len(set(probes + extra)) - 1

    def test_class_split_fails_e0_transport(self):
        # monotone, invertible and fixing the standard elements, but t + 2
        # and t + 3 leave the one finite-distance class for two
        cut, lift = P("t + 3"), P("t^(1/2)")

        class Split(am.Descriptor):
            def apply(self, x):
                return x if x < cut else x + lift

            def apply_inverse(self, y):
                return y if y < cut else sub(y, lift)

        probes = [Element.integer(1, 1), P("t + 2"), cut, P("t^2")]
        with pytest.raises(ValidationFailure) as exc:
            am.validate(Split(), probes)
        assert exc.value.check == "e0-transport"
        assert (exc.value.probe, exc.value.other) == (P("t + 2"), cut)


def _roundtrip_cases():
    aff = am.build_from_e2(P("t"), P("2*t + 1"))
    shift = am.E0ClassShift(P("t^2"), -3)
    e3 = am.build_from_e3(P("t^(1,0)", 2), P("t^(1,1)", 2))
    composite = am.build_from_e3(P("t^(1,0) + t^(1,-1)", 2), P("5*t^(1,3) + 7", 2))
    below = am.Compose((am.Inverse(aff), shift))
    return [
        (1, am.Identity()),
        (1, shift),
        (1, aff),
        (2, e3),
        (2, composite),
        (1, am.Inverse(aff)),
        (1, am.Compose((am.Compose((shift, aff)), am.Inverse(aff), am.Identity()))),
        (1, am.SegmentExtend(below, P("t^9"), am.apply(below, P("t^9")))),
        (2, am.Inverse(composite)),
    ]


def test_descriptor_json_roundtrip_covers_every_kind():
    cases = _roundtrip_cases()
    seen = set()
    for dim, d in cases:
        doc = jsonio.descriptor_to_json(d)
        back = jsonio.descriptor_from_json(doc, dim)
        assert back == d
        assert jsonio.dumps(jsonio.descriptor_to_json(back)) == jsonio.dumps(doc)
        seen.update(x.kind for x in _factors(d, am.Descriptor))
    assert seen == set(am.KINDS)
