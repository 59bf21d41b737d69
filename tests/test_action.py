"""Automorphism-group tests: lifts, relations, actions on points and classes."""

import itertools
import random

import pytest

import frobfix.action as action_module
from frobfix.action import (
    CurveAutomorphism,
    MobiusMap,
    _homogenize,
    automorphism_group,
    fixed_points,
    lift_mobius,
    s3_mobius_maps,
    verify_group_structure,
)
from frobfix.curve import Curve
from frobfix.errors import (
    FieldMismatchError,
    InconsistencyError,
    NotOnCurveError,
    SearchExhaustedError,
)
from frobfix.gf2 import FieldEmbedding, default_field
from frobfix.jacobian import FormalDivisor, enumerate_classes, random_class
from frobfix.poly import _xor, evaluate_masks


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())


def test_six_mobius_maps_form_s3():
    maps = s3_mobius_maps()
    assert len(set(maps)) == 6
    table = set()
    for m1 in maps:
        for m2 in maps:
            table.add(m1.compose(m2))
    assert table == set(maps)
    for m in maps:  # each has an inverse in the group
        assert any(m.compose(k) == maps[0] for k in maps)


def test_lift_identity_gives_id_and_iota():
    c = laszlo_curve()
    f4 = c.field
    ident_map = MobiusMap(1, 0, 0, 1)
    lifts = lift_mobius(c, ident_map)
    assert any(g.is_identity() for g in lifts)
    other = next(g for g in lifts if not g.is_identity())
    # the other lift is the hyperelliptic involution: y -> y + h(x)
    h, _ = c.equation_masks(f4)
    assert other.mobius == ident_map and other.H == h
    f16 = default_field(4)
    for p in c.points_over(f16):
        assert other.apply(p) == p.hyperelliptic_involution()


def test_lift_tau01_exists_over_base():
    c = laszlo_curve()
    tau_map = MobiusMap(1, 1, 0, 1)
    lifts = lift_mobius(c, tau_map)
    for g in lifts:
        # rational over the base, no extension
        assert g.curve.field == c.field and all(m < c.field.order for m in g.H)
        assert g.compose(g).is_identity()


def _curves_up_to_gf64():
    """Every curve of the family over GF(4), GF(8), GF(16) and GF(64)."""
    for d in (2, 3, 4, 6):
        field = default_field(d)
        for mask in range(2, field.order):
            yield Curve(field, field.element(mask))


def test_tau01_lifts_in_closed_form():
    # the lifts of x -> x + 1 are y -> y + T(x^2 + x + 1) and its iota-partner
    # y -> y + T(x^2 + x + 1) + h; both are involutions, so automorphism_group
    # names the one with the smaller key tau01, which is T(x^2 + x + 1)
    # exactly when the mask of T is even
    curves = list(_curves_up_to_gf64())
    assert len(curves) == 84
    named = []
    for c in curves:
        t = c.effective_t.mask
        lifts = lift_mobius(c, MobiusMap(1, 1, 0, 1))
        assert [g.H for g in lifts] == sorted([(t, t, t), (t, t ^ 1, t ^ 1)]), c
        tau01 = automorphism_group(c)[1]["tau01"]
        named.append(tau01.H == (t, t, t))
        assert named[-1] == (t % 2 == 0), c
    assert (named.count(True), named.count(False)) == (42, 42)


@pytest.mark.pinned
def test_group_structure_checks():
    checks = verify_group_structure(laszlo_curve())
    assert all(checks.values()), checks


def test_group_structure_other_t_gf16():
    f16 = default_field(4)
    checks = verify_group_structure(Curve(f16, f16.element(2)))
    assert all(checks.values()), checks


def test_group_structure_raises_on_a_failed_relation(monkeypatch):
    # the table reports order 1 for every element, so only the order profile fails
    monkeypatch.setattr(action_module, "_orders", lambda table, e: [1] * len(table))
    with pytest.raises(InconsistencyError, match=r"^Z/2 x S3 relation fails: order_profile$"):
        verify_group_structure(laszlo_curve())


def test_lift_mobius_raises_when_no_lift_exists(monkeypatch):
    monkeypatch.setattr(action_module, "solve_additive", lambda field, n, rhs, w=None: None)
    c = laszlo_curve()
    tau_map = s3_mobius_maps()[1]
    with pytest.raises(SearchExhaustedError) as exc:
        lift_mobius(c, tau_map)
    assert str(exc.value) == "no lift of Mobius(0x1x+0x1)/(0x0x+0x1) over GF(2^2; 0x7)"


def test_sigma_fixed_points():
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    f16 = default_field(4)
    fp = fixed_points(by_name["sigma"], f16)
    assert len(fp) == 4
    one = f16.one()
    for p in fp:
        assert (p.x * p.x + p.x + one).mask == 0  # x^2 + x + 1 = 0
        # trivial iota-stabilizer: iota moves every sigma-fixed point
        assert p.hyperelliptic_involution() != p


def test_identity_fixes_everything_iota_fixes_weierstrass():
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    f16 = default_field(4)
    pts = c.points_over(f16)
    assert len(fixed_points(by_name["identity"], f16)) == len(pts)
    iota_fixed = fixed_points(by_name["iota"], f16)
    assert sorted((p.x.mask if not p.is_infinity() else -1) for p in iota_fixed) == [-1, 0, 1]


def test_iota_acts_as_minus_one_exhaustively():
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    iota = by_name["iota"]
    for cl in enumerate_classes(c, c.field):
        assert iota.act_on_class(cl).equals(cl.neg())


def test_action_is_additive_and_compatible_with_composition():
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    sigma, tau = by_name["sigma"], by_name["tau01"]
    f16 = default_field(4)
    rng = random.Random(301)
    for _ in range(25):
        a = random_class(c, f16, rng)
        b = random_class(c, f16, rng)
        ga = sigma.act_on_class(a)
        gb = sigma.act_on_class(b)
        assert sigma.act_on_class(a + b).equals(ga + gb)
        assert sigma.compose(tau).act_on_class(a).equals(sigma.act_on_class(tau.act_on_class(a)))


def test_action_permutes_j_gf4():
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    classes = enumerate_classes(c, c.field)
    assert len(set(classes)) == len(classes)
    for name in ("sigma", "tau01", "tau0inf"):
        g = by_name[name]
        # equality lifts to a common field: each image is one of the classes
        # over GF(4), and the images are all distinct
        images = {g.act_on_class(cl) for cl in classes}
        assert images == set(classes)


def test_action_keeps_the_class_field_gf16():
    # every eighth class over GF(16) under all 12 automorphisms: the identity
    # has no support and some supports split over GF(2^8), yet every image is
    # over GF(16), in the Mumford form that enumerate_classes lists
    c, f16 = laszlo_curve(), default_field(4)
    elements, _ = automorphism_group(c)
    classes = enumerate_classes(c, f16)
    keys = {cl.key() for cl in classes}
    sample = classes[::8]
    assert sample[0].is_identity() and any(cl.support()[1] != f16 for cl in sample)
    for cl in sample:
        for g in elements:
            image = g.act_on_class(cl)
            assert image.field == f16 and image.key() in keys, (cl, g)


def test_automorphisms_commute_with_relative_frobenius():
    c = laszlo_curve()
    elements, _ = automorphism_group(c)
    f16 = default_field(4)
    pts = c.points_over(f16)
    for g in elements:
        g_next = g.frobenius_twist()
        for p in pts:
            assert p.relative_frobenius().curve.same_model(g_next.curve)
            lhs = g.apply(p).relative_frobenius()
            rhs = g_next.apply(p.relative_frobenius())
            assert lhs == rhs


def test_inverse_and_composition_agree_with_the_action_on_points():
    c = laszlo_curve()
    elements, _ = automorphism_group(c)
    f16 = default_field(4)
    pts = c.points_over(f16)
    # the image of infinity is over the base field: compare over GF(16)
    for g in elements:
        (g_inv,) = [k for k in elements if g.compose(k).is_identity()]
        for p in pts:
            assert g_inv.apply(g.apply(p)).lift(f16) == p.lift(f16)
        for k in elements:
            gk = g.compose(k)
            for p in pts:
                assert gk.apply(p).lift(f16) == g.apply(k.apply(p)).lift(f16)


def test_homogenize_matches_pointwise():
    rng = random.Random(6)
    for field in (default_field(4), default_field(8)):
        exp, log = field.tables()
        for m in s3_mobius_maps():
            for k in range(7):
                for _ in range(3):
                    p = tuple(field.random(rng).mask for _ in range(rng.randrange(k + 2)))
                    got = _homogenize(m, p, k)
                    assert len(got) <= k + 1 and (not got or got[-1])
                    for x in field.elements():
                        dx = m.denominator_at(x)
                        if dx:
                            px = evaluate_masks(exp, log, p, m.apply_x(x).mask)
                            want = field.mul_masks(px, field.pow_mask(dx, k))
                            assert evaluate_masks(exp, log, got, x.mask) == want
                        else:
                            assert m.apply_x(x) is None
        with pytest.raises(ValueError, match="exceeds"):
            _homogenize(MobiusMap(1, 0, 0, 1), (0, 0, 0, 1), 2)


def test_constructor_rejects_a_long_or_out_of_range_h():
    c, ident = laszlo_curve(), MobiusMap(1, 0, 0, 1)
    with pytest.raises(ValueError, match="degree 4"):
        CurveAutomorphism(c, ident, (0, 0, 0, 0, 1))
    for bad in (4, -1):  # GF(4) masks are 0..3
        with pytest.raises(ValueError, match="out of range"):
            CurveAutomorphism(c, ident, (bad,))
    assert CurveAutomorphism(c, ident, (0, 0, 0, 0, 0)).is_identity()  # trailing zeros trim


def test_apply_with_a_wrong_mapped_h_leaves_the_curve(monkeypatch):
    # the y-transform divides by D(x), nonzero whenever apply_x finds the
    # image finite, so no pole check guards it; curve.point checks the image
    c = laszlo_curve()
    _, by_name = automorphism_group(c)
    real = CurveAutomorphism._mapped
    monkeypatch.setattr(
        CurveAutomorphism, "_mapped", lambda self, field: _xor(real(self, field), (1,))
    )
    (origin,) = c.points_at(c.field.zero())
    with pytest.raises(NotOnCurveError):
        by_name["identity"].apply(origin)


def test_mobius_maps_are_the_invertible_bit_matrices():
    invertible = []
    for bits in itertools.product((0, 1), repeat=4):
        a, b, c, d = bits
        if a & d == b & c:
            with pytest.raises(ValueError, match="singular"):
                MobiusMap(*bits)
        else:
            invertible.append(MobiusMap(*bits))
    assert len(invertible) == 6
    assert set(invertible) == set(s3_mobius_maps())
    f4 = default_field(2)
    for m in invertible:
        assert m.permutes_branch_points()
        images = [m.apply_x(x) for x in (f4.zero(), f4.one())]
        images = {None if y is None else y.mask for y in images} | {m.image_of_infinity()}
        assert images == {0, 1, None}
    for bad in ((2, 0, 0, 1), (1, 0, 0, f4.one()), (f4.gen(), 1, 1, 0)):
        with pytest.raises(ValueError, match="bits"):
            MobiusMap(*bad)


def test_apply_rejects_a_point_on_another_model():
    f16 = default_field(4)
    elements, _ = automorphism_group(Curve(f16, f16.element(2)))
    pts = Curve(f16, f16.element(3)).points_over(f16)
    assert len(elements) * len(pts) == 84
    for g in elements:
        for p in pts:
            with pytest.raises(FieldMismatchError, match="different curve model"):
                g.apply(p)


def test_action_embeds_nothing_over_the_common_field(monkeypatch):
    c = laszlo_curve()
    elements, _ = automorphism_group(c)
    f16 = default_field(4)
    pts = c.points_over(f16)
    calls = []
    real = FieldEmbedding.__call__
    monkeypatch.setattr(
        FieldEmbedding, "__call__", lambda self, elem: calls.append(elem) or real(self, elem)
    )
    assert all(p.lift(p.field) is p for p in pts)
    for g in elements:
        for p in pts:
            if not p.is_infinity():
                g.mobius.apply_x(p.x)
    divisor = FormalDivisor(c, [(p, 1) for p in pts])
    assert divisor.field == f16 and len(divisor.entries) == len(pts) - 1 and divisor.inf == 1
    assert calls == []


@pytest.mark.pinned
def test_reference_coefficient_keys_are_pinned():
    # (Mobius key, a, b, c) for y -> (a y + b) / c, in automorphism_group order
    elements, _ = automorphism_group(laszlo_curve())
    assert [g.coefficient_key() for g in elements] == [
        ((1, 0, 0, 1), (1,), (), (1,)),
        ((1, 1, 0, 1), (1,), (2, 2, 2), (1,)),
        ((0, 1, 1, 0), (1,), (), (0, 0, 0, 1)),
        ((0, 1, 1, 1), (1,), (2, 2, 2), (1, 1, 1, 1)),
        ((1, 0, 1, 1), (1,), (0, 2, 2, 2), (1, 1, 1, 1)),
        ((1, 1, 1, 0), (1,), (0, 2, 2, 2), (0, 0, 0, 1)),
        ((1, 1, 0, 1), (1,), (2, 3, 3), (1,)),
        ((0, 1, 1, 0), (1,), (0, 1, 1), (0, 0, 0, 1)),
        ((0, 1, 1, 1), (1,), (2, 3, 3), (1, 1, 1, 1)),
        ((1, 0, 1, 1), (1,), (0, 3, 3, 2), (1, 1, 1, 1)),
        ((1, 1, 1, 0), (1,), (0, 3, 3, 2), (0, 0, 0, 1)),
        ((1, 0, 0, 1), (1,), (0, 1, 1), (1,)),
    ]


# -- planted faults: one case per InconsistencyError site in action.py ---------
# Each plant installs one fault and returns the call that must raise.


def _plant_solve(monkeypatch, change):
    """solve_additive, as lift_mobius sees it, returns change(particular, kernel)."""
    real = action_module.solve_additive
    monkeypatch.setattr(
        action_module, "solve_additive", lambda field, n, rhs, w=None: change(*real(field, n, rhs, w))
    )


def _plant_lifts(monkeypatch, curve, replace):
    """lift_mobius, as automorphism_group sees it, returns replace(i, lifts_of)
    for the i-th S3 map, where lifts_of(j) are the true lifts of the j-th."""
    maps = s3_mobius_maps()
    monkeypatch.setattr(
        action_module,
        "lift_mobius",
        lambda c, m: replace(maps.index(m), lambda j: lift_mobius(c, maps[j])),
    )


def _branch_table_wrong(monkeypatch, curve):
    monkeypatch.setattr(MobiusMap, "permutes_branch_points", lambda self: False)
    return lambda: automorphism_group(curve)


def _particular_solution_off_by_one(monkeypatch, curve):
    _plant_solve(monkeypatch, lambda part, kernel: (_xor(part, (1,)), kernel))
    return lambda: automorphism_group(curve)


def _kernel_repeated_twice(monkeypatch, curve):
    # the kernel is {0, h}: a second basis vector is already too many
    _plant_solve(monkeypatch, lambda part, kernel: (part, kernel * 2))
    return lambda: automorphism_group(curve)


def _kernel_dropped(monkeypatch, curve):
    _plant_solve(monkeypatch, lambda part, kernel: (part, []))
    return lambda: automorphism_group(curve)


def _identity_lifts_are_iota_twice(monkeypatch, curve):
    _plant_lifts(
        monkeypatch,
        curve,
        lambda i, lifts_of: [g for g in lifts_of(0) if not g.is_identity()] * 2
        if i == 0 else lifts_of(i),
    )
    return lambda: automorphism_group(curve)


def _sigma_lifts_both_of_order_6(monkeypatch, curve):
    _plant_lifts(
        monkeypatch,
        curve,
        lambda i, lifts_of: [g for g in lifts_of(3) if not g.compose(g).compose(g).is_identity()] * 2
        if i == 3 else lifts_of(i),
    )
    return lambda: automorphism_group(curve)


def _tau01_lifted_as_sigma(monkeypatch, curve):
    _plant_lifts(monkeypatch, curve, lambda i, lifts_of: lifts_of(3 if i == 1 else i))
    return lambda: automorphism_group(curve)


def _tau0inf_lifted_as_tau01(monkeypatch, curve):
    _plant_lifts(monkeypatch, curve, lambda i, lifts_of: lifts_of(1 if i == 2 else i))
    return lambda: automorphism_group(curve)


def _products_are_the_right_factor(monkeypatch, curve):
    # the group is built first; only the Cayley table sees the fault
    group = automorphism_group(curve)
    monkeypatch.setattr(action_module, "automorphism_group", lambda c: group)
    monkeypatch.setattr(CurveAutomorphism, "compose", lambda self, other: other)
    return lambda: verify_group_structure(curve)


def _sigma_named_as_its_order_6_lift(monkeypatch, curve):
    elements, by_name = automorphism_group(curve)
    swapped = dict(by_name, sigma=by_name["iota*sigma"])
    monkeypatch.setattr(action_module, "automorphism_group", lambda c: (elements, swapped))
    return lambda: verify_group_structure(curve)


def _h_identity_broken(monkeypatch, curve):
    # h(m) D^3 reads h + x^3, and only the y-term half of the identity fails
    h = curve.equation_masks(curve.field)[0]
    real = action_module._homogenize

    def planted(m, p, k):
        return tuple(_xor(real(m, p, k), (0, 0, 0, 1))) if (p, k) == (h, 3) else real(m, p, k)

    monkeypatch.setattr(action_module, "_homogenize", planted)
    return lambda: automorphism_group(curve)


def _image_moved_off_the_class_field(monkeypatch, curve):
    # the image class plus P - infinity, for a point P over GF(2^8) but not
    # over GF(16), is not rational over the class's field GF(16)
    f16, f256 = default_field(4), default_field(8)
    cls = enumerate_classes(curve, f16)[5]
    p = next(q for q in curve.points_over(f256)[1:] if q.x ** 16 != q.x)
    class_of = action_module.class_of
    monkeypatch.setattr(
        action_module,
        "class_of",
        lambda divisor: class_of(divisor).lift(f256)
        + class_of(FormalDivisor(curve, [(p, 1), (curve.infinity(), -1)])),
    )
    _, by_name = automorphism_group(curve)
    return lambda: by_name["identity"].act_on_class(cls)


PLANTED_FAULTS = [
    pytest.param("branch permutation table is wrong", _branch_table_wrong, id="branch-table"),
    pytest.param(
        "automorphism data fails the curve identity",
        _particular_solution_off_by_one,
        id="curve-identity",
    ),
    pytest.param(
        "automorphism data fails the curve identity", _h_identity_broken, id="curve-identity-h"
    ),
    pytest.param(
        "lift solution space is unexpectedly large", _kernel_repeated_twice, id="space"
    ),
    pytest.param("expected exactly two lifts, found 1", _kernel_dropped, id="two-lifts"),
    pytest.param(
        "no lift of the identity map is the identity",
        _identity_lifts_are_iota_twice,
        id="identity-lift",
    ),
    pytest.param("no lift of sigma has order 3", _sigma_lifts_both_of_order_6, id="order-3"),
    pytest.param("no lift of tau01 is an involution", _tau01_lifted_as_sigma, id="involution"),
    pytest.param(
        "the twelve lifted automorphisms are not distinct",
        _tau0inf_lifted_as_tau01,
        id="distinct",
    ),
    pytest.param(
        "automorphism order exceeds the group bound",
        _products_are_the_right_factor,
        id="order-bound",
    ),
    pytest.param(
        "Z/2 x S3 relation fails: sigma_order_3, braid_relation",
        _sigma_named_as_its_order_6_lift,
        id="relation",
    ),
    pytest.param(
        "image class is not rational over the class's field",
        _image_moved_off_the_class_field,
        id="image-field",
    ),
]


@pytest.mark.parametrize("message, plant", PLANTED_FAULTS)
def test_every_cross_check_fires(monkeypatch, message, plant):
    run = plant(monkeypatch, laszlo_curve())
    with pytest.raises(InconsistencyError) as exc:
        run()
    assert type(exc.value) is InconsistencyError
    assert str(exc.value) == message
