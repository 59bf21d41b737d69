"""Automorphism-group tests: lifts, relations, actions on points and classes."""

import random

import pytest

import frobfix.action as action_module
from frobfix.action import (
    CurveAutomorphism,
    MobiusMap,
    automorphism_group,
    fixed_points,
    lift_mobius,
    s3_mobius_maps,
    verify_group_structure,
)
from frobfix.curve import Curve
from frobfix.errors import InconsistencyError, SearchExhaustedError
from frobfix.gf2 import default_field
from frobfix.jacobian import enumerate_classes, random_class


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())


def test_six_mobius_maps_form_s3():
    f4 = default_field(2)
    maps = s3_mobius_maps(f4)
    assert len(set(maps)) == 6
    table = set()
    for m1 in maps:
        for m2 in maps:
            table.add(m1.compose(m2))
    assert table == set(maps)
    for m in maps:
        assert m.compose(m.inverse()) == maps[0]


def test_lift_identity_gives_id_and_iota():
    c = laszlo_curve()
    f4 = c.field
    ident_map = MobiusMap(f4.one(), f4.zero(), f4.zero(), f4.one())
    lifts = lift_mobius(c, ident_map)
    assert any(g.is_identity() for g in lifts)
    other = next(g for g in lifts if not g.is_identity())
    # the other lift is the hyperelliptic involution: y -> y + h(x)
    h, _ = c.equation_polys()
    assert other.p.as_poly() == h
    f16 = default_field(4)
    for p in c.points_over(f16):
        assert other.apply(p) == p.hyperelliptic_involution()


def test_lift_tau01_exists_over_base():
    c = laszlo_curve()
    f4 = c.field
    tau_map = MobiusMap(f4.one(), f4.one(), f4.zero(), f4.one())
    lifts = lift_mobius(c, tau_map)
    for g in lifts:
        assert g.mobius.field == f4  # rational over the base, no extension
        assert g.compose(g).is_identity()


def test_group_structure_checks():
    checks = verify_group_structure(laszlo_curve())
    assert all(checks.values()), checks


def test_group_structure_other_t_gf16():
    f16 = default_field(4)
    checks = verify_group_structure(Curve(f16, f16.element(2)))
    assert all(checks.values()), checks


def test_group_structure_raises_on_a_failed_relation(monkeypatch):
    # every automorphism reports order 1, so only the order profile fails
    monkeypatch.setattr(CurveAutomorphism, "order", lambda self: 1)
    with pytest.raises(InconsistencyError, match=r"^Z/2 x S3 relation fails: order_profile$"):
        verify_group_structure(laszlo_curve())


def test_lift_mobius_raises_when_no_lift_exists(monkeypatch):
    monkeypatch.setattr(action_module, "solve_additive", lambda n, g, rhs, w=None: None)
    c = laszlo_curve()
    tau_map = s3_mobius_maps(c.field)[1]
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
    keys = {cl.key() for cl in classes}
    for name in ("sigma", "tau01", "tau0inf"):
        g = by_name[name]
        images = {g.act_on_class(cl).descend_to(c.field).key() for cl in classes}
        assert images == keys


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


def test_inverse_automorphism():
    c = laszlo_curve()
    elements, _ = automorphism_group(c)
    for g in elements:
        assert g.compose(g.inverse()).is_identity()
        assert g.inverse().compose(g).is_identity()
