"""Function-field tests: expansions, Riemann-Roch spaces, witnesses."""

import pytest

from frobfix.curve import Curve
from frobfix.errors import VerificationError
from frobfix.functions import (
    PolyFunction,
    interpolate_vanishing,
    local_coordinates,
    principal_witness_core,
    riemann_roch_basis,
    verify_polyfunction_divisor,
)
from frobfix.gf2 import default_field
from frobfix.poly import Poly


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())


def test_riemann_roch_dimensions():
    c = laszlo_curve()
    dims = {m: len(riemann_roch_basis(c, m)) for m in range(0, 12)}
    assert dims[0] == 1  # {1}
    assert dims[5] == 4  # {1, x, x^2, y}: 5 - 2 + 1
    assert dims[6] == 5  # {1, x, x^2, x^3, y}
    # Riemann-Roch: dim = m - g + 1 for m > 2g - 2 = 2
    for m in range(3, 12):
        assert dims[m] == m - 1
    # pole orders are correct and distinct
    basis5 = riemann_roch_basis(c, 5)
    orders = sorted(fn.pole_order_at_infinity() for fn in basis5 if not fn.is_zero())
    assert orders == [0, 2, 4, 5]


def test_local_coordinates_satisfy_equation():
    c = laszlo_curve()
    f16 = default_field(4)
    h, f = c.equation_polys(f16)
    for p in c.points_over(f16):
        if p.is_infinity():
            continue
        xs, ys = local_coordinates(c, p, 6)
        # the expansions satisfy the curve equation through s^6
        ring = xs.ring
        acc_h = ring.zero()
        for i in range(h.degree, -1, -1):
            acc_h = acc_h * xs + ring.constant(h[i])
        acc_f = ring.zero()
        for i in range(f.degree, -1, -1):
            acc_f = acc_f * xs + ring.constant(f[i])
        assert (ys * ys + acc_h * ys + acc_f).is_zero()
        # the uniformizer has valuation exactly 1
        if p.is_weierstrass():
            assert ys.masks()[1] == 1 and xs.masks()[0] == p.x.mask
        else:
            assert xs.masks()[1] == 1 and ys.masks()[0] == p.y.mask


def test_ord_at_vertical_function():
    c = laszlo_curve()
    f16 = default_field(4)
    pts = [p for p in c.points_over(f16) if not p.is_infinity()]
    for p in pts:
        vert = PolyFunction(c, f16, Poly(f16, (p.x, f16.one())), Poly.zero(f16))
        expected = 2 if p.is_weierstrass() else 1
        assert vert.ord_at(p) == expected
        assert vert.pole_order_at_infinity() == 2


def test_verify_polyfunction_divisor_vertical():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    vert = PolyFunction(c, f16, Poly(f16, (p.x, f16.one())), Poly.zero(f16))
    verify_polyfunction_divisor(vert, [(p, 1), (p.hyperelliptic_involution(), 1)])
    with pytest.raises(VerificationError):
        verify_polyfunction_divisor(vert, [(p, 2)])


def test_interpolation_imposes_multiplicity():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    found = interpolate_vanishing(c, f16, 6, [(p, 2)])
    assert found is not None
    fn = found
    assert fn.ord_at(p) >= 2


def test_principal_witness_zero_divisor():
    c = laszlo_curve()
    w = principal_witness_core(c, c.field, [], 0)
    assert w is not None and w.num.a == Poly.one(c.field) and w.chi == Poly.one(c.field)


def test_principal_witness_core_not_principal():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity())
    assert principal_witness_core(c, f16, [(p, 1)], -1) is None
