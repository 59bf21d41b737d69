"""Function-field tests: expansions, Riemann-Roch spaces, witnesses."""

import hashlib
import random

import pytest

import frobfix.functions as functions_module
from frobfix.curve import Curve
from frobfix.errors import FieldMismatchError, InconsistencyError, VerificationError
from frobfix.functions import (
    PolyFunction,
    interpolate_vanishing,
    local_coordinates,
    principal_witness_core,
    riemann_roch_basis,
    verify_polyfunction_divisor,
)
from frobfix.gf2 import default_field
from frobfix.jacobian import oracle_class_of, random_class
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


@pytest.mark.parametrize("call", ["evaluate", "ord_at", "divisor", "local_coordinates"])
def test_point_at_infinity_raises_a_value_error(call):
    # a function at infinity is described by its pole order; each of these
    # used to reach for the missing x and raise AttributeError
    c = laszlo_curve()
    f = c.field
    fn = PolyFunction(c, f, Poly.x(f), Poly.zero(f))
    inf = c.infinity()
    calls = {
        "evaluate": lambda: fn.evaluate(inf),
        "ord_at": lambda: fn.ord_at(inf),
        "divisor": lambda: verify_polyfunction_divisor(fn, [(inf, 2)]),
        "local_coordinates": lambda: local_coordinates(c, inf, 4),
    }
    with pytest.raises(ValueError, match="at infinity are handled by pole orders"):
        calls[call]()


def test_local_coordinates_satisfy_equation():
    c = laszlo_curve()
    f16 = default_field(4)
    h, f = c.equation_polys(f16)
    for p in c.points_over(f16):
        if p.is_infinity():
            continue
        xs, ys = local_coordinates(c, p, 6)
        assert len(xs) == len(ys) == 6
        # the expansions satisfy the curve equation through s^5, on boxed
        # FieldElement series
        bx, by = ([f16.element(m) for m in ms] for ms in (xs, ys))
        lhs = _ref_add(_ref_mul(by, by), _ref_mul(_ref_horner(h, bx), by))
        assert _ref_add(lhs, _ref_horner(f, bx)) == [f16.zero()] * 6
        # the uniformizer has valuation exactly 1
        if p.is_weierstrass():
            assert ys[1] == 1 and xs[0] == p.x.mask
        else:
            assert xs[1] == 1 and ys[0] == p.y.mask


def _ref_mul(a, b):
    """Schoolbook product of two FieldElement series of the same length."""
    out = [a[0].field.zero()] * len(a)
    for i, ai in enumerate(a):
        if ai.mask:
            for j in range(len(a) - i):
                out[i + j] = out[i + j] + ai * b[j]
    return out


def _ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _ref_inverse(a):
    """b with a b = 1, coefficient by coefficient."""
    inv0 = a[0].inverse()
    out = [inv0]
    for k in range(1, len(a)):
        acc = a[0].field.zero()
        for i in range(1, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(acc * inv0)
    return out


def _ref_horner(p, xs):
    zero = xs[0].field.zero()
    acc = [zero] * len(xs)
    for i in range(p.degree, -1, -1):
        acc = _ref_mul(acc, xs)
        acc[0] = acc[0] + p[i]
    return acc


def _reference_local_coordinates(curve, point, prec):
    """(x, y) expanded at an affine point by Newton on boxed FieldElement
    series: uniformizer y - y0 at a Weierstrass point, x - x0 elsewhere."""
    field = point.field
    h, f = curve.equation_polys(field)
    zeros = [field.zero()] * (prec - 1)
    lin = [field.one()] + zeros[1:]

    def residual(hs, fs, ys):
        return _ref_add(_ref_add(_ref_mul(ys, ys), _ref_mul(hs, ys)), fs)

    if point.is_weierstrass():
        ys, xs = [point.y] + lin, [point.x] + zeros
        for _ in range(prec.bit_length() + 1):
            dfdx = _ref_add(
                _ref_horner(f.derivative(), xs), _ref_mul(_ref_horner(h.derivative(), xs), ys)
            )
            res = residual(_ref_horner(h, xs), _ref_horner(f, xs), ys)
            xs = _ref_add(xs, _ref_mul(res, _ref_inverse(dfdx)))
    else:
        xs, ys = [point.x] + lin, [point.y] + zeros
        hs, fs = _ref_horner(h, xs), _ref_horner(f, xs)
        hinv = _ref_inverse(hs)
        for _ in range(prec.bit_length() + 1):
            ys = _ref_add(ys, _ref_mul(residual(hs, fs, ys), hinv))
    if any(c.mask for c in residual(_ref_horner(h, xs), _ref_horner(f, xs), ys)):
        raise AssertionError("reference Newton lift did not converge")
    return [c.mask for c in xs], [c.mask for c in ys]


def _assert_local_coordinates_match_the_reference(c, points):
    # the expansion mod s^prec is unique, so each precision's output is the
    # truncation of the reference computed once at precision 10
    for p in points:
        ref_x, ref_y = _reference_local_coordinates(c, p, 10)
        for prec in range(1, 11):
            xs, ys = local_coordinates(c, p, prec)
            assert xs == tuple(ref_x[:prec]), (c, p, prec)
            assert ys == tuple(ref_y[:prec]), (c, p, prec)


def test_local_coordinates_match_a_boxed_reference_every_t_gf16():
    f16 = default_field(4)
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        _assert_local_coordinates_match_the_reference(c, c.points_over(f16)[1:])


@pytest.mark.pinned
def test_local_coordinates_match_a_boxed_reference_gf256():
    # every eighth affine point over GF(2^8) and both affine Weierstrass
    # points, for the reference curve and two t over GF(16)
    f16, f256 = default_field(4), default_field(8)
    for c in (laszlo_curve(), Curve(f16, f16.element(2)), Curve(f16, f16.element(11))):
        points = c.points_over(f256)[1:]
        sample = [p for i, p in enumerate(points) if i % 8 == 0 or p.is_weierstrass()]
        assert sum(p.is_weierstrass() for p in sample) == 2
        _assert_local_coordinates_match_the_reference(c, sample)


def test_horner_at_x0_plus_s_matches_the_boxed_series_horner():
    # x0 + s takes the Taylor shift and any other series Horner's rule; the
    # reference is Horner's rule on boxed series for both
    f16 = default_field(4)
    rng = random.Random(22)
    polys = [p for tm in range(2, 16) for p in Curve(f16, f16.element(tm)).equation_polys(f16)]
    polys += [Poly.from_masks(f16, [rng.randrange(16) for _ in range(rng.randint(0, 8))])
              for _ in range(12)]
    one, zero = f16.one(), f16.zero()
    for x0 in f16.elements():
        for prec in range(1, 9):
            shift = ([x0, one] + [zero] * prec)[:prec]
            other = ([x0, one, one] + [zero] * prec)[:prec]
            for xs in (shift, other) if prec > 2 else (shift,):
                masks = tuple(c.mask for c in xs)
                for p in polys:
                    got = functions_module._horner(f16, p.masks(), masks)
                    assert got == tuple(c.mask for c in _ref_horner(p, xs)), (x0, prec, xs, p)


def test_ord_at_matches_the_order_of_a_boxed_expansion_gf16():
    # every affine point over GF(16), the Weierstrass points among them, and
    # its involution partner, for functions vanishing there to order 1 to 3
    c, f16 = laszlo_curve(), default_field(4)
    points = c.points_over(f16)[1:]
    assert any(p.is_weierstrass() for p in points)
    for p in points:
        for mult in (1, 2, 3):
            fn = interpolate_vanishing(c, f16, mult + 2, [(p, mult)])
            for q in (p, p.hyperelliptic_involution()):
                xs, ys = ([f16.element(m) for m in ms]
                          for ms in _reference_local_coordinates(c, q, 10))
                series = _ref_add(_ref_horner(fn.a, xs), _ref_mul(_ref_horner(fn.b, xs), ys))
                order = next(i for i, e in enumerate(series) if e.mask)
                assert fn.ord_at(q) == order, (p, mult, q)
                if q == p:
                    assert order >= mult


@pytest.mark.pinned
def test_oracle_keys_are_pinned_every_t_gf16():
    # sha256 pinned from the oracle that read orders from precision 4 up and
    # expanded x0 + s by series Horner: ten random pairs over GF(2^8) for
    # every t in GF(16) minus {0, 1}, with the field the oracle ends over
    f16, f256 = default_field(4), default_field(8)
    digest = hashlib.sha256()
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        rng = random.Random(tm)
        for _ in range(10):
            a, b = random_class(c, f256, rng), random_class(c, f256, rng)
            oracle = oracle_class_of(a.to_divisor() + b.to_divisor())
            digest.update(repr((oracle.field.degree, oracle.key())).encode())
    assert digest.hexdigest() == "19e9e310593083b00a780ca4d3ea0461f3c975c673b3fb5759d57e1ec10b9d21"


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
    with pytest.raises(VerificationError) as exc:
        verify_polyfunction_divisor(vert, [(p, 2)])
    assert exc.type is VerificationError
    assert str(exc.value) == "vanishing order mismatch at a point"


def test_interpolation_imposes_multiplicity():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    found = interpolate_vanishing(c, f16, 6, [(p, 2)])
    assert found is not None
    fn = found
    assert fn.ord_at(p) >= 2


def test_expansions_reject_a_point_over_another_field():
    # the rows and series are masks, so the field is checked at the boundary
    c = laszlo_curve()
    f16 = default_field(4)
    p4 = c.point(c.field.zero(), c.field.zero())
    vert = PolyFunction(c, f16, Poly(f16, (f16.zero(), f16.one())), Poly.zero(f16))
    with pytest.raises(FieldMismatchError):
        vert.series_at(p4, 4)
    with pytest.raises(FieldMismatchError):
        interpolate_vanishing(c, f16, 6, [(p4, 1)])
    for q in c.points_over(c.field)[1:]:  # vert vanishes at p4, not at the other
        with pytest.raises(FieldMismatchError):
            vert.ord_at(q)


def test_principal_witness_zero_divisor():
    c = laszlo_curve()
    w = principal_witness_core(c, c.field, [], 0)
    assert w is not None and w.num.a == Poly.one(c.field) and w.chi == Poly.one(c.field)


def test_principal_witness_core_not_principal():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity())
    assert principal_witness_core(c, f16, [(p, 1)], -1) is None


def test_ord_at_norm_cap_ends_the_loop_on_a_flat_expansion(monkeypatch):
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16)[1:] if not q.is_weierstrass())
    vert = PolyFunction(c, f16, Poly(f16, (p.x, f16.one())), Poly.zero(f16))
    norms = []
    norm = PolyFunction.norm
    monkeypatch.setattr(PolyFunction, "norm", lambda fn: norms.append(1) or norm(fn))
    assert vert.ord_at(p) == 1 and not norms  # found at precision 2: no norm
    expand = functions_module.local_coordinates
    precs = []

    def flat(curve, point, prec):
        # planted fault: expansions that lose every term beyond the constant;
        # past precision 64 the cap has failed, so fail rather than loop
        if prec > 64:
            raise AssertionError(f"ord_at asked for precision {prec}: its cap did not stop it")
        precs.append(prec)
        xs, ys = expand(curve, point, prec)
        return (xs[0],) + (0,) * (prec - 1), (ys[0],) + (0,) * (prec - 1)

    monkeypatch.setattr(functions_module, "local_coordinates", flat)
    with pytest.raises(InconsistencyError) as exc:
        vert.ord_at(p)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "nonzero function vanishing beyond its norm degree"
    # deg N = 2 gives the cap 8: one norm, and no expansion beyond precision 8
    assert len(norms) == 1 and precs == [2, 4, 8]


def test_interpolation_catches_a_zero_nullspace_vector(monkeypatch):
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16)[1:] if not q.is_weierstrass())
    monkeypatch.setattr(functions_module, "nullspace", lambda field, rows: [[0] * len(rows[0])])
    with pytest.raises(InconsistencyError) as exc:
        interpolate_vanishing(c, f16, 6, [(p, 2)])
    assert exc.type is InconsistencyError
    assert str(exc.value) == "nullspace produced the zero function"


def test_oracle_catches_orders_read_at_the_involution_partner(monkeypatch):
    c = laszlo_curve()
    f16 = default_field(4)
    rng = random.Random(101)
    a, b = (random_class(c, f16, rng) for _ in range(2))
    divisor = a.to_divisor() + b.to_divisor()
    ord_at = PolyFunction.ord_at
    monkeypatch.setattr(
        PolyFunction, "ord_at", lambda fn, p: ord_at(fn, p.hyperelliptic_involution())
    )
    with pytest.raises(InconsistencyError) as exc:
        oracle_class_of(divisor)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "imposed vanishing not attained"


# ---------------------------------------------------------------------------
# One planted fault per cross-check of the local expansions, the divisor
# verification and the oracle.  Each plant returns the call that must
# raise.  The witness of P + iota(P) - 2 infinity is the vertical line
# through P; the oracle sums two random classes over GF(16), whose four
# points lie over GF(2^8).


def _vertical_witness(curve):
    f16 = default_field(4)
    p = next(q for q in curve.points_over(f16)[1:] if not q.is_weierstrass())
    entries = [(p, 1), (p.hyperelliptic_involution(), 1)]
    return Poly(f16, (p.x, f16.one())), lambda: principal_witness_core(curve, f16, entries, -2)


def _oracle_sum(curve):
    """The x-coordinates of the support, in the field the oracle starts
    over, and the oracle call on a + b."""
    rng = random.Random(101)
    a, b = (random_class(curve, default_field(4), rng) for _ in range(2))
    divisor = a.to_divisor() + b.to_divisor()
    known = {p.x for p, _ in divisor.lift_to_common_field()[1]}
    return known, lambda: oracle_class_of(divisor)


def _plant_norm(monkeypatch, change):
    norm = PolyFunction.norm
    monkeypatch.setattr(PolyFunction, "norm", lambda fn: change(norm(fn)))


def _witness_is_zero(monkeypatch, curve):
    _, run = _vertical_witness(curve)
    monkeypatch.setattr(
        functions_module,
        "interpolate_vanishing",
        lambda c, field, m, constraints: PolyFunction(c, field, Poly.zero(field), Poly.zero(field)),
    )
    return run


def _witness_times_x(monkeypatch, curve):
    _, run = _vertical_witness(curve)
    interpolate = functions_module.interpolate_vanishing

    def times_x(c, field, m, constraints):
        psi = interpolate(c, field, m, constraints)
        return PolyFunction(c, field, psi.a * Poly.x(field), psi.b * Poly.x(field))

    monkeypatch.setattr(functions_module, "interpolate_vanishing", times_x)
    return run


def _norm_times_a_line_off_the_support(monkeypatch, curve):
    line, run = _vertical_witness(curve)
    _plant_norm(monkeypatch, lambda n: n * (line + Poly.one(line.field)))
    return run


def _norm_short_of_one_factor(monkeypatch, curve):
    line, run = _vertical_witness(curve)
    _plant_norm(monkeypatch, lambda n: n.divexact(line))
    return run


def _norm_with_one_factor_too_many(monkeypatch, curve):
    known, run = _oracle_sum(curve)
    x0 = min(known, key=lambda x: x.mask)
    _plant_norm(monkeypatch, lambda n: n * Poly(n.field, (x0, n.field.one())))
    return run


def _norm_with_a_spurious_triple_root(monkeypatch, curve):
    known, run = _oracle_sum(curve)
    field = next(iter(known)).field
    r = next(x for x in map(field.element, range(field.order)) if x not in known)
    _plant_norm(monkeypatch, lambda n: n * Poly(field, (r, field.one())) ** 3)
    return run


def _expansion_with_a_wrong_unit(weierstrass):
    """Plant a wrong d in `local_coordinates`, at a Weierstrass point or
    not: every value `evaluate_masks` gives it comes out multiplied by the
    element with mask 2, so each solved coefficient is R[k] / (2 d)."""

    def plant(monkeypatch, curve):
        f16 = default_field(4)
        p = next(q for q in curve.points_over(f16)[1:] if q.is_weierstrass() == weierstrass)
        evaluate = functions_module.evaluate_masks
        monkeypatch.setattr(
            functions_module,
            "evaluate_masks",
            lambda exp, log, cs, x: f16.mul_masks(2, evaluate(exp, log, cs, x)),
        )
        return lambda: local_coordinates(curve, p, 6)

    return plant


def _empty_nullspace(monkeypatch, curve):
    _, run = _oracle_sum(curve)
    monkeypatch.setattr(functions_module, "nullspace", lambda field, rows: [])
    return run


def _orders_zero_off_the_support(monkeypatch, curve):
    # the residual points' orders read 0, so the norm's new roots have no zeros above them
    known, run = _oracle_sum(curve)
    ord_at = PolyFunction.ord_at
    monkeypatch.setattr(
        PolyFunction, "ord_at", lambda fn, p: ord_at(fn, p) if p.x in known else 0
    )
    return run


PLANTED_FAULTS = [
    pytest.param(
        VerificationError, "zero function has no divisor", _witness_is_zero, id="zero-function"
    ),
    pytest.param(
        VerificationError,
        "pole order at infinity does not match expected degree",
        _witness_times_x,
        id="pole-order",
    ),
    pytest.param(
        VerificationError,
        "norm has zeros outside the expected support",
        _norm_times_a_line_off_the_support,
        id="outside-support",
    ),
    pytest.param(
        InconsistencyError,
        "norm vanishes less than the orders found at its points",
        _norm_short_of_one_factor,
        id="norm-short",
    ),
    pytest.param(
        InconsistencyError,
        "norm order bookkeeping failed",
        _norm_with_one_factor_too_many,
        id="norm-bookkeeping",
    ),
    pytest.param(
        InconsistencyError,
        "local expansion fails the curve equation",
        _expansion_with_a_wrong_unit(False),
        id="expansion-y",
    ),
    pytest.param(
        InconsistencyError,
        "local expansion fails the curve equation",
        _expansion_with_a_wrong_unit(True),
        id="expansion-x",
    ),
    pytest.param(
        InconsistencyError,
        "interpolation space unexpectedly empty",
        _empty_nullspace,
        id="empty-space",
    ),
    pytest.param(
        InconsistencyError,
        "oracle residual has degree > 2",
        _norm_with_a_spurious_triple_root,
        id="residual-degree",
    ),
    pytest.param(
        InconsistencyError,
        "residual order split failed",
        _orders_zero_off_the_support,
        id="residual-split",
    ),
]


@pytest.mark.parametrize("error, message, plant", PLANTED_FAULTS)
def test_every_cross_check_fires(monkeypatch, error, message, plant):
    run = plant(monkeypatch, laszlo_curve())
    with pytest.raises(error) as exc:
        run()
    assert type(exc.value) is error
    assert str(exc.value) == message
