"""Function-field tests: expansions, Riemann-Roch spaces, witnesses."""

import hashlib
import random

import pytest

import frobfix.functions as functions_module
from frobfix.curve import Curve
from frobfix.errors import InconsistencyError, VerificationError
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
from frobfix.poly import _trim, divmod_masks, mul_poly_masks


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())


def _xy(p):
    """The (x, y) mask pair of an affine CurvePoint: the point the oracle's
    kernels take."""
    return p.x.mask, p.y.mask


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


def test_mask_partner_and_weierstrass_rule_match_the_curve_points():
    # with h = x^2 + x the oracle's involution partner is (x, y + x^2 + x)
    # and its Weierstrass points are those with x = 0 or 1: the same as the
    # CurvePoint involution and test, over GF(16) for every t and over
    # GF(2^16) for the reference curve
    f16, f65536 = default_field(4), default_field(16)
    rng = random.Random(3)
    cases = [(Curve(f16, f16.element(tm)), f16, p)
             for tm in range(2, 16) for p in Curve(f16, f16.element(tm)).points_over(f16)[1:]]
    c = laszlo_curve()
    cases += [(c, f65536, p) for x in [0, 1] + rng.sample(range(2, f65536.order), 64)
              for p in c.points_at(f65536.element(x))]
    assert sum(p.x.mask in (0, 1) for _, _, p in cases) == 2 * 14 + 2
    for c, field, p in cases:
        assert functions_module._partner(field, _xy(p)) == _xy(p.hyperelliptic_involution()), p
        assert (p.x.mask in (0, 1)) == p.is_weierstrass(), p


def test_local_coordinates_satisfy_equation():
    c = laszlo_curve()
    f16 = default_field(4)
    h, f = c.equation_masks(f16)
    for p in c.points_over(f16):
        if p.is_infinity():
            continue
        xs, ys = local_coordinates(c, f16, _xy(p), 6)
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
    """p(xs), for p given by its coefficient masks, on boxed FieldElement series."""
    field = xs[0].field
    acc = [field.zero()] * len(xs)
    for c in reversed(p):
        acc = _ref_mul(acc, xs)
        acc[0] = acc[0] + field.element(c)
    return acc


def _ref_derivative(p):
    """The formal derivative: in characteristic 2 the even-degree terms vanish."""
    return tuple(c if i & 1 else 0 for i, c in enumerate(p))[1:]


def _reference_local_coordinates(curve, point, prec):
    """(x, y) expanded at an affine point by Newton on boxed FieldElement
    series: uniformizer y - y0 at a Weierstrass point, x - x0 elsewhere."""
    field = point.field
    h, f = curve.equation_masks(field)
    zeros = [field.zero()] * (prec - 1)
    lin = [field.one()] + zeros[1:]

    def residual(hs, fs, ys):
        return _ref_add(_ref_add(_ref_mul(ys, ys), _ref_mul(hs, ys)), fs)

    if point.is_weierstrass():
        ys, xs = [point.y] + lin, [point.x] + zeros
        for _ in range(prec.bit_length() + 1):
            dfdx = _ref_add(
                _ref_horner(_ref_derivative(f), xs),
                _ref_mul(_ref_horner(_ref_derivative(h), xs), ys),
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
            xs, ys = local_coordinates(c, p.field, _xy(p), prec)
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


def test_local_coordinates_match_a_boxed_reference_gf65536():
    # the oracle expands over GF(2^16), where the supports of classes over
    # GF(2^8) split: 16 affine points of the reference curve there, and its
    # two affine Weierstrass points, x = 0 and x = 1
    c, field = laszlo_curve(), default_field(16)
    rng = random.Random(65536)
    points = c.points_at(field.zero()) + c.points_at(field.one())
    while len(points) < 18:
        points += c.points_at(field.element(rng.randrange(2, field.order)))[:18 - len(points)]
    assert sum(p.is_weierstrass() for p in points) == 2
    _assert_local_coordinates_match_the_reference(c, points)


def test_horner_at_x0_plus_s_matches_the_boxed_series_horner():
    # series Horner on masks, at x0 + s and at another series, against
    # Horner's rule on boxed series
    f16 = default_field(4)
    rng = random.Random(22)
    polys = [p for tm in range(2, 16) for p in Curve(f16, f16.element(tm)).equation_masks(f16)]
    polys += [_trim([rng.randrange(16) for _ in range(rng.randint(0, 8))]) for _ in range(12)]
    one, zero = f16.one(), f16.zero()
    for x0 in f16.elements():
        for prec in range(1, 9):
            shift = ([x0, one] + [zero] * prec)[:prec]
            other = ([x0, one, one] + [zero] * prec)[:prec]
            for xs in (shift, other) if prec > 2 else (shift,):
                masks = tuple(c.mask for c in xs)
                for p in polys:
                    got = functions_module._horner(f16, p, masks)
                    assert got == tuple(c.mask for c in _ref_horner(p, xs)), (x0, prec, xs, p)
    # the closed forms of h(x0 + s) and f(x0 + s) that the expansions read
    # are boxed series Horner of the model at x0 + s, for every t over
    # GF(16) and every x0 but 0, a root of h that no expansion shifts by;
    # and for 256 x0 over GF(2^16), where the oracle expands.  The shift
    # mod s^prec is the truncation of the one mod s^8
    f65536 = default_field(16)
    cases = [(Curve(f16, f16.element(tm)), f16, x0) for tm in range(2, 16) for x0 in range(1, 16)]
    cases += [(laszlo_curve(), f65536, x0) for x0 in rng.sample(range(1, f65536.order), 256)]
    for c, field, x0 in cases:
        xs = [field.element(x0), field.one()] + [field.zero()] * 6
        ref = [tuple(e.mask for e in _ref_horner(p, xs)) for p in c.equation_masks(field)]
        f = c.equation_masks(field)[1]
        for prec in range(1, 9):
            shifts = tuple(r[:prec] for r in ref)
            assert functions_module._shifted_equation(field, f, x0, prec) == shifts, (c, x0, prec)


def test_ord_at_matches_the_order_of_a_boxed_expansion_gf16():
    # every affine point over GF(16), the Weierstrass points among them, and
    # its involution partner, for functions vanishing there to order 1 to 3
    c, f16 = laszlo_curve(), default_field(4)
    points = c.points_over(f16)[1:]
    assert any(p.is_weierstrass() for p in points)
    for p in points:
        for mult in (1, 2, 3):
            fn = interpolate_vanishing(c, f16, mult + 2, [(_xy(p), mult)])
            for q in (p, p.hyperelliptic_involution()):
                xs, ys = ([f16.element(m) for m in ms]
                          for ms in _reference_local_coordinates(c, q, 10))
                series = _ref_add(_ref_horner(fn.a, xs), _ref_mul(_ref_horner(fn.b, xs), ys))
                order = next(i for i, e in enumerate(series) if e.mask)
                assert fn.ord_at(_xy(q)) == order, (p, mult, q)
                if q == p:
                    assert order >= mult


def _row_points():
    """Every affine point of the reference curve over GF(16), the
    Weierstrass points among them, and 64 over GF(2^16), two of them
    Weierstrass points."""
    c, f16, f65536 = laszlo_curve(), default_field(4), default_field(16)
    rng = random.Random(2 ** 16)
    points = c.points_over(f16)[1:] + c.points_at(f65536.zero()) + c.points_at(f65536.one())
    while len(points) < 17 + 64:
        points += c.points_at(f65536.element(rng.randrange(2, f65536.order)))[:1]
    assert sum(p.is_weierstrass() for p in points) == 4
    return c, points


def test_constraint_rows_match_the_series_product_rows():
    # the rows of multiplicity 1 to 4 for every basis size of L(m infinity),
    # m up to 12, against xs^i and xs^j ys from one series product each
    c, points = _row_points()
    for p in points:
        field = p.field
        for mult in (1, 2, 3, 4):
            xs, ys = local_coordinates(c, field, _xy(p), mult)
            for m in range(13):
                n_x, n_y = functions_module._basis_shape(m)
                one = (1,) + (0,) * (mult - 1)
                cols = functions_module._times_powers(field, one, xs, n_x)
                cols += functions_module._times_powers(field, ys, xs, n_y)
                got = functions_module._constraint_rows(field, xs, ys, n_x, n_y)
                assert got == list(zip(*cols)), (p, mult, m)


def test_order_read_at_precision_2_matches_the_series():
    # coefficient 1 read directly, with the b(x0) of the value read, equals
    # coefficient 1 of the expansion mod s^2 that `_series` builds, and
    # ord_at's first nonzero coefficient is that of this expansion
    # whenever it shows one, read at each point and at
    # its involution partner, for functions vanishing to order 1 to 3 there,
    # for (x + x0) y, whose b has b' = 1, and for the sum of the basis of
    # L(9 infinity), whose b is 1 + x + x^2
    c, points = _row_points()
    for p in points:
        field = p.field
        fns = [interpolate_vanishing(c, field, mult + 4, [(_xy(p), mult)]) for mult in (1, 2, 3)]
        fns += [PolyFunction(c, field, (), (p.x.mask, 1)),
                PolyFunction(c, field, (1,) * 5, (1,) * 3)]
        for fn in fns:
            for q in map(_xy, (p, p.hyperelliptic_involution())):
                xs, ys = local_coordinates(c, field, q, 2)
                series = fn._series(xs, ys)
                b0 = fn._value_mask(q)[1]
                assert fn._coefficient_one(xs, ys, b0) == series[1], (fn, q)
                if any(series):
                    assert fn.ord_at(q) == next(i for i, e in enumerate(series) if e), (fn, q)
                else:
                    assert fn.ord_at(q) >= 2


def test_an_oracle_step_expands_each_point_once(monkeypatch):
    # within one step every point is expanded once: first at precision 2 or
    # more, a constraint point at least at the rung of the order ladder that
    # shows the order of its multiplicity (2 for a simple point, 4 for
    # multiplicity 2 or 3), and again only at a higher precision when its
    # order reached the precision of its last expansion, which cannot show
    # it (a simple point where the step's function vanishes twice, or a
    # double residual root).  A point is its field's degree and its mask
    # pair; once the residual roots lift the step to the quadratic
    # extension, every later expansion is over the extension
    expand, ord_at, step = (functions_module.local_coordinates, PolyFunction.ord_at,
                            functions_module._oracle_step)
    calls, orders = [], {}

    def spy_expand(curve, field, point, prec):
        calls.append(((field.degree, point), prec))
        return expand(curve, field, point, prec)

    def spy_ord_at(fn, point, *rest):
        orders[fn.field.degree, point] = o = ord_at(fn, point, *rest)
        return o

    def spy_step(curve, field, entries):
        calls.clear()
        orders.clear()
        out = step(curve, field, entries)
        degrees = [k[0] for k, _ in calls]
        assert degrees == sorted(degrees), calls
        assert set(degrees) <= {field.degree, out[1].degree}, (field, out[1], calls)
        first, last = {}, {}
        for k, prec in calls:
            if k in last:
                assert prec > last[k] and orders[k] >= last[k], (k, calls)
            else:
                assert prec >= 2, (k, calls)
                first[k] = prec
            last[k] = prec
        for p, m in entries:
            assert first[field.degree, p] >= 1 << m.bit_length(), (p, m, calls)
        return out

    monkeypatch.setattr(functions_module, "local_coordinates", spy_expand)
    monkeypatch.setattr(PolyFunction, "ord_at", spy_ord_at)
    monkeypatch.setattr(functions_module, "_oracle_step", spy_step)
    c = laszlo_curve()
    for field, count in ((default_field(4), 40), (default_field(8), 40)):
        rng = random.Random(field.degree)
        for _ in range(count):
            a, b = random_class(c, field, rng), random_class(c, field, rng)
            oracle_class_of(a.to_divisor() + b.to_divisor())


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
        vert = PolyFunction(c, f16, (p.x.mask, 1), ())
        expected = 2 if p.is_weierstrass() else 1
        assert vert.ord_at(_xy(p)) == expected
        assert vert.pole_order_at_infinity() == 2


def test_verify_polyfunction_divisor_vertical():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    vert = PolyFunction(c, f16, (p.x.mask, 1), ())
    verify_polyfunction_divisor(vert, [(_xy(p), 1), (_xy(p.hyperelliptic_involution()), 1)])
    with pytest.raises(VerificationError) as exc:
        verify_polyfunction_divisor(vert, [(_xy(p), 2)])
    assert exc.type is VerificationError
    assert str(exc.value) == "vanishing order mismatch at a point"


def test_interpolation_imposes_multiplicity():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    found = interpolate_vanishing(c, f16, 6, [(_xy(p), 2)])
    assert found is not None
    fn = found
    assert fn.ord_at(_xy(p)) >= 2


def test_principal_witness_zero_divisor():
    c = laszlo_curve()
    w = principal_witness_core(c, c.field, [], 0)
    assert w is not None and (w.num.a, w.num.b, w.chi) == ((1,), (), (1,))


def _ref_lines_product(field, xs):
    """prod (x + x0) over the masks xs, schoolbook on FieldElements, as masks."""
    out = [field.one()]
    for x0 in map(field.element, xs):
        shifted = [field.zero()] + out  # x times the product so far
        out = [a + x0 * b for a, b in zip(shifted, out + [field.zero()])]
    return tuple(c.mask for c in out)


def test_witness_chi_is_the_product_of_the_lines_under_the_negative_part():
    # chi = prod (x + x_P)^m over D-, which no re-verification reads (it
    # checks psi alone): for quotients of vertical lines over GF(16), whose
    # D- entries have multiplicity 1 and 2, one of them at a Weierstrass point
    c, f16 = laszlo_curve(), default_field(4)
    points = c.points_over(f16)[1:]
    w = next(pt for pt in points if pt.is_weierstrass())
    by_x = {pt.x: pt for pt in points if not pt.is_weierstrass()}
    p, q, r = list(by_x.values())[:3]

    def pair(pt, m):  # m (P + iota P), the zeros of (x + x_P)^m
        return [(pt, m), (pt.hyperelliptic_involution(), m)]

    cases = [
        ([(w, -2)] + pair(p, 1), 0),
        (pair(p, 2) + pair(q, -1) + pair(r, -1), 0),
        (pair(p, 2) + pair(q, -2), 0),
        (pair(q, -2), 4),
        ([(w, -2)] + pair(q, -1) + pair(p, 2), 0),
    ]
    for entries, inf in cases:
        entries = [(_xy(pt), m) for pt, m in entries]
        witness = principal_witness_core(c, f16, entries, inf)
        assert witness is not None, entries
        lines = [x for (x, _), m in entries for _ in range(-m)]
        assert witness.chi == _ref_lines_product(f16, lines), entries


def test_principal_witness_core_not_principal():
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16) if not q.is_infinity())
    assert principal_witness_core(c, f16, [(_xy(p), 1)], -1) is None


def test_ord_at_norm_cap_ends_the_loop_on_a_flat_expansion(monkeypatch):
    c = laszlo_curve()
    f16 = default_field(4)
    p = next(q for q in c.points_over(f16)[1:] if not q.is_weierstrass())
    vert = PolyFunction(c, f16, (p.x.mask, 1), ())
    norms = []
    norm = PolyFunction.norm
    monkeypatch.setattr(PolyFunction, "norm", lambda fn: norms.append(1) or norm(fn))
    assert vert.ord_at(_xy(p)) == 1 and not norms  # found at precision 2: no norm
    expand = functions_module.local_coordinates
    precs = []

    def flat(curve, field, point, prec):
        # planted fault: expansions that lose every term beyond the constant;
        # past precision 64 the cap has failed, so fail rather than loop
        if prec > 64:
            raise AssertionError(f"ord_at asked for precision {prec}: its cap did not stop it")
        precs.append(prec)
        xs, ys = expand(curve, field, point, prec)
        return (xs[0],) + (0,) * (prec - 1), (ys[0],) + (0,) * (prec - 1)

    monkeypatch.setattr(functions_module, "local_coordinates", flat)
    with pytest.raises(InconsistencyError) as exc:
        vert.ord_at(_xy(p))
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
        interpolate_vanishing(c, f16, 6, [(_xy(p), 2)])
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
        PolyFunction, "ord_at",
        lambda fn, p, *rest: ord_at(fn, functions_module._partner(fn.field, p), *rest),
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
    entries = [(_xy(p), 1), (_xy(p.hyperelliptic_involution()), 1)]
    return (p.x.mask, 1), lambda: principal_witness_core(curve, f16, entries, -2)


def _oracle_sum(curve):
    """The field the oracle starts over, the x-coordinate masks of the
    support there, and the oracle call on a + b."""
    rng = random.Random(101)
    a, b = (random_class(curve, default_field(4), rng) for _ in range(2))
    divisor = a.to_divisor() + b.to_divisor()
    return divisor.field, {x for (x, _), _ in divisor.entries}, lambda: oracle_class_of(divisor)


def _plant_norm(monkeypatch, change):
    """Replace the norm's masks N by the trimmed masks of change(field, N)."""
    norm = PolyFunction.norm
    monkeypatch.setattr(PolyFunction, "norm", lambda fn: _trim(change(fn.field, norm(fn))))


def _times(factor, power=1):
    """The change N -> N factor^power for `_plant_norm`, factor as masks."""

    def change(field, n):
        for _ in range(power):
            n = mul_poly_masks(*field.tables(), n, factor)
        return n

    return change


def _witness_is_zero(monkeypatch, curve):
    _, run = _vertical_witness(curve)
    monkeypatch.setattr(
        functions_module,
        "interpolate_vanishing",
        lambda c, field, m, constraints: PolyFunction(c, field, (), ()),
    )
    return run


def _witness_times_x(monkeypatch, curve):
    _, run = _vertical_witness(curve)
    interpolate = functions_module.interpolate_vanishing

    def times_x(c, field, m, constraints):
        psi = interpolate(c, field, m, constraints)
        return PolyFunction(c, field, (0,) + psi.a, (0,) + psi.b)

    monkeypatch.setattr(functions_module, "interpolate_vanishing", times_x)
    return run


def _norm_times_a_line_off_the_support(monkeypatch, curve):
    (x0, _), run = _vertical_witness(curve)
    _plant_norm(monkeypatch, _times((x0 ^ 1, 1)))
    return run


def _norm_short_of_one_factor(monkeypatch, curve):
    line, run = _vertical_witness(curve)

    def short(field, n):
        quo, rem = divmod_masks(field, n, line)
        assert not any(rem)
        return quo

    _plant_norm(monkeypatch, short)
    return run


def _norm_with_one_factor_too_many(monkeypatch, curve):
    _, known, run = _oracle_sum(curve)
    _plant_norm(monkeypatch, _times((min(known), 1)))
    return run


def _norm_with_a_spurious_triple_root(monkeypatch, curve):
    field, known, run = _oracle_sum(curve)
    r = next(x for x in range(field.order) if x not in known)
    _plant_norm(monkeypatch, _times((r, 1), 3))
    return run


def _expansion_with_a_wrong_unit(weierstrass):
    """Plant a wrong d in `local_coordinates`, at a Weierstrass point or
    not, so that each solved coefficient is R_k / (2 d), 2 the element with
    mask 2.  At a Weierstrass point every value `evaluate_masks` gives
    h'(x0) and f'(x0) comes out multiplied by 2.  Elsewhere d is h(x0),
    the constant term of the closed form, and the field's inverse of each
    mask a comes out as 1 / (2 a)."""

    def plant(monkeypatch, curve):
        f16 = default_field(4)
        p = next(q for q in curve.points_over(f16)[1:] if q.is_weierstrass() == weierstrass)
        if weierstrass:
            evaluate = functions_module.evaluate_masks
            monkeypatch.setattr(
                functions_module,
                "evaluate_masks",
                lambda exp, log, cs, x: f16.mul_masks(2, evaluate(exp, log, cs, x)),
            )
        else:
            inv = f16.inv_mask
            monkeypatch.setattr(f16, "inv_mask", lambda a: inv(f16.mul_masks(2, a)))
        return lambda: local_coordinates(curve, f16, _xy(p), 6)

    return plant


def _empty_nullspace(monkeypatch, curve):
    _, _, run = _oracle_sum(curve)
    monkeypatch.setattr(functions_module, "nullspace", lambda field, rows: [])
    return run


def _orders_zero_off_the_support(monkeypatch, curve):
    # the residual points' orders read 0, so the norm's new roots have no zeros above them
    field, known, run = _oracle_sum(curve)
    ord_at = PolyFunction.ord_at

    def zero_off_the_support(fn, p, *rest):
        return ord_at(fn, p, *rest) if fn.field == field and p[0] in known else 0

    monkeypatch.setattr(PolyFunction, "ord_at", zero_off_the_support)
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
