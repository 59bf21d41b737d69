"""Curve-layer tests: equation checks, counts vs Weil/zeta, Frobenius maps."""

import random
from collections import Counter

import pytest

import frobfix.curve as curve_module
from frobfix.curve import (
    Curve,
    CurvePoint,
    jacobian_order_from_lpoly,
    lpolynomial,
    power_sums,
    weil_interval_ok_curve,
    weil_interval_ok_jacobian,
)
from frobfix.errors import (
    CurveParameterError,
    DegreeCapError,
    EmbeddingError,
    FieldMismatchError,
    InconsistencyError,
    NotOnCurveError,
)
from frobfix.gf2 import default_field, embed


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())  # t = w over GF(4)


def test_parameter_validation():
    f4 = default_field(2)
    with pytest.raises(CurveParameterError):
        Curve(f4, f4.zero())
    with pytest.raises(CurveParameterError):
        Curve(f4, f4.one())
    Curve(f4, f4.gen())  # fine


def test_on_curve_examples():
    c = laszlo_curve()
    f4 = c.field
    assert c.contains(c.infinity())
    p = c.point(f4.zero(), f4.zero())  # f(0) = 0
    assert c.contains(p)
    with pytest.raises(NotOnCurveError):
        c.point(f4.zero(), f4.one())  # 1 + 0 != 0


def test_point_count_gf4_frozen():
    # oracle (by-hand substitution over all four x values): 2 affine + infinity
    c = laszlo_curve()
    assert c.count_points(c.field) == 3
    assert len(c.points_over(c.field)) == 3


def brute_force_points(c, field):
    """Affine (x, y) masks with y^2 + (x^2+x)y = (T^2+T)(x^5+x) + T^2 x^3,
    by substituting every pair, plus None for infinity."""
    te = embed(c.field, field)(c.effective_t)
    pts = {None}
    for x in field.elements():
        rhs = (te * te + te) * (x ** 5 + x) + te * te * x ** 3
        for y in field.elements():
            if y * y + (x * x + x) * y == rhs:
                pts.add((x.mask, y.mask))
    return pts


def root_walk_count(c, field):
    """#C(field) from the y that `quadratic_root_masks` solves for, infinity included."""
    return 1 + sum(1 for _ in c._affine_point_masks(field))


@pytest.mark.parametrize("t_degree,tm,degree", [(4, tm, 4) for tm in range(2, 16)] + [(2, 2, 6)])
def test_point_count_matches_brute_force(t_degree, tm, degree):
    base, field = default_field(t_degree), default_field(degree)
    c = Curve(base, base.element(tm))
    pts = c.points_over(field)
    expected = brute_force_points(c, field)
    assert c.count_points(field) == len(pts) == len(expected) == root_walk_count(c, field)
    assert pts[0].is_infinity()
    assert {None if p.is_infinity() else (p.x.mask, p.y.mask) for p in pts} == expected
    xs = [p.x.mask for p in pts[1:]]
    assert xs == sorted(xs)
    # above each x, y = h(x) z for the smaller root z comes first
    h, _ = c.equation_polys(field)
    for p, q in zip(pts[1:], pts[2:]):
        if p.x == q.x:
            assert (p.y / h.evaluate(p.x)).mask < (q.y / h.evaluate(p.x)).mask
    above = [c.points_at(field.element(xm)) for xm in range(field.order)]
    walked = [(p.x.mask, p.y.mask) for ps in above for p in ps]
    assert len(walked) == len(expected) - 1
    assert set(walked) == expected - {None}
    for xm, ps in enumerate(above):
        ys = [p.y.mask for p in ps]
        assert ys == sorted(ys)
        if xm in (0, 1):  # the roots of h: one (Weierstrass) point each
            assert len(ps) == 1


@pytest.mark.parametrize("call", ["lpolynomial", "group_order", "torsion_subgroup"])
def test_lpolynomial_past_the_field_cap_raises_the_cap_error(call):
    # the quadratic extension of GF(2^9) would be GF(2^18): the cap error
    # comes before any field is built
    from frobfix.jacobian import group_order, torsion_subgroup

    f512 = default_field(9)
    c = Curve(f512, f512.element(5))
    calls = {
        "lpolynomial": lambda: lpolynomial(c),
        "group_order": lambda: group_order(c, c.field),
        "torsion_subgroup": lambda: torsion_subgroup(c, 3, 1),
    }
    with pytest.raises(DegreeCapError) as exc:
        calls[call]()
    assert str(exc.value) == "quadratic extension of degree 18 exceeds cap"


def _det(m):
    """The determinant of a square integer matrix, by Laplace expansion
    along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** i * c * _det([row[:i] + row[i + 1:] for row in m[1:]])
               for i, c in enumerate(m[0]) if c)


def _det_one_minus_power(s1, s2, q, j):
    """det(I - C^j) for C the integer companion matrix of
    T^4 - s1 T^3 + s2 T^2 - q s1 T + q^2, whose roots are the reciprocal
    roots of L: prod (1 - alpha_i^j)."""
    last = [-q * q, q * s1, -s2, s1]  # minus the low coefficients
    c = [[int(i == k + 1) for k in range(3)] + [last[i]] for i in range(4)]
    power = [[int(i == k) for k in range(4)] for i in range(4)]
    for _ in range(j):
        power = [[sum(power[i][m] * c[m][k] for m in range(4)) for k in range(4)]
                 for i in range(4)]
    return _det([[int(i == k) - power[i][k] for k in range(4)] for i in range(4)])


@pytest.mark.pinned
def test_jacobian_order_matches_an_integer_determinant():
    # squares (1 - a T + q T^2)^2, as on this family, and L-polynomials that
    # are not squares, L(1) = 0 among them; a determinant <= 0 must raise
    outcomes = Counter()
    for q in (2, 4, 8, 16, 64, 256):
        grid = [(2 * a, a * a + 2 * q) for a in (-3, 0, 1, 2)]
        grid += [(s1, s2) for s1 in (-5, 0, 1, 4) for s2 in (-(q * q + 1), -3, 0, 2 * q + 1)]
        for s1, s2 in grid:
            for j in range(1, 7):
                det = _det_one_minus_power(s1, s2, q, j)
                outcomes[det > 0] += 1
                if det > 0:
                    assert jacobian_order_from_lpoly(s1, s2, q, j) == det, (s1, s2, q, j)
                    continue
                with pytest.raises(InconsistencyError) as exc:
                    jacobian_order_from_lpoly(s1, s2, q, j)
                assert str(exc.value) == "non-positive Jacobian order from L-polynomial"
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("j", [0, -1])
def test_jacobian_order_needs_a_positive_degree(j):
    with pytest.raises(ValueError) as exc:
        jacobian_order_from_lpoly(1, 2, 4, j)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"Jacobian order needs j >= 1, got {j}"


def test_counts_satisfy_weil():
    c = laszlo_curve()
    for deg, q in ((2, 4), (4, 16), (6, 64)):
        n = c.count_points(default_field(deg))
        assert weil_interval_ok_curve(n, q)


def count_from_lpoly(s1, s2, q, j):
    """#C(GF(q^j)) = q^j + 1 - p_j that the L-polynomial predicts, p_j the
    j-th power sum of its reciprocal roots."""
    return q ** j + 1 - power_sums(s1, s2, q, j)[j]


def test_lpolynomial_self_check():
    c = laszlo_curve()
    s1, s2 = lpolynomial(c)
    q = 4
    # the L-polynomial must reproduce the counts it was built from
    assert count_from_lpoly(s1, s2, q, 1) == c.count_points(default_field(2))
    assert count_from_lpoly(s1, s2, q, 2) == c.count_points(default_field(4))
    # functional-equation self-check: it must also predict the degree-3 count
    assert count_from_lpoly(s1, s2, q, 3) == c.count_points(default_field(6))
    # and jacobian orders stay in the Weil interval
    for j in (1, 2, 3):
        nj = jacobian_order_from_lpoly(s1, s2, q, j)
        assert weil_interval_ok_jacobian(nj, q ** j)


def test_lpolynomial_all_t_gf16():
    f16 = default_field(4)
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        s1, s2 = lpolynomial(c)
        assert count_from_lpoly(s1, s2, 16, 3) == c.count_points(default_field(12))


def test_involution_examples():
    c = laszlo_curve()
    f4 = c.field
    p = c.point(f4.zero(), f4.zero())
    assert p.hyperelliptic_involution() == p  # h(0) = 0: Weierstrass point
    f16 = default_field(4)
    pts = c.points_over(f16)
    for q in pts:
        assert q.hyperelliptic_involution().hyperelliptic_involution() == q
    fixed = [q for q in pts if q.hyperelliptic_involution() == q]
    # exactly the Weierstrass points, over x in {0, 1, inf}
    assert len(fixed) == 3
    xs = sorted((q.x.mask if not q.is_infinity() else -1) for q in fixed)
    assert xs == [-1, 0, 1]


def test_branch_points():
    c = laszlo_curve()
    bp = c.branch_points()
    assert len(bp) == 3
    masks = {(x.mask if x is not None else "inf") for x in bp}
    assert masks == {0, 1, "inf"}
    assert c.is_ordinary()
    # stability under x -> x+1 and x -> 1/x on {0, 1, inf}
    finite = [x for x in bp if x is not None]
    shifted = {(x + c.field.one()).mask for x in finite} | {"inf"}
    assert shifted == masks


def test_is_ordinary_all_t():
    f16 = default_field(4)
    for tm in range(2, 16):
        assert Curve(f16, f16.element(tm)).is_ordinary()


def test_relative_frobenius_examples():
    c = laszlo_curve()
    f16 = default_field(4)
    assert c.infinity().relative_frobenius().is_infinity()
    for p in c.points_over(f16):
        img = p.relative_frobenius()  # contains() is asserted inside
        assert img.curve.n == 1
        back = img.frobenius_preimage()
        assert back == p
    # composing d = 2 twists equals the coordinate-wise q-power
    for p in c.points_over(f16):
        img = p.relative_frobenius().relative_frobenius()
        assert img.curve.same_model(c)
        if not p.is_infinity():
            assert img.x == p.x ** 4 and img.y == p.y ** 4


def test_equation_identity_under_frobenius():
    # X(n+1)-equation(x^2, y^2) == (X(n)-equation(x, y))^2 for all (x, y),
    # on and off the curve.
    c = laszlo_curve()
    f16 = default_field(4)
    h0, f0 = c.equation_polys(f16)
    c1 = c.next_twist()
    h1, f1 = c1.equation_polys(f16)
    for xm in range(16):
        for ym in range(0, 16, 3):
            x, y = f16.element(xm), f16.element(ym)
            lhs = (y * y) ** 2 + h1.evaluate(x * x) * (y * y) + f1.evaluate(x * x)
            e0 = y * y + h0.evaluate(x) * y + f0.evaluate(x)
            assert lhs == e0 * e0


def test_involution_commutes_with_frobenius():
    c = laszlo_curve()
    f16 = default_field(4)
    for p in c.points_over(f16):
        a = p.hyperelliptic_involution().relative_frobenius()
        b = p.relative_frobenius().hyperelliptic_involution()
        assert a == b


def test_preimage_of_gf16_point_stays_gf16():
    c = laszlo_curve()
    c1 = c.next_twist()
    f16 = default_field(4)
    for p in c1.points_over(f16):
        pre = p.frobenius_preimage()
        assert pre.field == f16 or pre.is_infinity()


def test_weierstrass_points():
    # the affine ramification points: one above each finite branch x
    c = laszlo_curve()
    wpts = [p for x in c.branch_points() if x is not None for p in c.points_at(x)]
    assert len(wpts) == 2
    assert {p.x.mask for p in wpts} == {0, 1}
    for p in wpts:
        assert p.is_weierstrass()
        assert c.contains(p)


def test_lift_and_retag():
    c = laszlo_curve()
    f4, f16 = c.field, default_field(4)
    p = c.point(f4.zero(), f4.zero())
    q = p.lift(f16)
    assert q.field == f16 and c.contains(q)
    c2 = c.twist(2)
    assert c.same_model(c2)
    r = p.retag(c2)
    assert r.curve.n == 2


def test_point_hash_agrees_with_equality_across_retag():
    c = laszlo_curve()
    pts = c.points_over(default_field(4))
    same = c.twist(c.field.degree)  # X(d) = X(0)
    for p in pts:
        r = p.retag(same)
        assert r.curve != c and r == p and hash(r) == hash(p)
        if not p.is_weierstrass():
            assert p.hyperelliptic_involution() != p
    assert len(set(pts) | {p.retag(same) for p in pts}) == len(pts)


def test_random_extension_points_on_curve():
    c = laszlo_curve()
    rng = random.Random(21)
    f256 = default_field(8)
    pts = c.points_over(f256)
    n = len(pts)
    assert weil_interval_ok_curve(n, 256)
    for p in rng.sample(pts, 20):
        assert c.contains(p)


def _boxed_on(c, x, ys):
    """The y in ys with y y + h(x) y == f(x) on FieldElements, (h, f) from
    equation_polys."""
    h, f = (p.evaluate(x) for p in c.equation_polys(x.field))
    return [y for y in ys if y * y + h * y == f]


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("tm", range(2, 16))
def test_mask_membership_matches_a_boxed_reference(tm, n):
    # every (x, y) over GF(16), then a random sample over GF(2^8); points_at
    # must list exactly the y the reference accepts, ascending
    f16, f256 = default_field(4), default_field(8)
    c = Curve(f16, f16.element(tm), n)
    for x in f16.elements():
        on = _boxed_on(c, x, list(f16.elements()))
        assert [y for y in f16.elements() if c.contains(CurvePoint(c, x, y))] == on
        assert [p.y for p in c.points_at(x)] == on
    rng = random.Random(1000 * tm + n)
    for _ in range(16):
        x = f256.random(rng)
        on = _boxed_on(c, x, list(f256.elements()))
        assert [p.y for p in c.points_at(x)] == on
        for y in (f256.random(rng), *on):
            assert c.contains(CurvePoint(c, x, y)) is (y in on)


def test_membership_keeps_its_field_checks():
    c, f16 = laszlo_curve(), default_field(4)
    assert c.contains(c.infinity())
    with pytest.raises(FieldMismatchError) as exc:
        c.contains(CurvePoint(c, f16.one(), default_field(8).one()))
    assert str(exc.value) == "point coordinates in different fields"
    f8 = default_field(3)
    with pytest.raises(FieldMismatchError) as exc:
        c.contains(CurvePoint(c, f8.one(), f8.one()))
    assert str(exc.value) == "coordinate field does not contain the curve base field"


@pytest.mark.parametrize("t_degree, tm", [(2, 2), (2, 3), (4, 2), (4, 9)])
def test_equation_masks_are_the_masks_of_equation_polys(t_degree, tm):
    base = default_field(t_degree)
    for n in range(4):
        c = Curve(base, base.element(tm), n)
        for k in (1, 2, 3):
            field = default_field(k * t_degree)
            assert c.equation_masks(field) == tuple(p.masks() for p in c.equation_polys(field))


def test_equation_masks_memo(monkeypatch):
    # X(d) = X(0) over GF(2^d) share one entry, and a hit builds no polynomial
    monkeypatch.setattr(curve_module, "_equation_cache", {})
    built = []
    polys = Curve.equation_polys
    monkeypatch.setattr(Curve, "equation_polys",
                        lambda self, field=None: built.append(field) or polys(self, field))
    c, f16 = laszlo_curve(), default_field(4)
    first = c.equation_masks(f16)
    assert built == [f16]
    assert c.twist(2).equation_masks(f16) is first
    assert c.equation_masks(f16) is first
    assert built == [f16] and len(curve_module._equation_cache) == 1
    c.twist(1).equation_masks(f16)
    assert built == [f16, f16] and len(curve_module._equation_cache) == 2


def test_equation_masks_have_the_shape_the_group_law_reads():
    # the group law's kernels read h = x^2 + x and f = (0, A, 0, B, 0, A),
    # with A = T^2 + T != 0 and B = T^2 for T = t^(2^n), and nothing else:
    # every t over GF(4), GF(8), GF(16) and GF(64), each twist n = 0, 1, 2,
    # over the base field and its quadratic extension
    cases = 0
    for d in (2, 3, 4, 6):
        base = default_field(d)
        for tm in range(2, base.order):
            for n in range(3):
                c = Curve(base, base.element(tm), n)
                for field in (base, default_field(2 * d)):
                    t = embed(base, field).image_mask(tm)
                    for _ in range(n):
                        t = field.mul_masks(t, t)
                    a, b = field.mul_masks(t, t) ^ t, field.mul_masks(t, t)
                    assert a and c.equation_masks(field) == ((0, 1, 1), (0, a, 0, b, 0, a)), (c, field)
                    cases += 1
    assert cases == 504


@pytest.mark.parametrize(
    "t_degree,tm,degree",
    [(4, tm, 8) for tm in range(2, 16)] + [(2, 2, degree) for degree in range(2, 13, 2)],
)
def test_trace_count_matches_the_root_walk(t_degree, tm, degree):
    # over GF(16) for every t, test_point_count_matches_brute_force checks the
    # same at n = 0; n = 1, 2 count on the twisted models' memo entries
    # (T = t^(2^n)), Frobenius conjugates whose counts equal those at n = 0
    base, field = default_field(t_degree), default_field(degree)
    for n in range(3):
        c = Curve(base, base.element(tm), n)
        assert c.count_points(field) == len(c.points_over(field)) == root_walk_count(c, field)


def test_counts_of_the_benchmark_curves_match_the_root_walk():
    # the 62 curves of the lpoly_gf64 benchmark, over both fields it counts on
    base, ext = default_field(6), default_field(12)
    for tm in range(2, base.order):
        c = Curve(base, base.element(tm))
        for field in (base, ext):
            assert c.count_points(field) == root_walk_count(c, field) == len(c.points_over(field))


def test_count_over_a_field_without_the_base_field_raises():
    c = Curve(default_field(4), default_field(4).element(3))
    for degree in (2, 6):
        with pytest.raises(EmbeddingError):
            c.count_points(default_field(degree))


def _g(x):
    return x + x.inverse() + (x + x.field.one()).inverse()


@pytest.mark.parametrize("degree", range(2, 9))
def test_trace_of_f_over_h_squared_is_the_trace_of_c_g(degree):
    # the identity behind count_points, on boxed elements and
    # FieldElement.trace, for every x outside {0, 1} and twists 0..2
    field = default_field(degree)
    curves = [Curve(field, field.element(m), n) for m in {2, 3, field.order - 1} for n in range(3)]
    if degree % 2 == 0:
        curves += [laszlo_curve().twist(n) for n in range(3)]
    for c in curves:
        h, f = c.equation_polys(field)
        te = embed(c.field, field)(c.effective_t)
        cf = te * te + te
        for xm in range(2, field.order):
            x = field.element(xm)
            assert (f.evaluate(x) / h.evaluate(x) ** 2).trace() == (cf * _g(x)).trace()


@pytest.mark.parametrize("degree", range(2, 13))
def test_g_table_holds_each_rho_orbit_once(degree):
    field = default_field(degree)
    table = curve_module._g_table(field)
    assert curve_module._g_table(field) is table
    assert [g for g, _ in table] == sorted({g for g, _ in table})
    # 3 x on each rho-orbit of size 3; the two roots of x^2 + x + 1 alone
    fixed = 2 if degree % 2 == 0 else 0
    ms = Counter(m for _, m in table)
    assert sum(m * k for m, k in ms.items()) == field.order - 2
    assert set(ms) <= {1, 3} and ms[1] == fixed and 3 * ms[3] == field.order - 2 - fixed
    if degree <= 8:
        gs = Counter(_g(field.element(xm)).mask for xm in range(2, field.order))
        assert table == sorted(gs.items())


def test_lpolynomial_catches_a_count_incompatible_with_genus_2(monkeypatch):
    c = laszlo_curve()
    count = Curve.count_points

    def one_extra_above_the_base(self, field):
        return count(self, field) + (field != self.field)

    monkeypatch.setattr(Curve, "count_points", one_extra_above_the_base)
    with pytest.raises(InconsistencyError) as exc:
        lpolynomial(c)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "point counts are incompatible with a genus-2 L-polynomial"


# ---------------------------------------------------------------------------
# One planted fault per cross-check of the Frobenius maps and the Jacobian
# order; each plant returns the call that must raise.


def _frobenius_image_off_the_curve(monkeypatch, curve):
    p = curve.points_over(default_field(4))[1]
    monkeypatch.setattr(Curve, "contains", lambda self, q: False)
    return p.relative_frobenius


def _frobenius_preimage_off_the_curve(monkeypatch, curve):
    p = curve.next_twist().points_over(default_field(4))[1]
    monkeypatch.setattr(Curve, "contains", lambda self, q: False)
    return p.frobenius_preimage


def _first_power_sum_off_by_one(monkeypatch, curve):
    s1, s2 = lpolynomial(curve)
    sums = curve_module.power_sums
    monkeypatch.setattr(
        curve_module,
        "power_sums",
        lambda *args: [p + (k == 1) for k, p in enumerate(sums(*args))],
    )
    return lambda: jacobian_order_from_lpoly(s1, s2, curve.field.order, 1)


def _count_outside_the_weil_interval(monkeypatch, curve):
    # an even shift of N1 keeps s1^2 - (q^2 + 1 - N2) even, so only the
    # Hasse-Weil check can catch it: N1 = 3 + 2 q^2 = 35 over GF(4)
    count = Curve.count_points
    monkeypatch.setattr(
        Curve,
        "count_points",
        lambda self, field: count(self, field) + 2 * field.order ** 2 * (field == self.field),
    )
    return lambda: lpolynomial(curve)


def _lpolynomial_not_a_square(monkeypatch, curve):
    # N1 + 2 moves s1 by 2: the parity of s1^2 - (q^2 + 1 - N2) holds, N1 stays
    # in its Hasse-Weil interval, and s2 = a^2 + 2q fails
    count = Curve.count_points
    monkeypatch.setattr(
        Curve, "count_points", lambda self, field: count(self, field) + 2 * (field == self.field)
    )
    return lambda: lpolynomial(curve)


def _lpolynomial_vanishing_at_one(monkeypatch, curve):
    # L(1) = 1 - s1 + s2 - q s1 + q^2 is 0 for s1 = 0, s2 = -(q^2 + 1)
    q = curve.field.order
    return lambda: jacobian_order_from_lpoly(0, -(q * q + 1), q, 1)


PLANTED_FAULTS = [
    pytest.param(
        "relative Frobenius image left the twisted curve",
        _frobenius_image_off_the_curve,
        id="frobenius-image",
    ),
    pytest.param(
        "Frobenius preimage left the source curve",
        _frobenius_preimage_off_the_curve,
        id="frobenius-preimage",
    ),
    pytest.param(
        "#C(GF(2^2)) = 35 lies outside the Hasse-Weil interval",
        _count_outside_the_weil_interval,
        id="hasse-weil",
    ),
    pytest.param(
        "L-polynomial is not a square (1 - a T + q T^2)^2",
        _lpolynomial_not_a_square,
        id="not-a-square",
    ),
    pytest.param(
        "non-integral Jacobian order from L-polynomial",
        _first_power_sum_off_by_one,
        id="non-integral",
    ),
    pytest.param(
        "non-positive Jacobian order from L-polynomial",
        _lpolynomial_vanishing_at_one,
        id="non-positive",
    ),
]


@pytest.mark.parametrize("message, plant", PLANTED_FAULTS)
def test_every_cross_check_fires(monkeypatch, message, plant):
    run = plant(monkeypatch, laszlo_curve())
    with pytest.raises(InconsistencyError) as exc:
        run()
    assert type(exc.value) is InconsistencyError
    assert str(exc.value) == message
