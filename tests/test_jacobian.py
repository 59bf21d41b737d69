"""Jacobian tests: Cantor vs the interpolation oracle, orders, torsion,
principality, and Frobenius pullback."""

import hashlib
import math
import random

import pytest

from frobfix.curve import Curve, lpolynomial, weil_interval_ok_jacobian
from frobfix.errors import (
    DegreeCapError,
    FieldMismatchError,
    InconsistencyError,
    NotOnCurveError,
    SearchExhaustedError,
)
from frobfix.gf2 import default_field, embed, quadratic_root_masks
from frobfix.jacobian import (
    FormalDivisor,
    JacobianClass,
    _mumford,
    _pi_adic_digits,
    _solvable_by_trace,
    _solve_by_roots,
    _v_solution_space,
    affine_span,
    class_of,
    count_classes,
    enumerate_classes,
    frobenius,
    frobenius_pullback,
    group_order,
    oracle_class_of,
    ordinarity_check,
    principal_witness,
    random_class,
    solve_additive,
    sylow_subgroup,
    torsion_subgroup,
    two_torsion,
)
from frobfix.poly import Poly, _trim, divmod_masks, evaluate_masks, solve_quadratic


def laszlo_curve():
    f4 = default_field(2)
    return Curve(f4, f4.gen())


def _point_class(p):
    """The class of P - infinity, built from its divisor."""
    return class_of(FormalDivisor(p.curve, [(p, 1), (p.curve.infinity(), -1)]))


def sigma_fixed_points(curve, field):
    """The four fixed points of the order-3 automorphism: x^2 + x + 1 = 0."""
    out = []
    for x in field.elements():
        if (x * x + x + field.one()).mask == 0:
            out.extend(curve.points_at(x))
    return out


def tau01_image(curve, p):
    """(x, y) -> (x + 1, y + T(x^2+x+1)): the transposition lift, used here
    as a fixture (the action module re-derives it by undetermined coefficients)."""
    e = embed(curve.field, p.field)
    t = e(curve.effective_t)
    one = p.field.one()
    return curve.point(p.x + one, p.y + t * (p.x * p.x + p.x + one))


def test_fixtures_agree_with_the_library_route():
    # the fixtures are oracles for action.fixed_points and the tau01 lift:
    # on X(0) directly, on X(1) through the Frobenius twist of X(0)'s lifts
    from frobfix.action import automorphism_group, fixed_points

    c, f16 = laszlo_curve(), default_field(4)
    _, by_name = automorphism_group(c)
    for curve, sigma, tau in (
        (c, by_name["sigma"], by_name["tau01"]),
        (c.twist(1), by_name["sigma"].frobenius_twist(), by_name["tau01"].frobenius_twist()),
    ):
        assert fixed_points(sigma, f16) == sigma_fixed_points(curve, f16)
        for p in curve.points_over(f16)[1:]:
            assert tau.apply(p) == tau01_image(curve, p)
    # X(1)'s own principal lift of tau01, picked by coefficient key on its
    # model, is the iota-partner of the twisted lift, not the twisted lift
    c1 = c.twist(1)
    _, by_name1 = automorphism_group(c1)
    twisted = by_name["tau01"].frobenius_twist()
    assert by_name1["tau01"] != twisted
    assert by_name1["tau01"] == by_name1["iota"].compose(twisted)
    for p in c1.points_over(f16)[1:]:
        assert by_name1["tau01"].apply(p) == tau01_image(c1, p).hyperelliptic_involution()


def test_identity_and_inverse_exhaustive_gf4():
    c = laszlo_curve()
    classes = enumerate_classes(c, c.field)
    assert len(classes) == group_order(c, c.field) == 16
    ident = JacobianClass.identity(c, c.field)
    # X(1) is another model (t^2 != t), so no class on it equals one on X(0),
    # not even the identity, whose key is the same
    other = JacobianClass.identity(c.twist(1), c.field)
    for cl in classes:
        assert (cl + ident).equals(cl)
        assert (cl + cl.neg()).is_identity()
        assert cl.neg().neg().equals(cl)
        assert not cl.equals(other) and not other.equals(cl) and cl != other


def test_lagrange_gf4():
    c = laszlo_curve()
    n = group_order(c, c.field)
    for cl in enumerate_classes(c, c.field):
        assert cl.mul_int(n).is_identity()


def test_group_order_weil_interval():
    c = laszlo_curve()
    for j in (1, 2, 3):
        fld = default_field(2 * j)
        assert weil_interval_ok_jacobian(group_order(c, fld), fld.order)


def test_count_classes_matches_zeta_gf16():
    c = laszlo_curve()
    assert count_classes(c, default_field(4)) == 576


def test_v_solution_space_matches_brute_force_gf4():
    c = laszlo_curve()
    f4 = c.field
    h, f = c.equation_polys(f4)
    every_v = [Poly.from_masks(f4, (v0, v1)) for v1 in range(4) for v0 in range(4)]
    # the linear u = x + a (two_torsion's shape), then every monic quadratic
    every_u = [(u0, 1) for u0 in range(4)]
    every_u += [(u0, u1, 1) for u1 in range(4) for u0 in range(4)]
    for u in every_u:
        candidates = [v for v in every_v if v.degree < len(u) - 1]
        expected = {v.masks() for v in candidates if ((v * v + v * h + f) % Poly.from_masks(f4, u)).is_zero()}
        sol = _v_solution_space(c, f4, u)
        if sol is None:
            assert not expected
            continue
        span = list(affine_span(*sol))
        assert len(set(span)) == len(span) == 1 << len(sol[1])  # kernel independent
        assert set(span) == expected


UNTWISTED_TRACE_CASES = {(4, tm, 4) for tm in range(2, 16)} | {(2, 2, 6)}


@pytest.mark.parametrize(
    "base_degree, t_mask, degree, n",
    [(4, tm, 4, 0) for tm in range(2, 16)] + [(2, 2, 6, 0)]
    + [(4, tm, 4, n) for n in (1, 2) for tm in range(2, 16)]
    + [(d, 3, 6, n) for d in (2, 3) for n in (1, 2)],
    ids=[f"t{tm}-gf16" for tm in range(2, 16)] + ["t2-gf4-over-gf64"]
    + [f"t{tm}-n{n}-gf16" for n in (1, 2) for tm in range(2, 16)]
    + [f"t3-n{n}-gf{1 << d}-over-gf64" for d in (2, 3) for n in (1, 2)],
)
def test_trace_pretest_agrees_with_the_solve(base_degree, t_mask, degree, n):
    # every monic quadratic; h = x^2 + x is a unit mod u unless u0 = 0 or u(1) = 0,
    # and those u are left undecided for the solve.  X(n) of t has the memo
    # key and (h, f) of X(0) of t^(2^n): a twist whose X(0) an n = 0 case runs
    # (every GF(16) twist, and t = 3 over GF(4) at n = 1) checks only that;
    # the others read an f that no n = 0 case reads and run the solve
    base = default_field(base_degree)
    c = Curve(base, base.element(t_mask), n)
    field = default_field(degree)
    f = c.equation_masks(field)[1]
    if n and (base_degree, c.effective_t.mask, degree) in UNTWISTED_TRACE_CASES:
        untwisted = Curve(base, c.effective_t)
        assert c.equation_masks(field) is untwisted.equation_masks(field)
        assert c.equation_polys(field) == untwisted.equation_polys(field)
        return
    undecided = 0
    for u1 in range(field.order):
        for u0 in range(field.order):
            by_trace = _solvable_by_trace(field, f, u0, u1)
            if u0 == 0 or u0 ^ u1 == 1:
                assert by_trace is None
                undecided += 1
                continue
            sol = _v_solution_space(c, field, (u0, u1, 1))
            assert (by_trace is not False) is (sol is not None), (u0, u1)
    assert undecided == 2 * field.order - 1


class ScriptedRng:
    """Returns the given values in turn from randrange, checking each bound."""

    def __init__(self, draws):
        self.draws = list(draws)

    def randrange(self, n):
        value = self.draws.pop(0)
        assert 0 <= value < n
        return value


def test_random_class_solves_every_u_the_trace_does_not_reject(monkeypatch):
    # two draws per u and one per kernel vector; a rejected u reaches no
    # solve, an undecided one solve_additive, and an accepted one
    # _solve_by_roots with the c that the trace test returned
    import frobfix.jacobian as jacobian_module

    c = laszlo_curve()
    f16 = default_field(4)
    f = c.equation_masks(f16)[1]
    verdicts = {(u0, u1): _solvable_by_trace(f16, f, u0, u1) for u1 in range(16) for u0 in range(16)}
    assert {type(v) for v in verdicts.values()} == {type(None), bool, tuple}
    assert True not in verdicts.values()
    solutions = {u: solve_additive(f16, 2, f, (*u, 1)) for u in verdicts}
    good = next(u for u, by_trace in verdicts.items() if by_trace)
    solved = []
    for name in ("solve_additive", "_solve_by_roots"):
        real = getattr(jacobian_module, name)
        monkeypatch.setattr(jacobian_module, name,
                            lambda *args, name=name, real=real: solved.append((name, args)) or real(*args))

    def routed(u):  # the one solve an undecided or accepted u reaches
        if verdicts[u] is None:
            return "solve_additive", (f16, 2, f, (*u, 1))
        return "_solve_by_roots", (f16, (*u, 1), verdicts[u])

    for u, by_trace in verdicts.items():
        solved.clear()
        kept = solutions[u] is not None
        rng = ScriptedRng([*u] + ([] if kept else [*good]) + [1] * 4)
        cls = random_class(c, f16, rng)
        assert cls.u[:2] == (u if kept else good)
        assert solved == ([] if by_trace is False else [routed(u)]) + ([] if kept else [routed(good)])
        assert len(rng.draws) == 4 - len(solutions[cls.u[:2]][1])


def test_random_class_catches_a_u_the_trace_accepts_without_a_solution(monkeypatch):
    import frobfix.jacobian as jacobian_module

    c, f16 = laszlo_curve(), default_field(4)
    f = c.equation_masks(f16)[1]
    good = next((u0, u1) for u1 in range(16) for u0 in range(16) if _solvable_by_trace(f16, f, u0, u1))
    monkeypatch.setattr(jacobian_module, "_solve_by_roots", lambda *args: None)
    with pytest.raises(InconsistencyError) as exc:
        random_class(c, f16, ScriptedRng(good))
    assert exc.type is InconsistencyError
    assert str(exc.value) == "trace criterion accepted u, but v^2 + v h = f has no solution mod u"


def test_random_class_catches_a_flipped_bit_of_c(monkeypatch):
    # every accepted u over GF(16), each bit of (c0, c1) flipped on its way
    # to the solve: y^2 + y = c' has no root, or its v fails the Mumford
    # check, as v^2 + v h = h^2 c' != f mod u; a class is never returned
    import frobfix.jacobian as jacobian_module

    c, f16 = laszlo_curve(), default_field(4)
    f = c.equation_masks(f16)[1]
    accepted = [(u0, u1) for u1 in range(16) for u0 in range(16) if _solvable_by_trace(f16, f, u0, u1)]
    real, caught = jacobian_module._solve_by_roots, set()
    for bit in range(2 * f16.degree):
        flip = (1 << bit) & 15, (1 << bit) >> 4  # one bit of c0, or of c1
        monkeypatch.setattr(jacobian_module, "_solve_by_roots", lambda field, u, cm, flip=flip: real(
            field, u, (cm[0] ^ flip[0], cm[1] ^ flip[1])))
        for u in accepted:
            with pytest.raises((InconsistencyError, ValueError)) as exc:
                random_class(c, f16, ScriptedRng([*u, 1, 1]))
            caught.add((exc.type, str(exc.value)))
    assert caught == {
        (InconsistencyError, "trace criterion accepted u, but v^2 + v h = f has no solution mod u"),
        (ValueError, "Mumford condition u | v^2 + v h + f fails"),
    }


@pytest.mark.parametrize("base_degree, degree, draws", [(2, 4, None), (4, 4, None), (2, 6, None),
                                                        (2, 12, 3000), (2, 16, 3000)])
def test_solve_by_roots_matches_solve_additive(base_degree, degree, draws):
    # every accepted u, for every t of the base field, or `draws` seeded u
    # on the reference curve: the same particular solution and kernel, in
    # the same order, as the GF(2) echelon of solve_additive
    base, field = default_field(base_degree), default_field(degree)
    if draws is None:
        curves = [Curve(base, base.element(tm)) for tm in range(2, base.order)]
        us = [(u0, u1) for u1 in range(field.order) for u0 in range(field.order)]
    else:
        curves, rng = [laszlo_curve()], random.Random(degree)
        us = [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(draws)]
    kernels = set()
    for c in curves:
        f = c.equation_masks(field)[1]
        for u0, u1 in us:
            by_trace = _solvable_by_trace(field, f, u0, u1)
            if by_trace:
                sol = _solve_by_roots(field, (u0, u1, 1), by_trace)
                assert sol == solve_additive(field, 2, f, (u0, u1, 1)), (u0, u1)
                kernels.add(len(sol[1]))
    assert kernels == {1, 2}


def test_random_class_stream_is_pinned():
    # pinned from the former mask-packing solver; bench/frozen.json's gate_digest
    # depends on this stream
    c = laszlo_curve()
    rng = random.Random(0)
    assert [random_class(c, default_field(4), rng).key() for _ in range(3)] == [
        ((12, 13, 1), (1, 7)),
        ((12, 9, 1), (15, 14)),
        ((6, 4, 1), (12, 4)),
    ]


@pytest.mark.pinned
def test_random_class_stream_is_pinned_gf4096():
    # pinned from the sampler that reduced f and every power of x by synthetic
    # division, over the field and seed of bench/units.py's torsion unit; the
    # value drawn after the fourth class pins how many the sampler took
    c = laszlo_curve()
    rng = random.Random(1)
    assert [random_class(c, default_field(12), rng).key() for _ in range(4)] == [
        ((1100, 516, 1), (3347, 2998)),
        ((3682, 3868, 1), (1808, 3735)),
        ((250, 182, 1), (1995, 1297)),
        ((3122, 1774, 1), (2304, 3149)),
    ]
    assert rng.randrange(1 << 30) == 62364611


def test_cantor_vs_oracle_random_gf16():
    c = laszlo_curve()
    f16 = default_field(4)
    rng = random.Random(101)
    for _ in range(60):
        a = random_class(c, f16, rng)
        b = random_class(c, f16, rng)
        assert (a + b).equals(oracle_class_of(a.to_divisor() + b.to_divisor()))


@pytest.mark.parametrize("t_mask", [2, 3])
def test_cantor_vs_oracle_every_pair_gf4(t_mask):
    # every ordered pair, so the general composition's inputs (the identity,
    # degree 1, shared roots, a + (-a), roots of h) are all covered
    f4 = default_field(2)
    c = Curve(f4, f4.element(t_mask))
    classes = enumerate_classes(c, f4)
    for a in classes:
        for b in classes:
            assert (a + b).equals(oracle_class_of(a.to_divisor() + b.to_divisor()))


@pytest.mark.pinned
def test_degenerate_sums_gf16_are_pinned():
    # pinned from the general Cantor composition, before the closed forms
    c = laszlo_curve()
    classes = enumerate_classes(c, default_field(4))
    digest = hashlib.sha256()
    for a in classes:
        digest.update(repr(((a + a).key(), (a + a.neg()).key())).encode())
    low = [a for a in classes if len(a.u) <= 2]
    for a in low:
        for b in low:
            digest.update(repr((a + b).key()).encode())
    assert digest.hexdigest() == "15e2b199e772f5d3c3b212ac17f87903a03418d19d7734cca3ebbe85dc7c1d28"


def _exact_quotient(a, b):
    q, r = divmod(a, b)
    assert r.is_zero(), "division is not exact"
    return q


def _poly_route_sum(a, b):
    """a + b by the textbook Cantor composition and reduction on Polys, as a
    Mumford key: the reference that the mask routes must reproduce."""
    field = a.field
    h, f = a.curve.equation_polys(field)
    u1, v1, u2, v2 = (Poly.from_masks(field, m) for m in (a.u, a.v, b.u, b.v))
    d1, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = d1.xgcd(v1 + v2 + h)
    u = _exact_quotient(u1 * u2, d * d)
    v = _exact_quotient(c1 * e1 * u1 * v2 + c1 * e2 * u2 * v1 + c2 * (v1 * v2 + f), d) % u
    while u.degree > 2:
        u = _exact_quotient(v * v + v * h + f, u)
        v = (v + h) % u
    u = u.monic()
    return u.masks(), (v % u).masks()


GROUP_LAW_ROUTES = {"identity", "opposite", "chord", "tangent", "coprime 2+1", "coprime 2+2",
                    "doubling", "fused reduction", "shared point 2+1", "split"}


def _spy_on_routes(monkeypatch):
    """Wrap `_closed_form_sum` so that a sum leaves the (arguments, result)
    of each call it made, in call order, in the returned list."""
    import frobfix.jacobian as jacobian_module

    taken = []
    closed = jacobian_module._closed_form_sum

    def spy(*args):
        out = closed(*args)
        taken.append((args, out))
        return out

    monkeypatch.setattr(jacobian_module, "_closed_form_sum", spy)
    return taken


def _route_of(a, b, taken):
    """The routes of `GROUP_LAW_ROUTES` that the sum a + b took."""
    if not taken:
        return {"identity"} if a.is_identity() or b.is_identity() else {"opposite"}
    if taken[0][1] is None:  # then the second class's points, one sum each
        assert len(a.u) == len(b.u) == 3 and all(out for _, out in taken[1:]), taken
        return {"split"}
    assert len(taken) == 1
    (field, _, _, _, u1, _, u2, _), (u, _) = taken[0]
    if len(a.u) == len(b.u) == 2:  # deg U = 2
        return {"chord" if a.u != b.u else "tangent"}
    if len(a.u) == len(b.u):  # composed and reduced in one step
        return {"coprime 2+2" if a.u != b.u else "doubling", "fused reduction"}
    if Poly.from_masks(field, u1).evaluate(field.element(u2[0])).mask:
        return {"coprime 2+1", "fused reduction"}
    # the point over a root of u1 cancels (deg u = 1) or repeats
    return {"shared point 2+1"} if len(u) == 2 else {"shared point 2+1", "fused reduction"}


def _route_cases():
    """Lists of classes whose ordered pairs reach every group-law route:
    all of J(GF(4)) for both t, and every 16th class of J(GF(16))."""
    f4 = default_field(2)
    cases = [enumerate_classes(Curve(f4, f4.element(tm)), f4) for tm in (2, 3)]
    return cases + [enumerate_classes(laszlo_curve(), default_field(4))[::16]]


def _seeded_pairs_gf4096():
    """500 seeded pairs of `random_class` draws over GF(2^12) on the
    reference curve, each followed by its first class doubled."""
    c, f4096, rng = laszlo_curve(), default_field(12), random.Random(2026)
    pairs = []
    for _ in range(500):
        a, b = random_class(c, f4096, rng), random_class(c, f4096, rng)
        pairs += [(a, b), (a, a)]
    return pairs


@pytest.mark.pinned
def test_every_group_law_route_matches_the_poly_route(monkeypatch):
    # every pair over GF(4) for both t, and a fixed slice of GF(16) pairs;
    # an identity or opposite sum must reach no helper at all
    f16, cases = default_field(4), _route_cases()
    taken = _spy_on_routes(monkeypatch)
    reached, cancels = {}, 0
    for classes in cases:
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                taken.clear()
                s = a + b
                routes = _route_of(a, b, taken)
                cancels += routes == {"shared point 2+1"}
                for route in routes:
                    reached[route] = reached.get(route, 0) + 1
                assert s.key() == _poly_route_sum(a, b), (a, b)
                if not taken and not (a.is_identity() or b.is_identity()):
                    assert a.u == b.u and s.is_identity()
                if a.field == f16 and (i * len(classes) + j) % 50 == 0:
                    assert s.equals(oracle_class_of(a.to_divisor() + b.to_divisor()))
    assert set(reached) == GROUP_LAW_ROUTES, reached
    # 10 shared points cancel and 4 repeat; 182 (2, 2) sums split
    assert (cancels, reached["shared point 2+1"], reached["split"]) == (10, 14, 182), reached


@pytest.mark.pinned
def test_group_law_needs_no_xgcd_or_divexact(monkeypatch):
    # the route test's pairs and the straight-line test's seeded GF(2^12)
    # pairs and doublings, shared roots and splits included, all sum with
    # the Poly extended gcd disabled
    pairs = [(a, b) for classes in _route_cases() for a in classes for b in classes]
    pairs += _seeded_pairs_gf4096()

    def disabled(*args):
        raise AssertionError("the group law reached a Poly gcd")

    monkeypatch.setattr(Poly, "xgcd", disabled)
    for a, b in pairs:
        a + b


@pytest.mark.pinned
def test_group_law_outputs_are_pinned():
    # sha256 pinned from the Poly-route group law before the mask routes:
    # the keys of 200 torsion-style samples over GF(2^12) (a class and its
    # cofactor multiple, as bench/units.py's Torsion unit draws them), and the
    # action of all 12 automorphisms on every eighth class over GF(16), each
    # image lifted to GF(2^8): images used to come back over GF(4), GF(16) or
    # GF(2^8) and now keep GF(16), and both read this digest
    from frobfix.action import automorphism_group

    c, f4096, f16 = laszlo_curve(), default_field(12), default_field(4)
    order = group_order(c, f4096)
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(200):
        a = random_class(c, f4096, rng)
        digest.update(repr((a.key(), a.mul_int(order // 729).key())).encode())
    assert digest.hexdigest() == "43864cc240a025552716feb8df1f0ab79aad21b98b3ef509b09f494fd21a7344"
    elements, _ = automorphism_group(c)
    digest = hashlib.sha256()
    for cl in enumerate_classes(c, f16)[::8]:
        for g in elements:
            image = g.act_on_class(cl)
            digest.update(repr(image.lift(default_field(8)).key()).encode())
    assert digest.hexdigest() == "166bb99fc4648ff97bc5d7fedac03c1ae35d2d754653274db078ad0da88af131"


@pytest.mark.pinned
def test_group_law_sums_are_pinned_every_t_gf16():
    # sha256 pinned from the two-stage closed form, which composed a degree-4
    # U and then reduced it in a second step, before the one-step closed form:
    # every ordered pair of 20 random_class draws over GF(2^8), for every t
    # in GF(16) minus {0, 1}
    f16, f256 = default_field(4), default_field(8)
    digest = hashlib.sha256()
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        rng = random.Random(tm)
        classes = [random_class(c, f256, rng) for _ in range(20)]
        for a in classes:
            for b in classes:
                digest.update(repr((a + b).key()).encode())
    assert digest.hexdigest() == "35bfc67db0703f18800d6d5d814f3eceb439d2cae836df7af6e617115de93dc7"


@pytest.mark.pinned
def test_sums_with_a_point_are_pinned_every_t_gf16():
    # sha256 pinned from the chord and tangent route and the general Cantor
    # composition, before one closed form took every coprime sum and every
    # doubling off the roots of h: over GF(2^8), for every t in GF(16) minus
    # {0, 1}, every sum of two of 20 points (the doublings included), and
    # every sum of one of them with one of 20 random_class draws, both ways
    f16, f256 = default_field(4), default_field(8)
    digest = hashlib.sha256()
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        points = [_point_class(p) for p in c.points_over(f256)[1::9][:20]]
        rng = random.Random(tm)
        classes = [random_class(c, f256, rng) for _ in range(20)]
        for a in points:
            for b in points:
                digest.update(repr((a + b).key()).encode())
            for b in classes:
                digest.update(repr(((a + b).key(), (b + a).key())).encode())
    assert digest.hexdigest() == "b558914c09932ed4c04afe3321bee7781020237f5016dc64ede1de30b0192c93"


def test_the_cofactor_is_the_mumford_quotient_gf16():
    # every class keeps (v^2 + v h + f) / u, which is f for the identity
    c, f16 = laszlo_curve(), default_field(4)
    exp, log = f16.tables()
    h, f = c.equation_masks(f16)
    hp, fp = c.equation_polys(f16)
    classes = enumerate_classes(c, f16)
    assert classes[0].cofactor == list(f)
    for a in classes:
        assert a.cofactor == divmod_masks(f16, _mumford(exp, log, h, f, a.v), a.u)[0], a
        u, v, k = (Poly.from_masks(f16, m) for m in (a.u, a.v, a.cofactor))
        assert u * k == v * v + v * hp + fp, a


def _mumford_reference(curve, field, u, v):
    """(quotient, remainder) of v^2 + v h + f by u, by `_mumford` and
    `divmod_masks`."""
    exp, log = field.tables()
    h, f = curve.equation_masks(field)
    return divmod_masks(field, _mumford(exp, log, h, f, v), u)


@pytest.mark.pinned
def test_straight_line_sums_match_the_cantor_route(monkeypatch):
    # every degree-2 class of J(GF(16)) doubled and a fixed slice of its
    # pairs, for every t in GF(16) minus {0, 1}, then 500 seeded pairs and
    # their doublings over GF(2^12) on the reference curve: each sum is the
    # Cantor route's, and each class's cofactor is the Mumford quotient.  A
    # twist X(n) of t has the (h, f) of X(0) of t^(2^n), one of these t
    import frobfix.jacobian as jacobian_module

    f16 = default_field(4)
    cases = []
    for tm in range(2, 16):
        quadratic = [a for a in enumerate_classes(Curve(f16, f16.element(tm)), f16) if len(a.u) == 3]
        cases += [(a, a) for a in quadratic]
        cases += [(a, b) for a in quadratic[::23] for b in quadratic[5::17]]
    cases += _seeded_pairs_gf4096()
    slopes = []
    solve = jacobian_module._slope_mod_quadratic

    def spy(*args):
        s = solve(*args)
        slopes.append(s is not None)
        return s

    monkeypatch.setattr(jacobian_module, "_slope_mod_quadratic", spy)
    for a, b in cases:
        s = a + b
        assert s.key() == _poly_route_sum(a, b), (a, b)
        for c in (a, s):
            quo, rem = _mumford_reference(c.curve, c.field, c.u, c.v)
            assert c.cofactor == quo and not any(rem), c
    # 36 sums are opposite pairs or share u with v1 != v2 and solve no
    # slope; 681 slopes meet r and w at a common root and take the split;
    # the other 6809 sums ran the written-out reduction
    assert (len(cases), len(slopes), sum(slopes)) == (7526, 7490, 6809)


def test_mumford_check_catches_a_flipped_bit_of_v_gf16():
    # every single-bit change of v in a degree-2 class over GF(16), fed to
    # the written-out Mumford check: it raises exactly when _mumford and
    # divmod_masks leave a remainder, and else keeps their quotient
    c, f16 = laszlo_curve(), default_field(4)
    caught = 0
    for a in enumerate_classes(c, f16):
        if len(a.u) < 3:
            continue
        for i in range(2):
            for bit in range(f16.degree):
                v = list(a.v + (0, 0))[:2]
                v[i] ^= 1 << bit
                while v and not v[-1]:
                    v.pop()
                quo, rem = _mumford_reference(c, f16, a.u, tuple(v))
                if any(rem):
                    with pytest.raises(ValueError) as exc:
                        JacobianClass(c, f16, a.u, tuple(v))
                    assert exc.type is ValueError
                    assert str(exc.value) == "Mumford condition u | v^2 + v h + f fails"
                    caught += 1
                else:
                    assert JacobianClass(c, f16, a.u, tuple(v)).cofactor == quo
    assert caught == 4340


def test_a_retagged_class_sums_like_its_source():
    c, f16 = laszlo_curve(), default_field(4)
    classes = enumerate_classes(c, f16)[1::7]
    for a in classes:
        twin = a.retag(laszlo_curve())
        assert twin.curve is not a.curve and twin.cofactor == a.cofactor
        assert (twin + twin).key() == (a + a).key(), a
        for b in classes:
            assert (twin + b).key() == (a + b).key(), (a, b)
            assert (b + twin).key() == (b + a).key(), (a, b)


def test_a_sum_over_two_fields_raises_until_lifted():
    # no implicit lift to a compositum: a class over GF(16) plus one over
    # GF(2^8) is refused, both ways, and sums once lifted by hand
    c, f16, f256 = laszlo_curve(), default_field(4), default_field(8)
    rng = random.Random(27)
    for _ in range(5):
        a, b = random_class(c, f16, rng), random_class(c, f256, rng)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(FieldMismatchError) as exc:
                x + y
            assert exc.type is FieldMismatchError
            assert str(exc.value) == "classes over different fields: lift both to one field first"
        s = a.lift(f256) + b
        assert s.field == f256
        assert s.equals(oracle_class_of(a.to_divisor() + b.to_divisor()))


def test_mul_int_matches_repeated_addition():
    c = laszlo_curve()
    f16 = default_field(4)
    classes = enumerate_classes(c, f16)
    degree_one = next(a for a in classes if len(a.u) == 2 and not a.mul_int(2).is_identity())
    root_of_h = next(a for a in classes if len(a.u) == 3 and a.u[0] == 0)
    picked = [classes[0], degree_one, root_of_h, random_class(c, f16, random.Random(7))]
    picked += two_torsion(c, f16)[1:]  # u | h
    ks = list(range(-5, 41)) + [(1 << m) + e for m in (6, 7, 8) for e in (-1, 0, 1)]
    for a in picked:
        multiples = {0: JacobianClass.identity(c, f16)}
        for sign, step in ((1, a), (-1, a.neg())):
            acc = multiples[0]
            for j in range(1, max(ks) + 1):
                acc = acc + step
                multiples[sign * j] = acc
        for k in ks:
            assert a.mul_int(k).key() == multiples[k].key(), k


def test_mul_int_takes_integers_alone():
    # int and bool are integers; a float or a string is a TypeError, not an
    # AttributeError from deep inside the digit expansion
    a = random_class(laszlo_curve(), default_field(4), random.Random(7))
    assert a.mul_int(True).key() == a.key() and a.mul_int(False).is_identity()
    for k in (2.0, 1.5, "2", None):
        with pytest.raises(TypeError):
            a.mul_int(k)


def _binary_sums(n):
    return n.bit_length() + bin(n).count("1") - 2 if n else 0


def _double_and_add(a, k):
    """The tests' reference for k a: double-and-add on a or on -a."""
    acc, base = JacobianClass.identity(a.curve, a.field), a.neg() if k < 0 else a
    for bit in bin(abs(k))[:1:-1]:
        if bit == "1":
            acc = acc + base
        base = base + base
    return acc


def _curve_over_gf16():
    f16 = default_field(4)
    return Curve(f16, f16.element(6))  # a = -7: L = (1 + 7 T + 16 T^2)^2


def test_mul_int_makes_no_wasted_sum(monkeypatch):
    # double-and-add: no sum with the identity at the first set bit, no
    # doubling after the top bit; the pi route: the relation check's d
    # doublings to q P, the sums of |a| pi P and one more, one sum per further
    # set bit of each distinct |digit|, one per nonzero digit after the top
    # one; the route taken never makes more sums than double-and-add
    add = JacobianClass.__add__
    sums = []
    monkeypatch.setattr(JacobianClass, "__add__", lambda x, y: sums.append(1) or add(x, y))
    routes = set()
    for c, field in ((laszlo_curve(), default_field(4)), (_curve_over_gf16(), default_field(8))):
        a = random_class(c, field, random.Random(7))
        d, trace = c.field.degree, lpolynomial(c)[0] // 2
        for k in (0, 1, 2, 3, 5, 12, 23104, -3, -23104, 3 ** 40, (1 << 64) + 1):
            sums.clear()
            a.mul_int(k)
            binary = _binary_sums(abs(k))
            digits = _pi_adic_digits(k, trace, c.field.order, field.degree // d)
            nonzero = [x for x in digits if x]
            multiples = sum(bin(x).count("1") - 1 for x in {abs(x) for x in nonzero})
            pi = d + _binary_sums(abs(trace)) + 1 + multiples + max(len(nonzero) - 1, 0)
            route = "pi" if binary > d + 1 and pi < binary else "binary"
            routes.add((c.field.degree, route))
            assert len(sums) == (pi if route == "pi" else binary), k
            assert len(sums) <= binary, k
    assert routes == {(2, "binary"), (2, "pi"), (4, "binary"), (4, "pi")}


def _mul_int_case(name):
    """(classes, #J) of one case of the pi-route cross-check."""
    if name == "gf256-over-gf16":
        c, field, rng = _curve_over_gf16(), default_field(8), random.Random(5)
        return [random_class(c, field, rng) for _ in range(12)], group_order(c, field)
    c, field = laszlo_curve(), default_field(4 if name == "gf16-every-class" else 2)
    return enumerate_classes(c, field), group_order(c, field)


@pytest.mark.parametrize("name", ["gf16-every-class", "base-field", "gf256-over-gf16"])
def test_mul_int_pi_route_matches_double_and_add(monkeypatch, name):
    classes, order = _mul_int_case(name)
    curve, field = classes[0].curve, classes[0].field
    q, m = curve.field.order, field.degree // curve.field.degree
    ks = [0, 1, -1, 2, -2, 3, -3, q * q, order - 1, order, order + 1,
          (1 << 64) - 1, -(1 << 63) - 12345, 0xDEADBEEFCAFEF00D]
    trace = lpolynomial(curve)[0] // 2
    top = max(abs(x) for k in ks for x in _pi_adic_digits(k, trace, q, m))
    assert top == q // 2  # the digits reach +-q/2: +-2, or +-8 over GF(16)
    taken = []
    by_digits = JacobianClass._mul_by_digits
    monkeypatch.setattr(JacobianClass, "_mul_by_digits", lambda *args: taken.append(1) or by_digits(*args))
    for a in classes:
        for k in ks:
            # the reference reads a k past #J modulo #J, which kills every class
            reference = _double_and_add(a, k if abs(k) <= order else k % order)
            assert a.mul_int(k).key() == reference.key(), (a, k)
    assert taken


def test_pi_adic_digits_sum_back_to_k():
    # pure integers: for every q, |a| < 2 sqrt(q) and m, the digits lie in
    # [-q/2, q/2], number at most m + 2, and k - sum d_i pi^i is a multiple
    # of pi^m - 1 in Z[pi], pi^2 = a pi - q
    rng = random.Random(11)
    ks = list(range(-20, 21)) + [rng.getrandbits(64) - (1 << 63) for _ in range(12)]
    for q in (4, 16, 64, 256):
        bound = math.isqrt(4 * q - 1)  # |a| < 2 sqrt(q)
        for a in range(-bound, bound + 1):
            for m in range(1, 13):
                p0, p1 = 1, 0  # pi^m = p0 + p1 pi
                for _ in range(m):
                    p0, p1 = -q * p1, p0 + a * p1
                b0, b1 = p0 - 1, p1  # pi^m - 1
                n = b0 * b0 + a * b0 * b1 + q * b1 * b1
                c0, c1 = b0 + a * b1, -b1  # the conjugate of pi^m - 1
                for k in ks + [n - 1, n, n + 1]:
                    digits = _pi_adic_digits(k, a, q, m)
                    assert len(digits) <= m + 2 and all(abs(x) <= q // 2 for x in digits), (q, a, m, k)
                    x0, x1 = k, 0
                    for i, x in enumerate(digits):
                        e0, e1 = 1, 0
                        for _ in range(i):
                            e0, e1 = -q * e1, e0 + a * e1
                        x0, x1 = x0 - x * e0, x1 - x * e1
                    # (x0 + x1 pi) / (pi^m - 1) = (x0 + x1 pi) conj / n
                    assert (x0 * c0 - q * x1 * c1) % n == 0 and (x0 * c1 + x1 * c0 + a * x1 * c1) % n == 0


def test_frobenius_is_an_endomorphism_with_the_relation():
    # pi is additive, pi^m fixes J(GF(q^m)), and pi^2 - a pi + q = 0 on every class
    c, f16 = laszlo_curve(), default_field(4)
    classes = enumerate_classes(c, f16)
    trace = lpolynomial(c)[0] // 2
    rng = random.Random(3)
    for a in classes:
        b = rng.choice(classes)
        assert frobenius(a + b).key() == (frobenius(a) + frobenius(b)).key()
        assert frobenius(frobenius(a)).key() == a.key()
        lhs = frobenius(frobenius(a)) + _double_and_add(a, 4)
        assert lhs.key() == _double_and_add(frobenius(a), trace).key()
    points = [p for p in c.points_over(f16) if not p.is_infinity()]
    for p in points:
        image = JacobianClass(c, f16, (f16.pow_mask(p.x.mask, 4), 1), _trim([f16.pow_mask(p.y.mask, 4)]))
        assert frobenius(_point_class(p)).key() == image.key()


def test_mul_int_past_the_degree_cap_takes_double_and_add():
    import frobfix.jacobian as jacobian_module

    f512 = default_field(9)
    c = Curve(f512, f512.gen())
    a = random_class(c, f512, random.Random(1))
    k = (1 << 64) + 3
    assert a.mul_int(k).key() == _double_and_add(a, k).key()
    assert jacobian_module._frobenius_trace_cache[(c.field, c.effective_t)] is None


def test_mul_int_catches_a_frobenius_trace_off_by_two(monkeypatch):
    import frobfix.jacobian as jacobian_module

    c = laszlo_curve()
    a = random_class(c, default_field(8), random.Random(3))
    key, off_by_two = (c.field, c.effective_t), lpolynomial(c)[0] // 2 + 2
    monkeypatch.setitem(jacobian_module._frobenius_trace_cache, key, off_by_two)
    with pytest.raises(InconsistencyError) as exc:
        a.mul_int((1 << 64) + 1)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "class fails the Frobenius relation pi^2 - a pi + q = 0"


def test_identity_with_a_nonzero_v_is_rejected():
    c = laszlo_curve()
    with pytest.raises(ValueError) as exc:
        JacobianClass(c, c.field, (1,), (1,))
    assert exc.type is ValueError
    assert str(exc.value) == "v must have degree < deg u"


@pytest.mark.parametrize("u, v, message", [
    ((4, 1), (), "coefficient mask out of range for GF(2^2; 0x7)"),  # log[4] is past GF(4)'s table
    ((0, 1), (9,), "coefficient mask out of range for GF(2^2; 0x7)"),
    ((), (), "u must be monic"),
    ((1, 2), (), "u must be monic"),
    ((1, 0, 0, 1), (), "not reduced: deg u > 2"),
    ((0, 1), (1, 1), "v must have degree < deg u"),
    ((0, 0, 1), (1, 0), "v must be trimmed"),
    ((0, 1), (1,), "Mumford condition u | v^2 + v h + f fails"),  # 1 + h(0) + f(0) = 1
    ((0, 0, 1), (1,), "Mumford condition u | v^2 + v h + f fails"),  # 1 + h + f = 1 + x mod x^2
])
def test_jacobian_class_rejects_a_malformed_pair(u, v, message):
    c = laszlo_curve()
    with pytest.raises(ValueError) as exc:
        JacobianClass(c, c.field, u, v)
    assert exc.type is ValueError
    assert str(exc.value) == message


def _degree_one_divisor(c):
    return FormalDivisor(c, [(c.infinity(), 1)])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda c: JacobianClass(c, default_field(3), (1,), ()), FieldMismatchError,
                 "class field does not contain the curve base field", id="class-field"),
    pytest.param(lambda c: JacobianClass.identity(c, c.field).retag(Curve(c.field, c.field.element(3))),
                 ValueError, "retag requires an identical curve model", id="retag"),
    pytest.param(lambda c: JacobianClass.identity(c, c.field) + JacobianClass.identity(
                     Curve(c.field, c.field.element(3)), c.field),
                 FieldMismatchError, "classes on different curve models", id="sum-models"),
    pytest.param(lambda c: class_of(_degree_one_divisor(c)), ValueError,
                 "divisor must have degree 0", id="class_of"),
    pytest.param(lambda c: oracle_class_of(_degree_one_divisor(c)), ValueError,
                 "divisor must have degree 0", id="oracle_class_of"),
    pytest.param(lambda c: principal_witness(_degree_one_divisor(c)), ValueError,
                 "divisor must have degree 0", id="principal_witness"),
    pytest.param(lambda c: group_order(c, default_field(3)), FieldMismatchError,
                 "field is not an extension of the curve base field", id="group_order"),
    pytest.param(lambda c: frobenius_pullback(JacobianClass.identity(c, c.field)), ValueError,
                 "pullback target needs twist index >= 1; retag first", id="pullback"),
])
def test_jacobian_entry_points_reject_a_bad_argument(call, error, message):
    # a class over GF(8) does not contain the reference curve's GF(4), a
    # retag or a sum needs one model, a class needs a divisor of degree 0,
    # and X(0) has no Frobenius preimage
    with pytest.raises(error) as exc:
        call(laszlo_curve())
    assert exc.type is error
    assert str(exc.value) == message


# (degree of the curve's base field, mask of t, degree of the class field,
# pairs): the reference curve t = w over GF(2^6) and GF(2^8), and every t in
# GF(16) minus {0, 1} over GF(16) and over GF(2^8)
ORACLE_CASES = (
    [(2, 2, 6, 30), (2, 2, 8, 30)]
    + [(4, tm, 4, 5) for tm in range(2, 16)]
    + [(4, tm, 8, 3) for tm in range(2, 16)]
)


@pytest.mark.parametrize(
    "base_degree, t_mask, degree, pairs",
    ORACLE_CASES,
    ids=[f"t{tm}-gf{1 << b}-over-gf{1 << d}" for b, tm, d, _ in ORACLE_CASES],
)
def test_cantor_vs_oracle_beyond_gf16(base_degree, t_mask, degree, pairs):
    base = default_field(base_degree)
    c = Curve(base, base.element(t_mask))
    field = default_field(degree)
    rng = random.Random(16 * degree + t_mask)
    for _ in range(pairs):
        a = random_class(c, field, rng)
        b = random_class(c, field, rng)
        assert (a + b).equals(oracle_class_of(a.to_divisor() + b.to_divisor()))


def test_hash_agrees_with_cross_field_equality():
    c = laszlo_curve()
    classes = enumerate_classes(c, c.field)
    lifted = [cl.lift(default_field(4)) for cl in classes]
    for cl, up in zip(classes, lifted):
        assert cl == up and hash(cl) == hash(up)
    assert len(set(classes) | set(lifted)) == len(classes) == 16


def test_hash_spreads_and_survives_a_lift_gf64():
    # the hash keeps the multiplicative order of each coefficient, which an
    # embedding preserves; the degree of u alone gave J(GF(64)) 3 hashes
    c, f64, f4096 = laszlo_curve(), default_field(6), default_field(12)
    classes = enumerate_classes(c, f64)
    assert len(classes) == 5776
    for cl in classes:
        up = cl.lift(f4096)
        assert cl == up and hash(cl) == hash(up)
    assert len({hash(cl) for cl in classes}) > 100


def test_equality_across_fields_past_the_compositum_cap():
    # GF(2^10) and GF(2^12) meet in GF(4), and their compositum GF(2^60) is
    # above the cap: equal classes have their coefficients in GF(4)
    c, f1024, f4096 = laszlo_curve(), default_field(10), default_field(12)
    assert JacobianClass.identity(c, f1024) == JacobianClass.identity(c, f4096)
    base = enumerate_classes(c, c.field)
    for cl in base:
        assert cl.lift(f1024) == cl.lift(f4096) and cl.lift(f4096) == cl.lift(f1024)
    rng = random.Random(10)
    outside = random_class(c, f1024, rng)
    below = embed(c.field, f1024)
    assert any(below.preimage(f1024.element(m)) is None for m in outside.u + outside.v)
    others = [cl.lift(f4096) for cl in base] + [random_class(c, f4096, rng) for _ in range(20)]
    for other in others:
        assert outside != other and other != outside


def test_associativity_commutativity_random():
    c = laszlo_curve()
    f16 = default_field(4)
    rng = random.Random(102)
    for _ in range(100):
        a, b, d = (random_class(c, f16, rng) for _ in range(3))
        assert ((a + b) + d).equals(a + (b + d))
        assert (a + b).equals(b + a)
        assert (a - b).key() == (a + b.neg()).key() and (a - a).is_identity()


def test_class_of_examples():
    c = laszlo_curve()
    f16 = default_field(4)
    assert class_of(FormalDivisor(c, [])).is_identity()
    p = next(q for q in c.points_over(f16) if not q.is_infinity() and not q.is_weierstrass())
    D = FormalDivisor(c, [(p, 1), (p.hyperelliptic_involution(), 1), (c.infinity(), -2)])
    assert class_of(D).is_identity()
    # X(2) is X(0)'s model over GF(4): a divisor on it of X(0)'s points
    # gives X(0)'s class, tagged with X(2)
    q = next(q for q in c.points_over(f16) if q.x != p.x and not q.is_weierstrass())
    for entries in ([(p, 1)], [(p, 1), (q, 2)]):
        entries.append((c.infinity(), -sum(m for _, m in entries)))
        c2 = c.twist(2)
        image = class_of(FormalDivisor(c2, entries))
        assert image.curve is c2 and image.key() == class_of(FormalDivisor(c, entries)).key()


def test_sigma_fixed_difference_has_order_three():
    c = laszlo_curve()
    f16 = default_field(4)
    qs = sigma_fixed_points(c, f16)
    assert len(qs) == 4
    for q in qs:
        tq = tau01_image(c, q)
        cl = class_of(FormalDivisor(c, [(q, 1), (tq, -1)]))
        assert not cl.is_identity()
        assert cl.mul_int(3).is_identity()


def test_formal_divisor_holds_mask_pairs_over_one_field():
    # points over GF(4) and GF(16), one of them given over both: the divisor
    # lands over GF(16), with that point merged and its masks those of its
    # lift, and infinity kept apart
    c, f16 = laszlo_curve(), default_field(4)
    p = next(q for q in c.points_over(c.field)[1:] if q.y.mask > 1)
    lifted = p.lift(f16)
    assert (lifted.x.mask, lifted.y.mask) != (p.x.mask, p.y.mask)
    q = next(q for q in c.points_over(f16)[1:] if q.x.mask > 3)
    D = FormalDivisor(c, [(p, 1), (q, 2), (c.infinity(), -4), (lifted, 1)])
    assert D.field == f16 and D.inf == -4 and D.degree() == 0
    assert D.entries == (((lifted.x.mask, lifted.y.mask), 2), ((q.x.mask, q.y.mask), 2))
    same = FormalDivisor(c, [(lifted, 2), (q, 2), (c.infinity(), -4)])
    assert class_of(D).key() == class_of(same).key()
    assert FormalDivisor(c, [(p, 1), (lifted, -1)]).entries == ()


def test_to_divisor_is_the_divisor_of_the_support():
    # the divisor built from the support's masks is the one the public
    # constructor builds from its CurvePoints: same field, affine entries
    # and multiplicity at infinity, on every class of J(GF(16)) and on 50
    # draws over GF(2^8), some of whose supports split only over GF(2^16)
    f16, f256 = default_field(4), default_field(8)
    c, rng = laszlo_curve(), random.Random(107)
    classes = enumerate_classes(c, f16) + [random_class(c, f256, rng) for _ in range(50)]
    fields = []
    for a in classes:
        support, _ = a.support()
        ref = FormalDivisor(c, support + [(c.infinity(), -sum(m for _, m in support))])
        got = a.to_divisor()
        assert (got.field, got.entries, got.inf) == (ref.field, ref.entries, ref.inf), a
        fields.append(got.field.degree)
    assert fields.count(16) > 5 and fields.count(8) > 5, fields


def test_divisor_sums_join_their_fields():
    # a divisor over GF(2^8) plus one over GF(2^16) lies over GF(2^16), with
    # the first one's masks carried by the embedding; a divisor on another
    # curve model does not add
    f256, f65536 = default_field(8), default_field(16)
    c, rng = laszlo_curve(), random.Random(108)
    draws = [random_class(c, f256, rng) for _ in range(20)]
    a = next(d for d in draws if d.to_divisor().field == f256)
    b = next(d for d in draws if d.to_divisor().field == f65536)
    total = a.to_divisor() + b.to_divisor()
    points = a.support()[0] + b.support()[0]
    ref = FormalDivisor(c, points + [(c.infinity(), -sum(m for _, m in points))])
    assert total.field == f65536 and (total.entries, total.inf) == (ref.entries, ref.inf)
    other = Curve(c.field, c.field.element(3))
    with pytest.raises(FieldMismatchError) as exc:
        total + random_class(other, f256, rng).to_divisor()
    assert str(exc.value) == "divisor point on a different curve model"


def test_a_divisor_sum_maps_only_the_masks_of_a_smaller_field(monkeypatch):
    # one field per degree, so a divisor joined with its own field is not
    # mapped: a same-field sum makes no image_mask call, a mixed one maps
    # the x and y of each entry of the divisor over GF(2^8) once, and either
    # has the entries and infinity of the public constructor's divisor
    from frobfix.gf2 import FieldEmbedding

    f256 = default_field(8)
    c, rng = laszlo_curve(), random.Random(108)
    draws = [random_class(c, f256, rng) for _ in range(20)]
    real, mapped = FieldEmbedding.image_mask, []
    monkeypatch.setattr(FieldEmbedding, "image_mask", lambda self, m: mapped.append(m) or real(self, m))
    same = 0
    for a, b in zip(draws, draws[1:]):
        x, y = a.to_divisor(), b.to_divisor()
        points = a.support()[0] + b.support()[0]
        ref = FormalDivisor(c, points + [(c.infinity(), -sum(m for _, m in points))])
        mapped.clear()
        total = x + y
        assert (total.field, total.entries, total.inf) == (ref.field, ref.entries, ref.inf)
        assert len(mapped) == sum(2 * len(d.entries) for d in (x, y) if d.field is not total.field)
        same += x.field is y.field
    assert 5 < same < 19


def test_support_roundtrip():
    c = laszlo_curve()
    f16 = default_field(4)
    rng = random.Random(103)
    for _ in range(50):
        a = random_class(c, f16, rng)
        assert class_of(a.to_divisor()).equals(a)


def _poly_route_support(cls):
    """The support by the boxed route: the roots of u from solve_quadratic,
    each y from Poly.evaluate of v carried to the roots' field."""
    curve, field = cls.curve, cls.field
    u, v = Poly.from_masks(field, cls.u), Poly.from_masks(field, cls.v)
    if u.degree == 0:
        return [], field
    if u.degree == 1:
        return [(curve.point(u[0], v.evaluate(u[0])), 1)], field
    roots, field, emb = solve_quadratic(u)
    v = v.map(emb)
    if roots[0] == roots[1]:
        return [(curve.point(roots[0], v.evaluate(roots[0])), 2)], field
    return [(curve.point(r, v.evaluate(r)), 1) for r in roots], field


def test_support_matches_the_poly_route():
    # points, multiplicities, their order and the field, on every class of
    # J(GF(16)) for t = w and t = 11 over GF(16), on u = (x + r)^2 over
    # GF(2^8), and on 500 draws over GF(2^8), most of whose supports split
    # only over GF(2^16)
    f16, f256 = default_field(4), default_field(8)
    curves = (laszlo_curve(), Curve(f16, f16.element(11)))
    classes = [cl for c in curves for cl in enumerate_classes(c, f16)]
    c, rng = curves[0], random.Random(104)
    points = [p for p in c.points_over(f256)[1:] if not p.is_weierstrass()]
    doubles = [_point_class(p).mul_int(2) for p in rng.sample(points, 40)]
    draws = [random_class(c, f256, rng) for _ in range(500)]
    for cl in classes + doubles + draws:
        got, field = cl.support()
        ref, ref_field = _poly_route_support(cl)
        assert field == ref_field and field.degree == ref_field.degree, cl
        assert [(p.x, p.y, p.field.degree, m) for p, m in got] == [
            (p.x, p.y, p.field.degree, m) for p, m in ref
        ], cl
    assert sum(len(cl.u) == 3 and len(cl.support()[0]) == 1 for cl in classes) == 40
    assert all(cl.support()[0][0][1] == 2 for cl in doubles)
    lifted = sum(cl.support()[1] == default_field(16) for cl in draws)
    assert 100 < lifted < 400, lifted  # 360: both fields are well covered


def test_principal_witness_iff_identity_class():
    # 30 random divisors, then supp(A) + supp(-A) for 6 random classes A,
    # principal by construction with every point positive, so chi = 1 and
    # the vanishing of psi is read at each of them
    c = laszlo_curve()
    f16 = default_field(4)
    rng = random.Random(104)
    pts = [p for p in c.points_over(f16) if not p.is_infinity()]
    divisors = []
    for _ in range(30):
        support = [(rng.choice(pts), rng.choice([1, -1])) for _ in range(rng.choice([2, 3]))]
        deg = sum(m for _, m in support)
        divisors.append(FormalDivisor(c, support + [(c.infinity(), -deg)]))
    classes = [random_class(c, f16, rng) for _ in range(6)]
    divisors += [a.to_divisor() + a.neg().to_divisor() for a in classes]
    reads = 0
    for D in divisors:
        witness = principal_witness(D)
        is_prin = class_of(D).is_identity()
        assert (witness is not None) == is_prin
        if witness is not None:
            # the witness psi/chi vanishes on the positive affine part,
            # wherever chi does not
            for (x, y), m in D.entries:
                if m > 0 and evaluate_masks(*D.field.tables(), witness.chi, x):
                    assert witness.num._value_mask((x, y))[0] == 0
                    reads += 1
    assert reads >= sum(len(D.entries) for D in divisors[30:]) > 0


def test_principal_witness_for_triple_difference():
    c = laszlo_curve()
    f16 = default_field(4)
    for q in sigma_fixed_points(c, f16):
        tq = tau01_image(c, q)
        D = FormalDivisor(c, [(q, 3), (tq, -3)])
        w = principal_witness(D)
        assert w is not None
        assert w.rr_pole_bound == 6
        assert w.num.ord_at((q.x.mask, q.y.mask)) == 3  # a mask pair, as the oracle reads points


def test_frobenius_pullback_identity_and_homomorphism():
    c = laszlo_curve()
    f16 = default_field(4)
    c1 = c.twist(1)
    rng = random.Random(105)
    ident1 = JacobianClass.identity(c1, f16)
    assert frobenius_pullback(ident1).is_identity()
    from frobfix.gf2 import join_fields

    for _ in range(25):
        a = random_class(c1, f16, rng)
        b = random_class(c1, f16, rng)
        lhs = frobenius_pullback(a + b)
        fa, fb = frobenius_pullback(a), frobenius_pullback(b)
        fld, _, _ = join_fields(fa.field, fb.field)
        rhs = fa.lift(fld) + fb.lift(fld)
        assert lhs.equals(rhs)


def test_frobenius_pullback_of_sigma_difference():
    # pullback of [Q1 - tau(Q1)] on X(1) equals [2Q - 2 tau(Q)] on X(0)
    c = laszlo_curve()
    f16 = default_field(4)
    c1 = c.twist(1)
    q1 = sigma_fixed_points(c1, f16)[0]
    tq1 = tau01_image(c1, q1)
    cl1 = class_of(FormalDivisor(c1, [(q1, 1), (tq1, -1)]))
    pulled = frobenius_pullback(cl1)
    q = q1.frobenius_preimage()
    tq = tq1.frobenius_preimage()
    doubled = class_of(FormalDivisor(c, [(q, 2), (tq, -2)]))
    assert pulled.equals(doubled)


def _pullback_through_support(cls):
    """F* by points: the square-root point of each support point, doubled,
    on the previous twist, over the field where the support splits."""
    support, _ = cls.support()
    target = cls.curve.twist(cls.curve.n - 1)
    entries = [(p.frobenius_preimage(), 2 * m) for p, m in support]
    deg = sum(m for _, m in entries)
    return class_of(FormalDivisor(target, entries + [(target.infinity(), -deg)]))


def _splits(cls):
    """Whether the support of cls lies over cls.field."""
    return len(cls.u) < 3 or bool(quadratic_root_masks(cls.field, cls.u[1], cls.u[0]))


@pytest.mark.parametrize("t_degree, tm", [(2, 2), (2, 3), (4, 2), (4, 11)])
def test_frobenius_pullback_matches_the_route_through_points(t_degree, tm):
    # every class over the base field on X(1), then random classes on X(1)
    # and X(2) over fields of degree d, 2d and 3d; over GF(2^12) the support
    # of an irreducible u splits only above the field cap, so those are skipped
    base = default_field(t_degree)
    c = Curve(base, base.element(tm))
    rng = random.Random(17 * tm + t_degree)
    cases = list(enumerate_classes(c.twist(1), base))
    for k in (1, 2, 3):
        field = default_field(k * t_degree)
        cases += [random_class(c.twist(n), field, rng) for n in (1, 2) for _ in range(4)]
    checked = 0
    for cls in cases:
        pulled = frobenius_pullback(cls)
        assert pulled.curve == cls.curve.twist(cls.curve.n - 1)
        assert pulled.field == cls.field
        if cls.field.degree < 12 or _splits(cls):
            assert pulled.equals(_pullback_through_support(cls))
            checked += 1
    assert checked >= len(cases) - 8  # only the 8 random classes over GF(2^12) may skip


def test_two_torsion_is_rank_two():
    c = laszlo_curve()
    for fld in (default_field(2), default_field(4), default_field(12)):
        cls = two_torsion(c, fld)
        assert len(cls) == 4
        for t2 in cls:
            assert t2.mul_int(2).is_identity()


def test_sylow_subgroup_is_brute_force_three_part_gf16():
    c = laszlo_curve()
    f16 = default_field(4)
    syl = sylow_subgroup(c, f16, 3)
    expected = {x.key() for x in enumerate_classes(c, f16) if x.mul_int(9).is_identity()}
    assert len(expected) == 9
    assert {x.key() for x in syl} == expected
    assert [x.key() for x in sylow_subgroup(c, f16, 3)] == [x.key() for x in syl]


@pytest.mark.parametrize(
    "search, arg, message",
    [pytest.param("sylow", r, f"Sylow subgroup needs a prime r, got {r}", id=f"r={r}")
     for r in (-3, 0, 1, 4, 6)]
    + [pytest.param("torsion", k, f"torsion search bound needs k >= 1, got {k}", id=f"k={k}")
       for k in (0, -1)]
    + [pytest.param("torsion", k, "torsion search bound capped at k <= 6", id=f"k={k}") for k in (7, 12)]
    + [pytest.param("torsion-r", r, "torsion search supports r in {2, 3}", id=f"torsion-r={r}")
       for r in (1, 5)],
)
def test_torsion_searches_reject_a_bad_argument(monkeypatch, search, arg, message):
    # unchecked, r = 1 never reaches its target order, r = 0 divides by zero,
    # r = 4 returns the 2-part and k < 1 searches no field at all; the check
    # must come before any group order, so a missing one fails, not hangs
    import frobfix.jacobian as jacobian_module

    def no_order(*args):
        raise AssertionError("group order computed before the argument check")

    monkeypatch.setattr(jacobian_module, "group_order", no_order)
    c = laszlo_curve()
    with pytest.raises(ValueError) as exc:
        if search == "sylow":
            sylow_subgroup(c, default_field(4), arg)
        elif search == "torsion":
            torsion_subgroup(c, 3, arg)
        else:
            torsion_subgroup(c, arg, 1)
    assert exc.type is ValueError
    assert str(exc.value) == message


def test_sylow_subgroup_refuses_an_order_past_its_enumeration_bound():
    # #J(GF(2^10)) of the reference curve is 964^2 = 2^4 241^2: its
    # Sylow-241 subgroup has 241^2 = 58081 > 3^9 classes
    with pytest.raises(SearchExhaustedError) as exc:
        sylow_subgroup(laszlo_curve(), default_field(10), 241)
    assert exc.type is SearchExhaustedError
    assert str(exc.value) == "Sylow-241 subgroup too large to enumerate (58081)"


def test_sylow_subgroup_catches_a_walk_that_runs_out(monkeypatch):
    # the degree-2 classes generate J, so no curve runs the walk dry: a walk
    # cut after its first class stands in for one that would, its multiple
    # generating 3 of the 9 classes of the Sylow-3 subgroup over GF(16)
    import frobfix.jacobian as jacobian_module

    walk = jacobian_module._degree_two_classes
    monkeypatch.setattr(jacobian_module, "_degree_two_classes", lambda *args: iter(list(walk(*args))[:1]))
    with pytest.raises(SearchExhaustedError) as exc:
        sylow_subgroup(laszlo_curve(), default_field(4), 3)
    assert exc.type is SearchExhaustedError
    assert str(exc.value) == "Sylow-3 generation incomplete: 3 of 9"


def test_enumeration_lists_every_counted_class(monkeypatch):
    import frobfix.jacobian as jacobian_module

    f4, f16 = default_field(2), default_field(4)
    cases = [(Curve(f4, f4.gen()), default_field(d)) for d in (2, 4, 6)]
    cases += [(Curve(f16, f16.element(tm)), f16) for tm in range(2, 16)]
    for c, fld in cases:
        assert len(enumerate_classes(c, fld)) == count_classes(c, fld)

    # over GF(2^12) the walk would make 2^24 Mumford solves: the cap must
    # come first, so a missing one fails instead of running for hours
    def no_walk(*args):
        raise AssertionError("Mumford walk started over a field above the cap")

    monkeypatch.setattr(jacobian_module, "_solvable_quadratics", no_walk)
    for walk in (enumerate_classes, count_classes):
        with pytest.raises(DegreeCapError) as exc:
            walk(laszlo_curve(), default_field(12))
        assert str(exc.value) == "class enumeration is for #field <= 64"


def test_torsion_subgroup_two():
    c = laszlo_curve()
    classes, j, counts = torsion_subgroup(c, 2, 3)
    assert j == 1 and counts[0] == 4 and len(classes) == 4


def test_torsion_search_that_does_not_stabilize_returns_the_last_field():
    # over GF(64), GF(2^12) is the last field under the degree cap: the
    # search stops there; the reference curve at k = 5 stops short of 81
    f64 = default_field(6)
    classes, j, counts = torsion_subgroup(Curve(f64, f64.element(2)), 3, 6)
    assert (len(classes), j, counts) == (27, None, [27, 27])
    assert {c.field for c in classes} == {default_field(12)}
    assert len({c.key() for c in classes}) == 27 and all(c.mul_int(3).is_identity() for c in classes)
    classes, j, counts = torsion_subgroup(laszlo_curve(), 3, 5)
    assert (j, counts) == (None, [1, 9, 1, 9, 1])
    assert len(classes) == 1 and classes[0].is_identity() and classes[0].field is default_field(10)


def test_torsion_search_above_the_cap_raises():
    # no field of degree <= 12 contains GF(2^13): nothing can be searched
    f = default_field(13)
    c = Curve(f, f.element(2))
    for search in (lambda: torsion_subgroup(c, 2, 1), lambda: ordinarity_check(c)):
        with pytest.raises(DegreeCapError) as exc:
            search()
        assert str(exc.value) == "torsion search over GF(2^13) exceeds the degree-12 cap"


@pytest.mark.slow
def test_torsion_subgroup_three_reaches_81():
    c = laszlo_curve()
    classes, j, counts = torsion_subgroup(c, 3, 6)
    assert j == 6
    assert len(classes) == 81
    assert counts == [1, 9, 1, 9, 1, 81]


def test_group_order_matches_enumeration_every_t_gf16():
    # group_order raises when zeta and the enumerated count disagree
    f16 = default_field(4)
    for tm in range(2, 16):
        c = Curve(f16, f16.element(tm))
        assert weil_interval_ok_jacobian(group_order(c, f16), 16)


def test_group_order_catches_a_dropped_kernel_vector(monkeypatch):
    import frobfix.jacobian as jacobian_module

    solve = jacobian_module.solve_additive

    def drop_last(*args):
        sol = solve(*args)
        return sol if sol is None or not sol[1] else (sol[0], sol[1][:-1])

    monkeypatch.setattr(jacobian_module, "_order_cache", {})
    monkeypatch.setattr(jacobian_module, "solve_additive", drop_last)
    with pytest.raises(InconsistencyError, match="disagrees with enumerated count"):
        group_order(laszlo_curve(), default_field(4))


def test_group_order_catches_a_flipped_trace_mask_bit(monkeypatch):
    # count_points (the zeta side) decides by the trace, through the dual
    # mask of c; the enumeration's degree-1 classes come from the root walk,
    # so the two must disagree
    import frobfix.curve as curve_module
    import frobfix.gf2 as gf2_module
    import frobfix.jacobian as jacobian_module

    monkeypatch.setattr(jacobian_module, "_order_cache", {})
    monkeypatch.setattr(
        curve_module, "trace_dual_mask", lambda field, c: gf2_module.trace_dual_mask(field, c) ^ 1
    )
    with pytest.raises(InconsistencyError) as exc:
        group_order(laszlo_curve(), default_field(4))
    assert exc.type is InconsistencyError
    assert str(exc.value) == "zeta order 289 disagrees with enumerated count 576"


def test_group_order_past_the_enumeration_checks_the_square(monkeypatch):
    # over GF(2^8) no enumeration runs, so the flipped trace-mask bit of
    # test_group_order_catches_a_flipped_trace_mask_bit meets the square check
    import frobfix.curve as curve_module
    import frobfix.gf2 as gf2_module
    import frobfix.jacobian as jacobian_module

    monkeypatch.setattr(jacobian_module, "_order_cache", {})
    monkeypatch.setattr(
        curve_module, "trace_dual_mask", lambda field, c: gf2_module.trace_dual_mask(field, c) ^ 1
    )
    with pytest.raises(InconsistencyError) as exc:
        group_order(laszlo_curve(), default_field(8))
    assert exc.type is InconsistencyError
    assert str(exc.value) == "L-polynomial is not a square (1 - a T + q T^2)^2"


def test_oracle_catches_a_residual_point_off_the_field(monkeypatch):
    import frobfix.curve as curve_module

    c = laszlo_curve()
    rng = random.Random(101)
    a, b = (random_class(c, default_field(4), rng) for _ in range(2))
    divisor = a.to_divisor() + b.to_divisor()
    monkeypatch.setattr(curve_module, "quadratic_root_masks", lambda field, b, c: [])
    with pytest.raises(InconsistencyError) as exc:
        oracle_class_of(divisor)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "residual point not defined over the working field"


def test_oracle_catches_a_residual_point_off_the_curve(monkeypatch):
    # each root y of y^2 + b y = c moved off the curve: y + 1, or y + 2 when
    # b = 1, as y + b is the other root
    import frobfix.curve as curve_module

    c = laszlo_curve()
    rng = random.Random(101)
    f16 = default_field(4)
    a, b = (random_class(c, f16, rng) for _ in range(2))
    divisor = a.to_divisor() + b.to_divisor()
    real = curve_module.quadratic_root_masks
    monkeypatch.setattr(curve_module, "quadratic_root_masks",
                        lambda field, b, c: [y ^ (2 if b == 1 else 1) for y in real(field, b, c)])
    with pytest.raises(NotOnCurveError) as exc:
        oracle_class_of(divisor)
    assert exc.type is NotOnCurveError
    x, y = (int(m, 16) for m in str(exc.value)[1:].split(")")[0].split(", "))
    # this pair's residual roots lie over the quadratic extension
    assert str(exc.value) == f"({x:#x}, {y:#x}) over {default_field(8)!r} does not satisfy the equation"


def test_ordinarity_check_all_t_gf4():
    f4 = default_field(2)
    for tm in (2, 3):
        assert ordinarity_check(Curve(f4, f4.element(tm)))


def test_mumford_check_catches_a_flipped_bit_in_the_closed_form(monkeypatch):
    import frobfix.jacobian as jacobian_module

    # the closed form runs, and its reduced output is planted with one
    # flipped bit
    closed = jacobian_module._closed_form_sum
    flipped = []

    def flip_v(*args):
        out = closed(*args)
        if out is None or len(out[0]) < 3:
            return out
        u, v = out
        v = list(v + (0, 0))[:2]
        v[1] ^= 1  # adds x^2 + x h = x^3 to v^2 + v h + f
        flipped.append(v)
        return u, tuple(v)

    c = laszlo_curve()
    rng = random.Random(101)
    a, b = (random_class(c, default_field(4), rng) for _ in range(2))
    monkeypatch.setattr(jacobian_module, "_closed_form_sum", flip_v)
    with pytest.raises(ValueError) as exc:
        a + b
    assert flipped
    assert exc.type is ValueError
    assert str(exc.value) == "Mumford condition u | v^2 + v h + f fails"


@pytest.mark.parametrize("double, linear", [(False, False), (True, False), (False, True)],
                         ids=["coprime", "doubling", "coprime-2+1"])
def test_reduction_catches_a_flipped_bit_in_the_closed_form(monkeypatch, double, linear):
    import frobfix.jacobian as jacobian_module

    solve, divide = jacobian_module._slope_mod_quadratic, jacobian_module.divmod_masks
    flipped = []

    def flip_s(*args):
        s = solve(*args)
        if s is not None:
            # adds h + u1 to k + s h + s^2 u1: a nonzero remainder mod w, as
            # deg(h + u1) < 2 and u1 != h (Res(u, h) != 0 when doubling)
            s = (s[0] ^ 1, s[1])
            flipped.append(s)
        return s

    def flip_numerator(field, n, u):
        if len(u) == 2 and len(n) == 4:  # k + s h + s^2 u1, divided by w = x + b0
            n = [n[0] ^ 1, *n[1:]]  # leaves the remainder 1
            flipped.append(n)
        return divide(field, n, u)

    c, f16 = laszlo_curve(), default_field(4)
    rng = random.Random(101)
    a, b = (random_class(c, f16, rng) for _ in range(2))
    if linear:  # a point off the roots of a.u, added to the quadratic class
        u = Poly.from_masks(f16, a.u)
        b = next(p for p in enumerate_classes(c, f16)
                 if len(p.u) == 2 and u.evaluate(f16.element(p.u[0])).mask)
        monkeypatch.setattr(jacobian_module, "divmod_masks", flip_numerator)
    else:  # the written-out (2, 2) sums take their slope from _slope_mod_quadratic
        monkeypatch.setattr(jacobian_module, "_slope_mod_quadratic", flip_s)
    with pytest.raises(ValueError) as exc:
        b + a if linear else a + (a if double else b)
    assert flipped
    assert exc.type is ValueError
    assert str(exc.value) == "division is not exact"


@pytest.mark.parametrize("double, pair, index, message", [
    (False, None, 0, "division is not exact"),
    # a doubling solves s from the cofactor, so its division is exact
    # whatever the cofactor: the Mumford check of the result catches it
    (True, None, 0, "Mumford condition u | v^2 + v h + f fails"),
    # with bit 0 of k3 or of k2 flipped, these doublings come out as a valid
    # wrong class (the identity, and x - 0 with v = 0), which no Mumford
    # check can see; k3 = f5 and k2 = a1 f5 follow from u and f
    (True, ((2, 8, 1), (14, 2)), 3, None),
    (True, ((1, 2, 1), (6, 11)), 2, None),
    # a tangent reads k(x1), so it checks the top k4 and k3 of a point's
    # cofactor too: k4 = f5 and k3 = x1 f5
    (True, ((2, 1), (8,)), 4, None),
    (True, ((2, 1), (8,)), 3, None),
], ids=["coprime", "doubling", "doubling-k3", "doubling-k2", "tangent-k4", "tangent-k3"])
def test_a_flipped_bit_in_the_cached_cofactor_is_caught(double, pair, index, message):
    c, f16 = laszlo_curve(), default_field(4)
    rng = random.Random(101)
    a, b = (random_class(c, f16, rng) for _ in range(2))
    if pair is not None:
        a = JacobianClass(c, f16, *pair)
    a.cofactor = [*a.cofactor[:index], a.cofactor[index] ^ 1, *a.cofactor[index + 1:]]
    with pytest.raises((ValueError, InconsistencyError)) as exc:
        a + (a if double else b)
    if message is None:
        assert exc.type is InconsistencyError
        assert str(exc.value) == "cofactor's top coefficients disagree with u and f"
    else:
        assert exc.type is ValueError
        assert str(exc.value) == message


def test_reduction_catches_a_flipped_bit_in_the_shared_point_tangent(monkeypatch):
    # P + (P + Q) repeats P over the shared root x(P), so its slope is
    # k(x(P)) / h(x(P)) for the cofactor k of P + Q; a flipped bit of k(x(P))
    # leaves k + s h + s^2 u1 a remainder mod x + x(P)
    import frobfix.jacobian as jacobian_module

    evaluate = jacobian_module.evaluate_masks
    flipped = []

    def flip_cofactor(exp, log, p, x):
        out = evaluate(exp, log, p, x)
        if len(p) == 4:  # the quadratic class's cofactor
            out ^= 1
            flipped.append(x)
        return out

    # x(P), x(Q) outside the roots {0, 1} of h, so h(x(P)) != 0
    points = [p for p in enumerate_classes(laszlo_curve(), default_field(4))
              if len(p.u) == 2 and p.u[0] > 1]
    a = points[0]
    b = a + next(p for p in points if p.u != a.u)
    monkeypatch.setattr(jacobian_module, "evaluate_masks", flip_cofactor)
    with pytest.raises(ValueError) as exc:
        a + b
    assert flipped == [a.u[0]]
    assert exc.type is ValueError
    assert str(exc.value) == "division is not exact"


def test_mumford_check_catches_a_wrong_root_in_the_shared_point_cancel(monkeypatch):
    # (P + Q) - P cancels P over the shared root x(P), and the sum is Q at
    # u1's other root e = a1 + x(P); planted as a1, with v1 read there
    import frobfix.jacobian as jacobian_module

    closed = jacobian_module._closed_form_sum
    planted = []

    def wrong_root(field, f, k, r, u1, v1, u2, v2):
        u, v = closed(field, f, k, r, u1, v1, u2, v2)
        if len(u1) == 3 and len(u2) == 2 and len(u) == 2:  # the cancel: U' = x + e
            x = u1[1]
            y = Poly.from_masks(field, v1).evaluate(field.element(x)).mask
            u, v = (x, 1), (y,) if y else ()
            planted.append(x)
        return u, v

    points = [p for p in enumerate_classes(laszlo_curve(), default_field(4))
              if len(p.u) == 2 and p.u[0] > 1]
    a = points[0]
    b = a + next(p for p in points if p.u != a.u)
    monkeypatch.setattr(jacobian_module, "_closed_form_sum", wrong_root)
    with pytest.raises(ValueError) as exc:
        b + a.neg()
    assert planted
    assert exc.type is ValueError
    assert str(exc.value) == "Mumford condition u | v^2 + v h + f fails"


@pytest.mark.parametrize("route", ["chord", "tangent"])
def test_mumford_check_catches_a_flipped_bit_in_a_degree_one_closed_form(monkeypatch, route):
    import frobfix.jacobian as jacobian_module

    # x1 outside the roots {0, 1} of h, so P + P is a tangent and not the identity
    points = [p for p in enumerate_classes(laszlo_curve(), default_field(4))
              if len(p.u) == 2 and p.u[0] > 1]
    a = points[0]
    b = next(p for p in points if p.u != a.u) if route == "chord" else a
    closed = jacobian_module._closed_form_sum
    flipped = []

    def flip_v(*args):
        u, v = closed(*args)
        v = [*v, 0, 0][:2]
        v[1] ^= 1  # the slope; adds x^2 + x h = x^3, which u != x^2 cannot divide
        flipped.append(v)
        while v and not v[-1]:
            v.pop()
        return u, tuple(v)

    monkeypatch.setattr(jacobian_module, "_closed_form_sum", flip_v)
    with pytest.raises(ValueError) as exc:
        a + b
    assert flipped
    assert exc.type is ValueError
    assert str(exc.value) == "Mumford condition u | v^2 + v h + f fails"


def test_two_torsion_catches_a_doubling_that_returns_its_input(monkeypatch):
    add = JacobianClass.__add__
    monkeypatch.setattr(JacobianClass, "__add__", lambda a, b: a if a.key() == b.key() else add(a, b))
    with pytest.raises(InconsistencyError) as exc:
        two_torsion(laszlo_curve(), default_field(4))
    assert exc.type is InconsistencyError
    assert str(exc.value) == "2-torsion filter produced a non-torsion class"


def test_torsion_subgroup_catches_a_count_above_the_bound(monkeypatch):
    import frobfix.jacobian as jacobian_module

    sylow = jacobian_module.sylow_subgroup
    monkeypatch.setattr(jacobian_module, "sylow_subgroup", lambda *args: sylow(*args) * 10)
    with pytest.raises(InconsistencyError) as exc:
        torsion_subgroup(laszlo_curve(), 3, 2)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "torsion count exceeds r^(2g)"


def test_group_order_memo_enumerates_gf64_once(monkeypatch):
    import frobfix.jacobian as jacobian_module

    count = jacobian_module.count_classes
    calls = []
    monkeypatch.setattr(jacobian_module, "_order_cache", {})
    monkeypatch.setattr(jacobian_module, "count_classes", lambda *args: calls.append(args) or count(*args))
    c, f64 = laszlo_curve(), default_field(6)
    n = group_order(c, f64)
    assert len(sylow_subgroup(c, f64, 3)) == 1
    assert group_order(c, f64) == n
    assert len(calls) == 1


def test_sylow_subgroup_catches_a_closure_above_its_order(monkeypatch):
    import frobfix.jacobian as jacobian_module

    closure = jacobian_module._subgroup_closure

    def one_spurious_key(elements, new):
        out = closure(elements, new)
        out["spurious"] = new
        return out

    monkeypatch.setattr(jacobian_module, "_subgroup_closure", one_spurious_key)
    with pytest.raises(InconsistencyError) as exc:
        sylow_subgroup(laszlo_curve(), default_field(4), 3)
    assert exc.type is InconsistencyError
    assert str(exc.value) == "Sylow subgroup exceeded its order bound"


def test_ordinarity_check_catches_criteria_that_disagree(monkeypatch):
    monkeypatch.setattr(Curve, "is_ordinary", lambda self: False)
    with pytest.raises(InconsistencyError) as exc:
        ordinarity_check(laszlo_curve())
    assert exc.type is InconsistencyError
    assert str(exc.value) == "branch-point and 2-torsion ordinarity criteria disagree"
