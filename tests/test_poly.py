"""Polynomial-layer tests: ring axioms, gcd, quadratic solving, and the
mask-native Mumford solve of `jacobian` against a column solve on Polys."""

import random

import pytest

import frobfix.poly as poly_module
from frobfix.curve import Curve
from frobfix.errors import DegreeCapError, FieldMismatchError, SearchExhaustedError
from frobfix.gf2 import default_field, embed, solve_gf2_linear, trace_mask
from frobfix.jacobian import affine_span, solve_additive
from frobfix.poly import Poly, solve_linear, solve_quadratic


def _random_poly(field, rng, max_deg):
    return Poly(field, [field.random(rng) for _ in range(rng.randrange(max_deg + 2))])


# GF(2) (a one-element unit group) and GF(2^16) (the largest tables) are
# where indexing the exp/log tables can go wrong; each test also keeps the
# field it was written for, with the same inputs (the rng is reseeded per
# field).
EDGE_DEGREES = (1, 16)


def _schoolbook_product(a, b):
    """Coefficient masks of a * b by the convolution on FieldElements."""
    f = a.field
    out = [f.zero()] * (a.degree + b.degree + 1)
    for i in range(a.degree + 1):
        for j in range(b.degree + 1):
            out[i + j] = out[i + j] + a[i] * b[j]
    return tuple(c.mask for c in out)


def test_degree_of_product():
    for degree in (4,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(1)
        for _ in range(300):
            a, b = _random_poly(f, rng, 5), _random_poly(f, rng, 5)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).degree == a.degree + b.degree
            assert (a * b).masks() == _schoolbook_product(a, b)


def test_divmod_roundtrip():
    for degree in (3,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(2)
        for _ in range(300):
            a, b = _random_poly(f, rng, 6), _random_poly(f, rng, 4)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_gcd_is_monic_and_divides():
    for degree in (2,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(3)
        for _ in range(200):
            a, b = _random_poly(f, rng, 5), _random_poly(f, rng, 5)
            g, s, t = a.xgcd(b)
            if g.is_zero():
                assert a.is_zero() and b.is_zero()
                continue
            assert g.leading().mask == 1
            assert (a % g).is_zero() and (b % g).is_zero()
            assert s * a + t * b == g


def test_pow_rejects_negative_exponent():
    x = Poly.x(default_field(4))
    assert x ** 0 == Poly.one(x.field)
    with pytest.raises(ValueError):
        x ** -1


def test_pow_makes_no_wasted_product(monkeypatch):
    # no product with one at the top bit, no squaring after the last bit
    f16 = default_field(4)
    p = Poly.from_masks(f16, (3, 7, 1))
    mul = Poly.__mul__
    products = []
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for e in range(13):
        products.clear()
        power = p ** e
        assert len(products) == (e.bit_length() + bin(e).count("1") - 2 if e else 0), e
        expected = Poly.one(f16)
        for _ in range(e):
            expected = mul(expected, p)
        assert power == expected, e


def test_field_checks_survive_masks():
    f16, f4 = default_field(4), default_field(2)
    e4 = f4.gen()
    p16, p4 = Poly(f16, (f16.gen(), f16.one())), Poly(f4, (e4, f4.one()))
    mixed = [
        lambda: Poly(f16, [e4]),
        lambda: p16 + p4,
        lambda: p16 * p4,
        lambda: divmod(p16, p4),
        lambda: p16.xgcd(p4),
        lambda: p16.scale(e4),
        lambda: p16.evaluate(e4),
    ]
    for call in mixed:
        with pytest.raises(FieldMismatchError):
            call()
    with pytest.raises(ValueError):
        Poly.from_masks(f16, [f16.order])


def test_evaluate_and_roots():
    f = default_field(4)
    x = Poly.x(f)
    r1, r2 = f.element(3), f.element(7)
    p = (x + Poly(f, (r1,))) * (x + Poly(f, (r2,)))
    found = [e.mask for e in f.elements() if p.evaluate(e).mask == 0]
    assert found == [3, 7]


def test_solve_quadratic_in_field_and_extension():
    # every quadratic over GF(4) and every monic one over GF(16), against
    # the roots found by trying each element of the field, then of its
    # default quadratic extension: ascending, a double root twice
    for d, leads in ((2, (1, 2, 3)), (4, (1,))):
        f, ext = default_field(d), default_field(2 * d)
        up = embed(f, ext)
        for a in leads:
            for b in range(f.order):
                for c in range(f.order):
                    p = Poly.from_masks(f, [c, b, a])
                    roots, fld, emb = solve_quadratic(p)
                    brute = [x for x in range(f.order) if not p.evaluate(f.element(x))]
                    if brute:
                        assert fld == f and emb is embed(f, f)
                    else:
                        pe = p.map(up)
                        brute = [x for x in range(ext.order) if not pe.evaluate(ext.element(x))]
                        assert fld == ext and emb is up
                    if len(brute) == 1:
                        brute *= 2
                    assert [r.mask for r in roots] == brute
                    assert all(r.field == fld for r in roots)


def test_solve_quadratic_caps_the_extension_and_checks_its_roots(monkeypatch):
    f = default_field(16)
    c = next(m for m in range(f.order) if (m & trace_mask(f)).bit_count() & 1)
    with pytest.raises(DegreeCapError):
        solve_quadratic(Poly.from_masks(f, [c, 1, 1]))
    # a root kernel that finds no root even in the extension
    monkeypatch.setattr(poly_module, "quadratic_root_masks", lambda field, b, c: [])
    with pytest.raises(SearchExhaustedError, match="^quadratic has no root in the quadratic extension$"):
        solve_quadratic(Poly.from_masks(default_field(2), [1, 1, 1]))


def test_solve_quadratic_double_root():
    f = default_field(4)
    a = f.element(9)
    x = Poly.x(f)
    p = (x + Poly(f, (a,))) * (x + Poly(f, (a,)))
    roots, fld, _ = solve_quadratic(p)
    assert fld == f and roots == [a, a]


def test_solvers_reject_wrong_degree():
    f = default_field(4)
    cubic = Poly.x(f) ** 3 + Poly.one(f)
    with pytest.raises(ValueError):
        solve_linear(cubic)
    with pytest.raises(ValueError):
        solve_quadratic(cubic)


def test_solve_additive_without_modulus_matches_brute_force_gf4():
    # z^2 + h z = rhs with deg z < 3 and no modulus: the automorphism-lift shape
    f4 = default_field(2)
    h = Poly.from_masks(f4, (0, 1, 1))
    every_z = [Poly.from_masks(f4, (z0, z1, z2)) for z2 in range(4) for z1 in range(4) for z0 in range(4)]
    preimages = {}
    for z in every_z:
        preimages.setdefault((z * z + h * z).masks(), set()).add(z.masks())
    # every image (solvable) and every rhs of degree < 3, plus x^6 (degree
    # above every image)
    rhs_list = list(preimages)
    rhs_list += [(r0, r1, r2) for r2 in range(4) for r1 in range(4) for r0 in range(4)]
    rhs_list.append((0,) * 6 + (1,))
    unsolvable = 0
    for rhs in rhs_list:
        expected = preimages.get(Poly.from_masks(f4, rhs).masks(), set())
        sol = solve_additive(f4, 3, rhs)
        if sol is None:
            assert not expected
            unsolvable += 1
            continue
        span = list(affine_span(*sol))
        assert len(set(span)) == len(span) == 1 << len(sol[1])  # kernel independent
        assert set(span) == expected
    assert unsolvable


def _poly_column_solve(n, h, rhs, w=None):
    """solve_additive's GF(2) system built on Polys: the column of bit b of
    coefficient i is a^2 (x^(2i) mod w) + a (x^i h mod w), a = 2^b, packed
    with coefficient j at bit j*d, as rhs (mod w) is."""
    field, d = h.field, h.field.degree

    def reduce(p):
        return p if w is None else p % w

    def pack(p):
        return sum(c << j * d for j, c in enumerate(p.masks()))

    cols = []
    for i in range(n):
        square, linear = reduce(Poly.x(field) ** (2 * i)), reduce(Poly.x(field) ** i * h)
        for b in range(d):
            a = field.element(1 << b)
            cols.append(pack(square.scale(a * a) + linear.scale(a)))
    part, kernel = solve_gf2_linear(cols, pack(reduce(rhs)))
    if part is None:
        return None
    return [[bits >> i * d & ((1 << d) - 1) for i in range(n)] for bits in [part] + kernel]


def _padded(sol, n):
    """solve_additive's (particular, kernel) as coefficient lists of length n."""
    if sol is None:
        return None
    part, kernel = sol
    return [list(z) + [0] * (n - len(z)) for z in [part] + kernel]


def test_solve_additive_matches_the_poly_column_solve():
    # the Mumford shape: every monic u of degree 1 and 2 over GF(16), for
    # t = w and w + 1, and random quadratic u over GF(2^8) and GF(2^12), the
    # fields the sampler draws over, u1 = 0 and 1 among them; and the
    # automorphism-lift shape, n = 8 with no modulus
    f4, f16 = default_field(2), default_field(4)
    seen = set()
    for t in (f4.gen(), f4.gen() + f4.one()):
        h, f = Curve(f4, t).equation_polys(f16)
        every_u = [(u0, 1) for u0 in range(16)]
        every_u += [(u0, u1, 1) for u1 in range(16) for u0 in range(16)]
        for u in every_u:
            expected = _poly_column_solve(len(u) - 1, h, f, Poly.from_masks(f16, u))
            assert _padded(solve_additive(f16, len(u) - 1, f.masks(), u), len(u) - 1) == expected, u
            seen.add(expected is None)
    for field in (default_field(8), default_field(12)):
        big_h, big_f = Curve(f4, f4.gen()).equation_polys(field)
        rng = random.Random(field.degree)
        some_u = [(rng.randrange(field.order), u1, 1) for u1 in (0, 1)]
        some_u += [(rng.randrange(field.order), rng.randrange(field.order), 1) for _ in range(30)]
        for u in some_u:
            expected = _poly_column_solve(2, big_h, big_f, Poly.from_masks(field, u))
            assert _padded(solve_additive(field, 2, big_f.masks(), u), 2) == expected, u
            seen.add(expected is None)
    rng = random.Random(8)
    for _ in range(200):
        z = Poly.from_masks(f16, [rng.randrange(16) for _ in range(8)])
        rhs = z * z + h * z if rng.randrange(2) else _random_poly(f16, rng, 16)
        expected = _poly_column_solve(8, h, rhs)
        assert _padded(solve_additive(f16, 8, rhs.masks()), 8) == expected
        seen.add(expected is None)
    assert seen == {True, False}


def test_solve_additive_takes_a_modulus_of_degree_n_at_most_two():
    f16 = default_field(4)
    for n, w in ((3, (1, 0, 0, 1)), (2, (1, 0, 0, 1)), (1, (3, 0, 1)), (0, (1,))):
        with pytest.raises(ValueError) as exc:
            solve_additive(f16, n, (1,), w)
        assert str(exc.value) == f"solve_additive needs n = deg w <= 2, got n = {n} and deg w = {len(w) - 1}"
