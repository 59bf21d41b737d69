"""Field-layer tests: axioms, Frobenius/sqrt, embeddings, Artin-Schreier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobfix import gf2
from frobfix.errors import (
    DegreeCapError,
    EmbeddingError,
    FieldConstructionError,
    FieldMismatchError,
)
from frobfix.gf2 import (
    DEGREE_CAP,
    BinaryField,
    FieldElement,
    _prime_factors,
    artin_schreier_root_in_field,
    artin_schreier_root_mask,
    artin_schreier_solve,
    default_field,
    default_modulus_table,
    embed,
    find_factor,
    join_fields,
    solve_gf2_linear,
    trace_dual_mask,
    trace_mask,
)


def test_default_table_covers_1_to_16_and_is_irreducible():
    table = default_modulus_table()
    assert sorted(table) == list(range(1, 17))
    for d, mask in table.items():
        assert mask.bit_length() - 1 == d
        assert find_factor(mask) is None


def test_build_field_examples():
    # one field per degree: its modulus is the table's, whichever way it is built
    table = default_modulus_table()
    for d in range(1, 17):
        f = BinaryField(d)
        assert (f.order, f.modulus) == (1 << d, table[d])
        assert f == default_field(d)
    assert (table[2], table[4]) == (0b111, 0b10011)
    with pytest.raises(FieldConstructionError, match=r"^degree must be in 1\.\.16, got 17$"):
        BinaryField(17)


def test_irreducibility_oracle_gf4():
    # x^2 + x + 1 has no root in GF(2): direct check of the only degree-2 irreducible.
    for x in (0, 1):
        assert (x * x + x + 1) % 2 == 1


def test_reducible_modulus_rejected_with_factor(monkeypatch, tmp_path):
    # the table is the only source of moduli, so its load-time check is the
    # only guard: plant a bad entry in a copy of the table text
    planted = [
        ("4,7", "table entry for d=4 has degree 2"),  # x^2 + x + 1
        ("4,11", "table modulus 0x11 for d=4 is reducible: factor 0x3"),  # (x + 1)^4
    ]
    monkeypatch.setattr(gf2.resources, "files", lambda _package: tmp_path)
    try:
        for entry, message in planted:
            (tmp_path / "irreducibles.txt").write_text(f"# planted\n1,3\n{entry}\n")
            default_modulus_table.cache_clear()
            with pytest.raises(FieldConstructionError) as err:
                default_modulus_table()
            assert str(err.value) == message
    finally:
        default_modulus_table.cache_clear()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_field_axioms_exhaustive(d):
    f = default_field(d)
    elems = list(f.elements())
    one, zero = f.one(), f.zero()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + a == zero
        if a:
            assert a * a.inverse() == one
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("d", [5, 8, 13, 16])
def test_field_axioms_random(d):
    f = default_field(d)
    rng = random.Random(20260809 + d)
    for _ in range(3000):
        a, b, c = (f.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == f.one()


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_field_axioms_hypothesis_gf256(am, bm, cm):
    f = default_field(8)
    a, b, c = f.element(am), f.element(bm), f.element(cm)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_field_mismatch_raises():
    a = default_field(2).one()
    b = default_field(4).one()
    with pytest.raises(FieldMismatchError):
        _ = a + b
    with pytest.raises(FieldMismatchError):
        _ = a * b


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8])
def test_sqrt_and_frobenius_inverse_exhaustive(d):
    f = default_field(d)
    for a in f.elements():
        assert a.sqrt().frobenius() == a
        assert a.frobenius().sqrt() == a


def test_sqrt_gf4_from_squaring_table():
    f = default_field(2)
    # oracle: the full squaring table of GF(4)
    squares = {a * a: a for a in f.elements()}  # squaring is a bijection
    w = f.gen()
    assert squares[w + f.one()] == w  # w^2 = w + 1
    assert f.element(0).sqrt() == f.zero()
    assert f.element(1).sqrt() == f.one()
    assert (w + f.one()).sqrt() == w


def test_frobenius_is_automorphism_fixing_gf2():
    for d in (2, 3, 4, 8):
        f = default_field(d)
        fixed = [a for a in f.elements() if a.frobenius() == a]
        assert len(fixed) == 2  # exactly GF(2)
        for a in list(f.elements())[:16]:
            for b in list(f.elements())[:16]:
                assert (a + b).frobenius() == a.frobenius() + b.frobenius()
                assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_embedding_gf2_to_gf4_is_inclusion():
    e = embed(default_field(1), default_field(2))
    assert e(default_field(1).zero()).mask == 0
    assert e(default_field(1).one()).mask == 1


def test_embedding_gf4_to_gf16_smallest_root():
    f4, f16 = default_field(2), default_field(4)
    # oracle: exhaustive root search for x^2 + x + 1 in GF(16)
    roots = [z for z in f16.elements() if z * z + z + f16.one() == f16.zero()]
    assert len(roots) == 2
    e = embed(f4, f16)
    assert e(f4.gen()) == min(roots, key=lambda z: z.mask)


# image_of_generator masks of the default embeddings for a | b <= 16 other
# than a = 1 (mask 1) and a = b (mask 2), measured with the full-field root scan
DEFAULT_EMBEDDING_IMAGES = {
    (2, 4): 6, (2, 6): 58, (3, 6): 14, (2, 8): 214, (4, 8): 152, (3, 9): 252,
    (2, 10): 236, (5, 10): 314, (2, 12): 72, (3, 12): 1186, (4, 12): 8,
    (6, 12): 3329, (2, 14): 5106, (7, 14): 3374, (3, 15): 892, (5, 15): 316,
    (2, 16): 31362, (4, 16): 10154, (8, 16): 11682,
}


def test_every_default_embedding_is_pinned():
    seen = 0
    for b in range(1, 17):
        for a in range(1, b + 1):
            if b % a:
                continue
            expected = 1 if a == 1 else 2 if a == b else DEFAULT_EMBEDDING_IMAGES[a, b]
            assert embed(default_field(a), default_field(b)).image_of_generator.mask == expected
            seen += 1
    assert seen == 50


def test_embedding_identity():
    f4 = default_field(2)
    e = embed(f4, f4)
    assert e.is_identity()
    for a in f4.elements():
        assert e(a) == a


@pytest.mark.parametrize("pair", [(1, 2), (2, 4), (2, 8), (4, 8), (2, 6), (3, 6)])
def test_embedding_is_ring_homomorphism(pair):
    src, tgt = default_field(pair[0]), default_field(pair[1])
    e = embed(src, tgt)
    assert e(src.one()) == tgt.one()
    elems = list(src.elements())
    for a in elems:
        for b in elems:
            assert e(a + b) == e(a) + e(b)
            assert e(a * b) == e(a) * e(b)


def test_embedding_nondividing_degrees_rejected():
    with pytest.raises(EmbeddingError):
        embed(default_field(2), default_field(3))


def test_join_fields():
    f2, f3 = default_field(2), default_field(3)
    e, e1, e2 = join_fields(f2, f3)
    assert e.degree == 6
    assert e1(f2.gen()) * e2(f3.gen()) == e2(f3.gen()) * e1(f2.gen())


def test_embedding_composition():
    # the tower commutes: a | b | c gives embed(b, c) o embed(a, b) = embed(a, c)
    chains = [
        (a, b, c) for c in range(1, 17) for b in range(1, c + 1) for a in range(1, b + 1)
        if c % b == 0 and b % a == 0
    ]
    assert len(chains) == 110
    for a, b, c in chains:
        fa, fb, fc = default_field(a), default_field(b), default_field(c)
        assert embed(fb, fc)(embed(fa, fb)(fa.gen())) == embed(fa, fc)(fa.gen())


@pytest.mark.parametrize("pair", [(8, 16), (4, 8)])
def test_preimage_matches_a_fresh_solve_on_every_element(pair):
    # the kept echelon against a solve over the basis images on each call,
    # on every target element: the image subfield and everything outside it
    src, tgt = default_field(pair[0]), default_field(pair[1])
    e = embed(src, tgt)
    hits = 0
    for m in range(tgt.order):
        combo, _ = solve_gf2_linear(list(e._basis_images), m)
        pre = e.preimage(FieldElement(tgt, m))
        if combo is None:
            assert pre is None, m
        else:
            assert pre == FieldElement(src, combo) and e(pre).mask == m, m
            hits += 1
    assert hits == src.order


def test_artin_schreier_zero_rhs():
    f = default_field(3)
    root, mult = artin_schreier_solve(f, 2, f.zero())
    assert mult == 1 and root == f.zero()


def test_artin_schreier_gf2_needs_extension():
    f = default_field(1)
    root, mult = artin_schreier_solve(f, 2, f.one())
    assert mult == 2
    assert root.field.degree == 2
    # oracle: exhaustive search over GF(4)
    sols = [z for z in default_field(2).elements() if z * z + z == default_field(2).one()]
    assert root == min(sols, key=lambda z: z.mask)


def test_artin_schreier_gf4_trace_obstruction():
    f = default_field(2)
    w = f.gen()
    assert w.trace() == f.one()  # w + w^2 = 1
    root, mult = artin_schreier_solve(f, 2, w)
    assert mult == 2 and root.field.degree == 4
    img = embed(f, root.field)(w)
    assert root * root + root == img
    # oracle: exhaustive search over GF(16)
    sols = [z for z in root.field.elements() if z * z + z == img]
    assert root == min(sols, key=lambda z: z.mask)


@pytest.mark.parametrize(
    "d,q", [(4, 2), (4, 4), (6, 2), (6, 8), (8, 2), (8, 4), (12, 2), (12, 64)]
)
def test_artin_schreier_trace_criterion_random(d, q):
    f = default_field(d)
    k = q.bit_length() - 1
    # brute force: the smallest preimage of each value of z -> z^q + z
    smallest = {}
    for z in f.elements():
        smallest.setdefault((z ** q + z).mask, z)
    rng = random.Random(97 + d * 10 + q)
    for _ in range(250):
        delem = f.random(rng)
        if delem.mask not in smallest and 2 * d > DEGREE_CAP:
            with pytest.raises(DegreeCapError):
                artin_schreier_solve(f, q, delem)
            delem = delem ** q + delem  # the image of delem has a root in f
        root, mult = artin_schreier_solve(f, q, delem)
        assert (mult == 2) == (delem.mask not in smallest)
        if mult == 1:
            assert root == smallest[delem.mask]
            assert root.field == f
            assert root ** q + root == delem
            assert delem.trace(k).mask == 0
        else:
            assert delem.trace(k).mask != 0
            img = embed(f, root.field)(delem)
            assert root ** q + root == img
        # solution set is root + GF(q): verify another representative
        shift = embed(default_field(k), root.field)(default_field(k).one())
        other = root + shift
        rhs = delem if mult == 1 else embed(f, root.field)(delem)
        assert other ** q + other == rhs


def test_artin_schreier_root_rejects_element_of_another_field():
    with pytest.raises(FieldMismatchError):
        artin_schreier_root_in_field(default_field(6), 2, default_field(4).element(5))


def test_artin_schreier_bad_q():
    f = default_field(2)
    with pytest.raises(ValueError):
        artin_schreier_solve(f, 8, f.zero())
    with pytest.raises(ValueError):
        artin_schreier_solve(f, 3, f.zero())


def test_multiplicative_order():
    f = default_field(4)
    orders = sorted({a.multiplicative_order() for a in f.elements() if a})
    assert orders == [1, 3, 5, 15]


def test_trace_to_subfield():
    f = default_field(4)
    # Tr_{GF(16)/GF(4)} lands in the image of GF(4) and is GF(4)-linear onto it
    f4 = default_field(2)
    e = embed(f4, f)
    image = {e(a).mask for a in f4.elements()}
    for a in f.elements():
        assert a.trace(2).mask in image


@pytest.mark.parametrize("subdegree", [0, -1, -4, 3, 5])
def test_trace_to_a_subdegree_that_is_no_positive_divisor_raises(subdegree):
    with pytest.raises(ValueError, match=f"subdegree {subdegree} is not a positive divisor of 4"):
        default_field(4).gen().trace(subdegree)


@pytest.mark.parametrize("d", range(1, 17))
def test_tables_equal_a_reference_walk(d):
    # reference: the smallest primitive element by `_pow_raw`, then its
    # powers by `_mul_raw`
    f = BinaryField(d)
    n = f.order - 1
    primes = _prime_factors(n) if n > 1 else []
    g = next((c for c in range(2, f.order) if all(f._pow_raw(c, n // p) != 1 for p in primes)), 1)
    exp, log = [], [0] * f.order
    v = 1
    for i in range(n):
        exp.append(v)
        log[v] = i
        v = f._mul_raw(v, g)
    assert v == 1
    assert f.tables() == (exp + exp, log)


@pytest.mark.parametrize("d", range(1, 17))
def test_table_powers_match_the_carry_less_reference(d):
    # reference: square-and-multiply by `_pow_raw` on unreduced exponents
    f = default_field(d)
    n = f.order - 1
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    rng = random.Random(d)
    for m in [1, f.order - 1] + [rng.randrange(1, f.order) for _ in range(12)]:
        a = f.element(m)
        for e in (0, 1, 2, 3, n, n + 1, 2 * n + 5, 10**9 + 7, 1 << 70, rng.randrange(1 << 40)):
            assert (a ** e).mask == f._pow_raw(m, e)
            assert f._mul_raw((a ** -e).mask, f._pow_raw(m, e)) == 1
        s = a.sqrt().mask
        assert s == f._pow_raw(m, f.order >> 1) and f._mul_raw(s, s) == m
        assert a.multiplicative_order() == next(k for k in divisors if f._pow_raw(m, k) == 1)
    zero = f.zero()
    assert zero ** 0 == f.one() and zero ** 5 == zero and zero.sqrt() == zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1


@pytest.mark.parametrize("d", range(1, 13))
def test_trace_mask_parity_is_the_trace(d):
    f = default_field(d)
    tm = trace_mask(f)
    assert tm < f.order
    for r in range(f.order):
        odd = (r & tm).bit_count() & 1
        assert odd == (artin_schreier_root_mask(f, 2, r) is None)
        assert odd == FieldElement(f, r).trace().mask


def _dual_parity_is_the_trace(f, c, a):
    w = trace_dual_mask(f, c)
    return w < f.order and (a & w).bit_count() & 1 == (f.element(c) * f.element(a)).trace().mask


def test_trace_dual_mask_parity_is_the_trace_over_gf16():
    f = default_field(4)
    assert trace_dual_mask(f, 1) == trace_mask(f) and trace_dual_mask(f, 0) == 0
    assert all(_dual_parity_is_the_trace(f, c, a) for c in range(16) for a in range(16))


def test_trace_dual_mask_parity_is_the_trace_over_gf4096():
    f, rng = default_field(12), random.Random(19)
    assert trace_dual_mask(f, 1) == trace_mask(f)
    for _ in range(300):
        assert _dual_parity_is_the_trace(f, rng.randrange(f.order), rng.randrange(f.order))
