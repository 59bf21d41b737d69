"""Series-ring and nullspace tests."""

import random
from itertools import product

from frobfix.gf2 import default_field
from frobfix.linalg import nullspace, rref
from frobfix.series import TruncatedSeriesRing


def _random_series(ring, rng, unit=False):
    f = ring.field
    coeffs = [f.random(rng) for _ in range(ring.n)]
    if unit:
        coeffs[0] = f.element(rng.randrange(1, f.order))
    return ring.element(coeffs)


# GF(2) and GF(2^16) are where indexing the exp/log tables can go wrong;
# each test also keeps the field it was written for, with the same inputs.
EDGE_DEGREES = (1, 16)


def test_series_ring_axioms_random():
    for degree in (2,) + EDGE_DEGREES:
        ring = TruncatedSeriesRing(default_field(degree), 4)
        rng = random.Random(11)
        for _ in range(300):
            a, b, c = (_random_series(ring, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_series_nilpotency_and_units():
    f = default_field(1)
    ring = TruncatedSeriesRing(f, 3)
    s = ring.element([f.zero(), f.one()])
    assert (s * s * s).is_zero()
    assert not (s * s).is_zero()
    elements = [ring.element(f.element(m) for m in ms) for ms in product(range(2), repeat=3)]
    units = [u for u in elements if u.is_unit()]
    # units are exactly the elements with nonzero constant term
    assert len(units) == 1 * 2 * 2
    for u in units:
        assert u * u.inverse() == ring.one()


def test_series_inverse_random():
    for degree in (3,) + EDGE_DEGREES:
        ring = TruncatedSeriesRing(default_field(degree), 5)
        rng = random.Random(12)
        for _ in range(200):
            u = _random_series(ring, rng, unit=True)
            assert u * u.inverse() == ring.one()


def _random_mask_matrix(field, rng, nr, nc):
    """Random rows of masks, with some rows replaced by sums of scaled
    others and some columns zeroed, so that pivots skip columns."""
    rows = [[rng.randrange(field.order) for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        if i >= 2 and rng.random() < 0.3:
            a, b = rng.randrange(field.order), rng.randrange(field.order)
            mul = field.mul_masks
            rows[i] = [mul(a, x) ^ mul(b, y) for x, y in zip(rows[0], rows[1])]
    for c in range(nc):
        if rng.random() < 0.15:
            for row in rows:
                row[c] = 0
    return rows


def test_nullspace_rank_nullity():
    f = default_field(4)
    rng = random.Random(18)
    for _ in range(100):
        nr, nc = rng.choice([(2, 3), (3, 3), (3, 4), (4, 2)])
        rows = [[rng.randrange(f.order) for _ in range(nc)] for _ in range(nr)]
        basis = nullspace(f, rows)
        for vec in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, vec):
                    acc ^= f.mul_masks(a, b)
                assert acc == 0
        _, pivots = rref(f, rows)
        assert len(basis) == nc - len(pivots)


def _reference_rref(rows):
    """Gauss-Jordan elimination on FieldElement rows, pivot by pivot in
    column order, each pivot from the first nonzero row at or below."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c].is_unit()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c].is_unit():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def _reference_nullspace(field, rows):
    nc = len(rows[0])
    rows, pivots = _reference_rref(rows)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = [field.zero()] * nc
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def test_mask_nullspace_matches_a_field_element_elimination():
    for degree in (4,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(19 + degree)
        for _ in range(150):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 9)
            rows = _random_mask_matrix(f, rng, nr, nc)
            boxed = [[f.element(m) for m in row] for row in rows]
            ref_rows, ref_pivots = _reference_rref(boxed)
            got_rows, got_pivots = rref(f, rows)
            assert got_pivots == ref_pivots
            assert got_rows == [[c.mask for c in row] for row in ref_rows]
            assert nullspace(f, rows) == [
                [c.mask for c in vec] for vec in _reference_nullspace(f, boxed)
            ]
