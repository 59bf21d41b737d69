"""Truncated-series kernel and nullspace tests."""

import random
from itertools import product

import pytest

from frobfix.errors import FieldMismatchError
from frobfix.gf2 import default_field
from frobfix.linalg import nullspace, rref
from frobfix.series import SeriesElement, inverse_masks, mul_masks


def _random_series(field, n, rng, unit=False):
    masks = [field.random(rng).mask for _ in range(n)]
    if unit:
        masks[0] = rng.randrange(1, field.order)
    return tuple(masks)


def _add(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


# GF(2) and GF(2^16) are where indexing the exp/log tables can go wrong;
# each test also keeps the field it was written for, with the same inputs.
EDGE_DEGREES = (1, 16)


def test_series_ring_axioms_random():
    for degree in (2,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(11)
        for _ in range(300):
            a, b, c = (_random_series(f, 4, rng) for _ in range(3))
            assert mul_masks(f, mul_masks(f, a, b), c) == mul_masks(f, a, mul_masks(f, b, c))
            assert mul_masks(f, a, _add(b, c)) == _add(mul_masks(f, a, b), mul_masks(f, a, c))
            assert mul_masks(f, a, b) == mul_masks(f, b, a)


def test_series_nilpotency_and_units():
    f = default_field(1)
    s = (0, 1, 0)
    assert mul_masks(f, mul_masks(f, s, s), s) == (0, 0, 0)
    assert mul_masks(f, s, s) == (0, 0, 1)
    # units are exactly the elements with nonzero constant term
    units = [u for u in product(range(2), repeat=3) if u[0]]
    assert len(units) == 1 * 2 * 2
    for u in units:
        assert mul_masks(f, u, inverse_masks(f, u)) == (1, 0, 0)


def test_series_inverse_random():
    for degree in (3,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(12)
        for _ in range(200):
            u = _random_series(f, 5, rng, unit=True)
            assert mul_masks(f, u, inverse_masks(f, u)) == (1,) + (0,) * 4


def test_series_element_wraps_the_kernels():
    # SeriesElement stays as the target of the benchmark's series spans:
    # its three operations are the kernels, with a field check
    for degree in (2,) + EDGE_DEGREES:
        f = default_field(degree)
        rng = random.Random(13)
        for _ in range(50):
            a, u = _random_series(f, 4, rng), _random_series(f, 4, rng, unit=True)
            sa, su = SeriesElement(f, a), SeriesElement(f, u)
            assert (sa + su).masks == _add(a, u)
            assert (sa * su).masks == mul_masks(f, a, u)
            assert su.inverse().masks == inverse_masks(f, u)
    f16, f4 = default_field(4), default_field(2)
    s16, s4 = SeriesElement(f16, (1, 2, 0)), SeriesElement(f4, (1, 2, 0))
    for call in (lambda: s16 + s4, lambda: s16 * s4):
        with pytest.raises(FieldMismatchError):
            call()
    with pytest.raises(TypeError):
        s16 * (1, 2, 0)
    with pytest.raises(ZeroDivisionError):
        SeriesElement(f16, (0, 1, 0)).inverse()


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
