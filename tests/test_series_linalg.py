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


def test_nullspace_rank_nullity():
    f = default_field(4)
    rng = random.Random(18)
    for _ in range(100):
        nr, nc = rng.choice([(2, 3), (3, 3), (3, 4), (4, 2)])
        rows = [[f.random(rng) for _ in range(nc)] for _ in range(nr)]
        basis = nullspace(f, rows)
        for vec in basis:
            for row in rows:
                acc = f.zero()
                for a, b in zip(row, vec):
                    acc = acc + a * b
                assert acc == f.zero()
        _, pivots = rref(rows)
        assert len(basis) == nc - len(pivots)
