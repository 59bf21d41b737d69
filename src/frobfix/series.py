"""Truncated power-series rings k'[s]/(s^n) for local expansions.

`functions.local_coordinates` expands x and y in a local uniformizer s at
an affine point of the curve; vanishing orders are then read off the
expanded coefficients.  The expansions need only addition and
multiplication: `mul_masks`, the truncated product on coefficient masks,
indexes the field's exp/log tables directly.  `inverse_masks`, the
inverse of a unit (a nonzero constant term), has one caller left,
`SeriesElement.inverse`.  SeriesElement, the boxed element over the same
kernels, is no longer a type at the oracle's boundary: nothing in the
package builds one, and it stays only as a target of the benchmark's
layer spans until they move to the kernels.
"""

from .errors import FieldMismatchError


def mul_masks(field, a, b):
    """The coefficient masks of a * b mod s^n, for mask tuples a and b of
    the same length n."""
    n = len(a)
    exp, log = field.tables()
    logs_b = [(j, log[c]) for j, c in enumerate(b) if c]
    out = [0] * n
    for i, c in enumerate(a):
        if c:
            lc = log[c]
            for j, lb in logs_b:
                if i + j >= n:
                    break
                out[i + j] ^= exp[lc + lb]
    return tuple(out)


def inverse_masks(field, a):
    """The coefficient masks of 1 / a mod s^n for a mask tuple a of length
    n with a nonzero constant term."""
    exp, log = field.tables()
    logs_a = [(i, log[c]) for i, c in enumerate(a) if c and i]
    inv0 = field.inv_mask(a[0])
    log_inv0 = log[inv0]
    out = [inv0]
    for k in range(1, len(a)):
        acc = 0
        for i, la in logs_a:
            if i > k:
                break
            if out[k - i]:
                acc ^= exp[la + log[out[k - i]]]
        out.append(exp[log[acc] + log_inv0] if acc else 0)  # char 2: -acc = acc
    return tuple(out)


class TruncatedSeriesRing:
    """k'[s]/(s^n): elements are coefficient vectors of length n."""

    def __init__(self, field, n):
        if n < 1:
            raise ValueError("truncation level must be >= 1")
        self.field = field
        self.n = n

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeriesRing)
            and self.field == other.field
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.n))

    def __repr__(self):
        return f"{self.field!r}[s]/(s^{self.n})"

    def element(self, coeffs):
        masks = []
        for c in coeffs:
            if c.field is not self.field and c.field != self.field:
                raise FieldMismatchError("coefficient from a different field")
            masks.append(c.mask)
        masks = masks[: self.n]
        return SeriesElement(self, tuple(masks) + (0,) * (self.n - len(masks)))

    def constant(self, elem):
        return self.element([elem])

    def zero(self):
        return SeriesElement(self, (0,) * self.n)

    def one(self):
        return SeriesElement(self, (1,) + (0,) * (self.n - 1))


class SeriesElement:
    """An element of k'[s]/(s^n).  Immutable.

    `masks` is a tuple of n coefficient masks of the ring's field; the
    ring's constructors build it."""

    __slots__ = ("ring", "_m")

    def __init__(self, ring, masks):
        self.ring = ring
        self._m = masks

    def _check(self, other):
        if not isinstance(other, SeriesElement):
            raise TypeError(f"cannot combine SeriesElement with {type(other).__name__}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise FieldMismatchError("series elements from different rings")

    def is_unit(self):
        return self._m[0] != 0

    def is_zero(self):
        return not any(self._m)

    def __add__(self, other):
        self._check(other)
        return SeriesElement(self.ring, tuple(a ^ b for a, b in zip(self._m, other._m)))

    def __mul__(self, other):
        self._check(other)
        return SeriesElement(self.ring, mul_masks(self.ring.field, self._m, other._m))

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError("series element with zero constant term")
        return SeriesElement(self.ring, inverse_masks(self.ring.field, self._m))

    def masks(self):
        return self._m

    def __eq__(self, other):
        return (
            isinstance(other, SeriesElement)
            and self._m == other._m
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring, self._m))

    def __repr__(self):
        return "Series" + repr(list(self._m))
