"""Truncated power-series rings k'[s]/(s^n) for local expansions.

`functions.local_coordinates` expands x and y in a local uniformizer s at
an affine point of the curve; vanishing orders are then read off the
expanded coefficients.  The ring needs only addition, multiplication and
inverses of units (elements with a nonzero constant term).
"""

from .errors import FieldMismatchError


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
        cs = list(coeffs)
        if len(cs) > self.n:
            cs = cs[: self.n]
        while len(cs) < self.n:
            cs.append(self.field.zero())
        return SeriesElement(self, tuple(cs))

    def constant(self, elem):
        if elem.field != self.field:
            raise FieldMismatchError("constant from a different coefficient field")
        return self.element([elem])

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([self.field.one()])


class SeriesElement:
    """An element of k'[s]/(s^n).  Immutable."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, SeriesElement):
            raise TypeError(f"cannot combine SeriesElement with {type(other).__name__}")
        if self.ring != other.ring:
            raise FieldMismatchError("series elements from different rings")

    def is_unit(self):
        return self.coeffs[0].mask != 0

    def is_zero(self):
        return all(c.mask == 0 for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        return SeriesElement(
            self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        self._check(other)
        n = self.ring.n
        zero = self.ring.field.zero()
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if not a.mask:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b.mask:
                    out[i + j] = out[i + j] + a * b
        return SeriesElement(self.ring, tuple(out))

    def inverse(self):
        if not self.is_unit():
            raise ZeroDivisionError("series element with zero constant term")
        n = self.ring.n
        inv0 = self.coeffs[0].inverse()
        out = [inv0] + [self.ring.field.zero()] * (n - 1)
        for k in range(1, n):
            acc = self.ring.field.zero()
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out[k] = acc * inv0  # char 2: -acc = acc
        return SeriesElement(self.ring, tuple(out))

    def masks(self):
        return tuple(c.mask for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SeriesElement)
            and self.ring == other.ring
            and self.masks() == other.masks()
        )

    def __hash__(self):
        return hash((self.ring, self.masks()))

    def __repr__(self):
        return "Series" + repr(list(self.masks()))
