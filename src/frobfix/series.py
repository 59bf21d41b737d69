"""Truncated power series k'[s]/(s^n) for local expansions.

`functions.local_coordinates` expands x and y in a local uniformizer s at
an affine point of the curve; vanishing orders are then read off the
expanded coefficients.  The expansions need only addition and
multiplication: `mul_masks`, the truncated product on coefficient masks,
indexes the field's exp/log tables directly.  `inverse_masks` inverts a
unit (a nonzero constant term).  Nothing in the package builds a
`SeriesElement`: it stays only as a target of the benchmark's layer
spans, which wrap its three operations, until they move to the kernels.
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


class SeriesElement:
    """An element of k'[s]/(s^n): a tuple of n coefficient masks of
    `field`, with the kernels above as its arithmetic."""

    __slots__ = ("field", "masks")

    def __init__(self, field, masks):
        self.field = field
        self.masks = masks

    def _check(self, other):
        if not isinstance(other, SeriesElement):
            raise TypeError(f"cannot combine SeriesElement with {type(other).__name__}")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("series elements over different fields")

    def __add__(self, other):
        self._check(other)
        return SeriesElement(self.field, tuple(a ^ b for a, b in zip(self.masks, other.masks)))

    def __mul__(self, other):
        self._check(other)
        return SeriesElement(self.field, mul_masks(self.field, self.masks, other.masks))

    def inverse(self):
        if not self.masks[0]:
            raise ZeroDivisionError("series element with zero constant term")
        return SeriesElement(self.field, inverse_masks(self.field, self.masks))
