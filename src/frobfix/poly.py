"""Dense univariate polynomials over a BinaryField.

A Poly stores its coefficients as a tuple of int masks, normalized (no
trailing zeros) and bound to one field, whose exp/log tables the
arithmetic indexes directly: each operation checks the field once, adds
by XOR and multiplies by table lookups.  FieldElement is the type at the
boundary: `Poly(field, coeffs)` takes FieldElements and checks each one's
field, and `p[i]`, `leading()` and `evaluate` return FieldElements.
The boxed operations wrap mask kernels that the mask-native callers use
directly: the product `mul_poly_masks`, the synthetic division
`divmod_monic`, Horner's rule `evaluate_masks`, and `monic_quadratic_roots`,
the roots of a monic quadratic with their field, over the field layer's
`gf2.quadratic_root_masks` (the Artin-Schreier substitution, not any
discriminant formula).
"""

from .errors import FieldMismatchError, SearchExhaustedError
from .gf2 import FieldElement, embed, quadratic_extension, quadratic_root_masks


def _trim(masks):
    """The list of coefficient masks `masks`, which this trims, as a tuple."""
    while masks and not masks[-1]:
        masks.pop()
    return tuple(masks)


def _wrap(field, masks):
    """The Poly over `field` with coefficient masks `masks` (a list, which
    this trims), built without the per-coefficient checks of __init__."""
    p = object.__new__(Poly)
    p.field = field
    p._m = _trim(masks)
    return p


def monic_logs(field, b):
    """The divisor b, coefficient masks with a nonzero top, made monic, in
    the form `divmod_monic` takes: (j, log c) for each nonzero coefficient
    c of b / top(b) below the top."""
    exp, log = field.tables()
    top = b[-1]
    if top == 1:
        return [(j, log[c]) for j, c in enumerate(b[:-1]) if c]
    li = log[field.inv_mask(top)]
    return [(j, log[exp[log[c] + li]]) for j, c in enumerate(b[:-1]) if c]


def divmod_monic(exp, log, a, logs, db):
    """(quotient, remainder) of the coefficient masks a by the monic divisor
    of degree db with lower coefficients `logs` (see `monic_logs`), as
    lists, by synthetic division: no inverse is taken.  The remainder has
    db entries (all of a when a is shorter), untrimmed."""
    rem = list(a)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c:
            lc = log[c]
            for j, lb in logs:
                rem[k - db + j] ^= exp[lc + lb]
    return rem[db:], rem[:db]


def evaluate_masks(exp, log, p, x):
    """p(x) for coefficient masks p and a mask x, by Horner's rule."""
    if not x:
        return p[0] if p else 0
    lx, acc = log[x], 0
    for c in reversed(p):
        acc = (exp[log[acc] + lx] if acc else 0) ^ c
    return acc


def mul_poly_masks(exp, log, a, b):
    """The product of the coefficient masks a and b as a list, untrimmed
    only where a or b has a trailing zero; [] when either is empty."""
    if not a or not b:
        return []
    logs_b = [(j, log[c]) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            lc = log[c]
            for j, lb in logs_b:
                out[i + j] ^= exp[lc + lb]
    return out


def monic_quadratic_roots(field, b, c):
    """(roots, field', emb): the roots of x^2 + b x + c, for masks b and c
    over `field`, as masks ascending with multiplicity (a double root
    twice).  They lie in field' = `field`, with emb None, or else in
    field' = emb.target for emb = `quadratic_extension(field)`; a quadratic
    with no root there raises SearchExhaustedError."""
    emb, ys = None, quadratic_root_masks(field, b, c)
    if not ys:
        emb = quadratic_extension(field)
        field = emb.target
        ys = quadratic_root_masks(field, emb.image_mask(b), emb.image_mask(c))
        if not ys:
            raise SearchExhaustedError("quadratic has no root in the quadratic extension")
    if len(ys) == 1:  # b = 0: the double root sqrt(c)
        return ys * 2, field, emb
    return sorted(ys), field, emb


def divmod_masks(field, a, b):
    """(quotient, remainder) of the coefficient masks a / b as lists, for
    deg a >= deg b and b without a trailing zero; the remainder has deg b
    entries, untrimmed."""
    exp, log = field.tables()
    quo, rem = divmod_monic(exp, log, a, monic_logs(field, b), len(b) - 1)
    if b[-1] != 1:
        li = log[field.inv_mask(b[-1])]
        quo = [exp[log[c] + li] if c else 0 for c in quo]
    return quo, rem


class Poly:
    """A univariate polynomial over a BinaryField (dense, coefficient masks)."""

    __slots__ = ("field", "_m")

    def __init__(self, field, coeffs=()):
        masks = []
        for c in coeffs:
            if c.field is not field and c.field != field:
                raise FieldMismatchError("coefficient from a different field")
            masks.append(c.mask)
        while masks and not masks[-1]:
            masks.pop()
        self.field = field
        self._m = tuple(masks)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, field):
        return _wrap(field, [])

    @classmethod
    def one(cls, field):
        return _wrap(field, [1])

    @classmethod
    def x(cls, field):
        return _wrap(field, [0, 1])

    @classmethod
    def from_masks(cls, field, masks):
        masks = list(masks)
        if not all(0 <= m < field.order for m in masks):
            raise ValueError(f"coefficient mask out of range for {field!r}")
        return _wrap(field, masks)

    # -- basic structure -----------------------------------------------------
    @property
    def degree(self):
        return len(self._m) - 1

    def is_zero(self):
        return not self._m

    def __getitem__(self, i):
        m = self._m[i] if 0 <= i < len(self._m) else 0
        return FieldElement(self.field, m)

    def leading(self):
        if not self._m:
            raise ZeroDivisionError("leading coefficient of zero polynomial")
        return FieldElement(self.field, self._m[-1])

    def masks(self):
        return self._m

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self._m == other._m
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field.degree, self.field.modulus, self._m))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{hex(c)}*x^{i}" for i, c in enumerate(self._m) if c]
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        """`other`, a Poly or a FieldElement, must be over this field."""
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("operands over different fields")

    def __add__(self, other):
        self._check(other)
        a, b = self._m, other._m
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return _wrap(self.field, out)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return _wrap(self.field, mul_poly_masks(*self.field.tables(), self._m, other._m))

    def scale(self, elem):
        self._check(elem)
        if not elem.mask:
            return _wrap(self.field, [])
        exp, log = self.field.tables()
        le = log[elem.mask]
        return _wrap(self.field, [exp[log[c] + le] if c else 0 for c in self._m])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if not e:
            return Poly.one(self.field)
        r = self  # the top bit; then square, and multiply per set bit below it
        for bit in bin(e)[3:]:
            r = r * r
            if bit == "1":
                r = r * self
        return r

    def __divmod__(self, other):
        self._check(other)
        if not other._m:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._m) < len(other._m):
            return _wrap(self.field, []), self
        quo, rem = divmod_masks(self.field, self._m, other._m)
        return _wrap(self.field, quo), _wrap(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def xgcd(self, other):
        """Extended gcd: returns (g, s, t) with s*self + t*other = g, g monic."""
        f = self.field
        a, b = self, other
        sa, sb = Poly.one(f), Poly.zero(f)
        ta, tb = Poly.zero(f), Poly.one(f)
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            sa, sb = sb, sa - q * sb
            ta, tb = tb, ta - q * tb
        if a.is_zero():
            return a, sa, ta
        inv = a.leading().inverse()
        return a.scale(inv), sa.scale(inv), ta.scale(inv)

    def evaluate(self, x):
        self._check(x)
        exp, log = self.field.tables()
        return FieldElement(self.field, evaluate_masks(exp, log, self._m, x.mask))

    def map(self, emb):
        if emb.source != self.field:
            raise FieldMismatchError("embedding source does not match polynomial field")
        return _wrap(emb.target, [emb.image_mask(c) for c in self._m])

def solve_linear(p):
    """The root of a degree-1 polynomial."""
    if p.degree != 1:
        raise ValueError(f"solve_linear needs degree 1, got {p.degree}")
    return p[0] / p[1]


def solve_quadratic(p):
    """Roots of a degree-2 polynomial over a binary field: the boxed form
    of `monic_quadratic_roots` for p made monic.

    Returns (roots, field, emb) where roots live in `field` (the input
    field, or its default quadratic extension when the Artin-Schreier
    trace obstructs) and emb maps the input field there.  The roots are
    ascending in mask order and carry multiplicity (a double root appears
    twice).
    """
    if p.degree != 2:
        raise ValueError(f"solve_quadratic needs degree 2, got {p.degree}")
    field = p.field
    c, b, a = p._m
    inv = field.inv_mask(a)
    ys, ext, emb = monic_quadratic_roots(field, field.mul_masks(b, inv), field.mul_masks(c, inv))
    return [FieldElement(ext, y) for y in ys], ext, embed(field, field) if emb is None else emb
