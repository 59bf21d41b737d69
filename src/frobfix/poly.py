"""Dense univariate polynomials and rational functions over a BinaryField.

Polynomials are normalized (no trailing zero coefficients); gcds are
monic.  Quadratics in characteristic 2 are solved through the additive
Artin-Schreier substitution rather than any discriminant formula.
"""

from .errors import FieldMismatchError
from .gf2 import artin_schreier_solve, embed, identity_embedding, solve_gf2_linear


class Poly:
    """A univariate polynomial with FieldElement coefficients (dense)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].mask == 0:
            cs.pop()
        for c in cs:
            if c.field != field:
                raise FieldMismatchError("coefficient from a different field")
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, elem):
        return cls(elem.field, (elem,))

    @classmethod
    def from_masks(cls, field, masks):
        return cls(field, tuple(field.element(m) for m in masks))

    # -- basic structure -----------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def masks(self):
        return tuple(c.mask for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.masks() == other.masks()
        )

    def __hash__(self):
        return hash((self.field.degree, self.field.modulus, self.masks()))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{hex(c.mask)}*x^{i}" for i, c in enumerate(self.coeffs) if c.mask]
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[i] + other[i] for i in range(n)))

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            if self.is_zero() or other.is_zero():
                return Poly.zero(self.field)
            out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a.mask:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b.mask:
                        out[i + j] = out[i + j] + a * b
            return Poly(self.field, out)
        return self.scale(other)

    def scale(self, elem):
        return Poly(self.field, (c * elem for c in self.coeffs))

    def __pow__(self, e):
        r = Poly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        inv_lead = other.leading().inverse()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        quo = [self.field.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            if c.mask:
                quo[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] + c * b
        return Poly(self.field, quo), Poly(self.field, rem[: other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

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
        if x.field != self.field:
            raise FieldMismatchError("evaluation point from a different field")
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        # formal derivative; in char 2 the even-degree terms vanish
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            out.append(c if i % 2 else self.field.zero())
        return Poly(self.field, out)

    def map(self, emb):
        if emb.source != self.field:
            raise FieldMismatchError("embedding source does not match polynomial field")
        return Poly(emb.target, (emb(c) for c in self.coeffs))

    def frobenius_coeffs(self):
        """Coefficient-wise squaring (x stays x)."""
        return Poly(self.field, (c * c for c in self.coeffs))


def solve_linear(p):
    """The root of a degree-1 polynomial."""
    if p.degree != 1:
        raise ValueError(f"solve_linear needs degree 1, got {p.degree}")
    return p[0] / p[1]


def solve_quadratic(p):
    """Roots of a degree-2 polynomial over a binary field.

    Returns (roots, field, emb) where roots live in `field` (the input
    field, or its default quadratic extension when the Artin-Schreier
    trace obstructs) and emb maps the input field there.  The roots list
    carries multiplicity (a double root appears twice).
    """
    if p.degree != 2:
        raise ValueError(f"solve_quadratic needs degree 2, got {p.degree}")
    f = p.field
    a, b, c = p[2], p[1], p[0]
    ident = identity_embedding(f)
    if b.mask == 0:
        r = (c / a).sqrt()
        return [r, r], f, ident
    # x = (b/a) z turns the equation into z^2 + z = ac/b^2
    d = a * c / (b * b)
    z, mult = artin_schreier_solve(f, 2, d)
    if mult == 1:
        scale = b / a
        return sorted([scale * z, scale * (z + f.one())], key=lambda e: e.mask), f, ident
    ext = z.field
    emb = embed(f, ext)
    scale = emb(b / a)
    one = ext.one()
    return sorted([scale * z, scale * (z + one)], key=lambda e: e.mask), ext, emb


def solve_additive(field, n, op, rhs):
    """Solutions z (deg z < n) over `field` of op(z) = rhs, for an additive op.

    Additive maps are GF(2)-linear, so the equation is linearized over
    GF(2): bit b of coefficient i of z is unknown i*d + b (d =
    field.degree), and every coefficient of op's images and of rhs is
    packed the same way.  Returns None when unsolvable, else (particular,
    kernel) as Polys, the kernel in the order `solve_gf2_linear` gives.
    """
    d = field.degree

    def pack(p):
        bits = 0
        for i, c in enumerate(p.coeffs):
            bits |= c.mask << (i * d)
        return bits

    def unpack(bits):
        return Poly.from_masks(field, [bits >> (i * d) & ((1 << d) - 1) for i in range(n)])

    cols = []
    for var in range(n * d):
        i, b = divmod(var, d)
        cols.append(pack(op(Poly.from_masks(field, [0] * i + [1 << b]))))
    part, kernel = solve_gf2_linear(cols, pack(rhs))
    if part is None:
        return None
    return unpack(part), [unpack(k) for k in kernel]


def affine_span(part, kernel):
    """Every part + span(kernel), in combo-bit order: bit i of the combo
    selects kernel[i]."""
    for combo in range(1 << len(kernel)):
        z = part
        for i, k in enumerate(kernel):
            if combo >> i & 1:
                z = z + k
        yield z


class RationalFunction:
    """A quotient of polynomials, kept in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.field != den.field:
            raise FieldMismatchError("numerator and denominator fields differ")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num, den = num.divexact(g), den.divexact(g)
        lead = den.leading()
        if lead.mask != 1:
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, elem):
        return cls(Poly.constant(elem))

    @classmethod
    def x(cls, field):
        return cls(Poly.x(field))

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __sub__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, e):
        if e < 0:
            return RationalFunction(self.den, self.num) ** (-e)
        return RationalFunction(self.num ** e, self.den ** e)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def evaluate(self, x):
        """Value at a point of the coefficient field; None at a pole."""
        d = self.den.evaluate(x)
        if d.mask == 0:
            return None
        return self.num.evaluate(x) / d

    def substitute(self, other):
        """Composition self(other(x)) as a rational function."""
        other = self._coerce(other)
        num_c = _compose_with_fraction(self.num, other.num, other.den)
        den_c = _compose_with_fraction(self.den, other.num, other.den)
        dn, dd = max(self.num.degree, 0), max(self.den.degree, 0)
        if dn >= dd:
            return RationalFunction(num_c, den_c * other.den ** (dn - dd))
        return RationalFunction(num_c * other.den ** (dd - dn), den_c)

    def map(self, emb):
        return RationalFunction(self.num.map(emb), self.den.map(emb))

    def as_poly(self):
        """The numerator, when the reduced denominator is 1."""
        if self.den.degree != 0 or self.den.leading().mask != 1:
            raise ValueError("rational function is not a polynomial")
        return self.num


def _compose_with_fraction(p, num, den):
    """Numerator of p(num/den) over den^deg(p)."""
    f = p.field
    if p.is_zero():
        return Poly.zero(f)
    d = p.degree
    acc = Poly.constant(p.coeffs[-1])
    for i in range(d - 1, -1, -1):
        acc = acc * num + Poly.constant(p.coeffs[i]) * den ** (d - i)
    return acc
