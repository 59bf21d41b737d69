"""Degree-0 divisor class arithmetic on the curve family.

Classes are reduced Mumford pairs (u, v) of coefficient-mask tuples: u
monic of degree <= 2, deg v < deg u, and u | v^2 + v h + f, over an
explicit coordinate field containing the curve base field.  The group law
runs on masks with the curve's memoised (h, f), `Curve.equation_masks`.
A sum takes the first route that fits its inputs:

    identity     one side has u = 1: the other side is returned
    opposite     u1 = u2 and u | v1 + v2 + h: the identity
    closed form  a coprime addition (Res(u1, u2) != 0) or a doubling
                 (Res(u, h) != 0), of any degrees, and a quadratic class
                 plus a point over one of its roots: U = u1 w, V = v1 + s u1,
                 already reduced when deg U = 2 (the chord and the tangent),
                 else reduced in the same step from the quadratic class's
                 cofactor, after Lange, AAECC 15 (2005), and Lange-Stevens,
                 SAC 2004 (`_closed_form_sum`); straight-line when both
                 classes are quadratic (the (2, 2) doubling and addition)
    split        every other (2, 2) sum: u2 shares a root with u1, a
                 doubling has Res(u, h) = 0, or u1 = u2 with v1 != v2 (else
                 equal or opposite); each makes u2's roots rational, and the
                 second class's two points add one at a time by closed forms

The cofactor (v^2 + v h + f) / u of a class, f for the identity, is the
quotient that the Mumford check of `_validate` computes on every class;
the class keeps it, so the closed form's division by w = u2 (add) or
w = u1 (double) needs no second v^2 + v h + f.  That reduction is an exact
division that raises when it leaves a remainder.
The hot paths are straight-line code on table logs, with no helper call
per product: the (2, 2) closed form, whose doubling and addition differ
only in the n, r and w of the slope (`_slope_mod_quadratic`), and the
Mumford check of `_validate` for deg u = 2.  Everywhere else
v^2 + v h + f has one routine, `_mumford`, and every division by a u of
degree <= 2 is the package's synthetic division, `poly.divmod_masks`; the
tests hold the straight-line code to those and to the Poly route.
Negation is (u, (v + h) mod u).  The independent Riemann-Roch
interpolation oracle in `functions.reduce_points_oracle` guards all of
this in the tests.
"""

from itertools import zip_longest
from math import gcd

from .curve import _check_square, _counted_lpolynomial, jacobian_order_from_lpoly
from .errors import (
    DegreeCapError,
    FieldMismatchError,
    InconsistencyError,
    SearchExhaustedError,
)
from .functions import _merge_points, principal_witness_core, reduce_points_oracle
from .gf2 import _prime_factors, default_field, embed, join_fields, quadratic_root_masks, trace_mask
from .poly import Poly, affine_span, divmod_masks, evaluate_masks, solve_additive, solve_quadratic


class FormalDivisor:
    """A formal sum of curve points with integer multiplicities.

    Entries are merged by point and dropped at multiplicity 0; the point at
    infinity is kept as an ordinary entry.  Degree bookkeeping is exact.
    """

    __slots__ = ("curve", "entries")

    def __init__(self, curve, entries):
        entries = list(entries)
        for p, _ in entries:
            if not curve.same_model(p.curve):
                raise FieldMismatchError("divisor point on a different curve model")
        self.curve = curve
        self.entries = tuple(_merge_points(entries))

    def degree(self):
        return sum(m for _, m in self.entries)

    def __add__(self, other):
        return FormalDivisor(self.curve, list(self.entries) + list(other.entries))

    def lift_to_common_field(self):
        """(field, affine entries lifted, infinity multiplicity)."""
        affine = [(p, m) for p, m in self.entries if not p.is_infinity()]
        field = self.curve.field
        for p, _ in affine:
            field, _, _ = join_fields(field, p.field)
        inf = sum(m for p, m in self.entries if p.is_infinity())
        return field, [(p.lift(field), m) for p, m in affine], inf

    def __repr__(self):
        return "Div(" + " + ".join(f"{m}*{p!r}" for p, m in self.entries) + ")"


class JacobianClass:
    """A reduced divisor class in Mumford form over an explicit field.

    u and v are trimmed tuples of coefficient masks over `field`, lowest
    degree first, as `Poly.masks` gives them.  `cofactor` is the list of
    masks of (v^2 + v h + f) / u that `_validate` computes; it is a cache
    and enters neither `key`, equality nor the hash."""

    __slots__ = ("curve", "field", "u", "v", "cofactor")

    def __init__(self, curve, field, u, v):
        self.curve = curve
        self.field = field
        self.u = u
        self.v = v
        self.cofactor = self._validate()

    def _validate(self):
        """Check the pair, and return its cofactor (v^2 + v h + f) / u."""
        u, v, field = self.u, self.v, self.field
        masks = u + v
        if masks and (min(masks) < 0 or max(masks) >= field.order):
            raise ValueError(f"coefficient mask out of range for {field!r}")
        if not u or u[-1] != 1:
            raise ValueError("u must be monic")
        if len(u) > 3:
            raise ValueError("not reduced: deg u > 2")
        if len(v) >= len(u):
            raise ValueError("v must have degree < deg u")
        if v and not v[-1]:
            raise ValueError("v must be trimmed")
        if field.degree % self.curve.field.degree:
            raise FieldMismatchError("class field does not contain the curve base field")
        h, f = self.curve.equation_masks(field)
        if len(u) == 1:  # u = 1 divides v^2 + v h + f = f
            return list(f)
        exp, log = field.tables()
        if len(u) == 2:
            quo, rem = divmod_masks(field, _mumford(exp, log, h, f, v), u)
            if any(rem):
                raise ValueError("Mumford condition u | v^2 + v h + f fails")
            return quo
        # deg u = 2, written out: f0..f5 become v^2 + v h + f, then its
        # quotient by u = x^2 + a1 x + a0 in f2..f5 and the remainder in f0, f1
        (a0, a1, _), (h0, h1, h2), (f0, f1, f2, f3, f4, f5) = u, h, f
        c0, c1 = (v + (0, 0))[:2]
        if c0:
            lc = log[c0]
            f0 ^= exp[lc + lc] ^ (exp[lc + log[h0]] if h0 else 0)
            f1 ^= exp[lc + log[h1]] if h1 else 0
            f2 ^= exp[lc + log[h2]]  # h2 != 0, as h is trimmed
        if c1:
            lc = log[c1]
            f1 ^= exp[lc + log[h0]] if h0 else 0
            f2 ^= exp[lc + lc] ^ (exp[lc + log[h1]] if h1 else 0)
            f3 ^= exp[lc + log[h2]]
        la0, la1 = log[a0], log[a1]
        lc = log[f5]  # f5 != 0 on the family
        f4 ^= exp[lc + la1] if a1 else 0
        f3 ^= exp[lc + la0] if a0 else 0
        if f4:
            lc = log[f4]
            f3 ^= exp[lc + la1] if a1 else 0
            f2 ^= exp[lc + la0] if a0 else 0
        if f3:
            lc = log[f3]
            f2 ^= exp[lc + la1] if a1 else 0
            f1 ^= exp[lc + la0] if a0 else 0
        if f2:
            lc = log[f2]
            f1 ^= exp[lc + la1] if a1 else 0
            f0 ^= exp[lc + la0] if a0 else 0
        if f0 or f1:
            raise ValueError("Mumford condition u | v^2 + v h + f fails")
        return [f2, f3, f4, f5]

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, curve, field):
        return cls(curve, field, (1,), ())

    @classmethod
    def from_point(cls, p):
        """The class of P - infinity."""
        if p.is_infinity():
            return cls.identity(p.curve, p.curve.field)
        return cls(p.curve, p.field, (p.x.mask, 1), (p.y.mask,) if p.y.mask else ())

    def is_identity(self):
        return len(self.u) == 1

    # -- group law -------------------------------------------------------------
    def __add__(self, other):
        curve, field = self.curve, self.field
        if other.curve is not curve and not curve.same_model(other.curve):
            raise FieldMismatchError("classes on different curve models")
        if other.field is not field and other.field != field:
            raise FieldMismatchError("classes over different fields: lift both to one field first")
        u1, v1, u2, v2, k = self.u, self.v, other.u, other.v, self.cofactor
        if len(u1) == 1:
            return other if other.curve is curve else other.retag(curve)
        if len(u2) == 1:
            return self
        if len(u1) < len(u2):  # the quadratic class first: a sum commutes
            u1, v1, u2, v2, k = u2, v2, u1, v1, other.cofactor
        h, f = curve.equation_masks(field)
        r = None
        if u1 == u2:
            if v1 == v2 and len(u1) == 3:  # h mod u = h + h2 u, as deg h = 2
                exp, log = field.tables()
                lh, (a0, a1, _) = log[h[2]], u1
                r = [h[0] ^ (exp[log[a0] + lh] if a0 else 0), h[1] ^ (exp[log[a1] + lh] if a1 else 0)]
            else:
                r = divmod_masks(field, h if v1 == v2 else _xor(_xor(v1, v2), h), u1)[1]
            if not any(r):
                return JacobianClass.identity(curve, field)  # other = -self
        uv = _closed_form_sum(field, h, f, k, r, u1, v1, u2, v2)
        if uv is not None:
            return JacobianClass(curve, field, *uv)
        # the split: u2 = (x + x1)(x + x1 + b1), and each point is a (2, 1)
        # or (1, 1) sum with a closed form
        exp, log = field.tables()
        x1 = quadratic_root_masks(field, u2[1], u2[0])[0]
        out = self
        for x in (x1, x1 ^ u2[1]):
            y = _trim([evaluate_masks(exp, log, v2, x)])
            out = out + JacobianClass(curve, field, (x, 1), y)
        return out

    def neg(self):
        field, u = self.field, self.u
        h = self.curve.equation_masks(field)[0]
        v = divmod_masks(field, _xor(self.v, h), u)[1]
        return JacobianClass(self.curve, field, u, _trim(v))

    def __sub__(self, other):
        return self + other.neg()

    def mul_int(self, k):
        if k < 0:
            return self.neg().mul_int(-k)
        acc, base = None, self
        while k:
            if k & 1:
                acc = base if acc is None else acc + base
            k >>= 1
            if k:
                base = base + base
        return JacobianClass.identity(self.curve, self.field) if acc is None else acc

    # -- comparisons / transport -------------------------------------------------
    def key(self):
        return (self.u, self.v)

    def lift(self, field):
        if field == self.field:
            return self
        emb = embed(self.field, field)
        u, v = (tuple(emb.image_mask(m) for m in p) for p in (self.u, self.v))
        return JacobianClass(self.curve, field, u, v)

    def equals(self, other):
        """Equality of classes over any two fields.  The reduced pair is
        unique, so equal classes have their coefficients in both fields:
        when one field contains the other, the smaller key is mapped up;
        otherwise both keys descend to GF(2^gcd), and a coefficient
        outside it makes the classes unequal.  No compositum is built."""
        if not self.curve.same_model(other.curve):
            return False
        if self.field == other.field:
            return self.key() == other.key()
        small, big = sorted((self, other), key=lambda c: c.field.degree)
        if big.field.degree % small.field.degree == 0:
            image = embed(small.field, big.field).image_mask
            return tuple(map(image, small.u)) == big.u and tuple(map(image, small.v)) == big.v
        sub = default_field(gcd(self.field.degree, other.field.degree))

        def descend(c):
            preimage = embed(sub, c.field).preimage
            elems = [preimage(c.field.element(m)) for m in c.u + c.v]
            return None if None in elems else (len(c.u), [e.mask for e in elems])

        key = descend(self)
        return key is not None and key == descend(other)

    def __eq__(self, other):
        if not isinstance(other, JacobianClass):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        # equality holds across fields, so hash only what an embedding
        # keeps: the multiplicative order of each coefficient, 0 for zero
        n = self.field.order - 1
        log = self.field.tables()[1]
        u, v = (tuple(n // gcd(log[c], n) if c else 0 for c in p) for p in (self.u, self.v))
        return hash((self.curve.field, self.curve.effective_t, u, v))

    def retag(self, curve):
        if not self.curve.same_model(curve):
            raise ValueError("retag requires an identical curve model")
        return JacobianClass(curve, self.field, self.u, self.v)

    def __repr__(self):
        return f"Jac(u={self.u!r}, v={self.v!r})"

    # -- support ------------------------------------------------------------------
    def support(self):
        """[(point, mult)] over this field or its quadratic extension,
        together with the field where the support splits."""
        curve, fld = self.curve, self.field
        u, v = (Poly.from_masks(fld, m) for m in (self.u, self.v))
        if u.degree == 0:
            return [], fld
        if u.degree == 1:
            x0 = u[0]
            p = curve.point(x0, v.evaluate(x0))
            return [(p, 1)], fld
        roots, fld2, emb = solve_quadratic(u)
        v = v if fld2 == fld else v.map(emb)
        if roots[0] == roots[1]:
            p = curve.point(roots[0], v.evaluate(roots[0]))
            return [(p, 2)], fld2
        out = [(curve.point(r, v.evaluate(r)), 1) for r in roots]
        return out, fld2

    def to_divisor(self):
        support, _ = self.support()
        deg = sum(m for _, m in support)
        return FormalDivisor(self.curve, support + [(self.curve.infinity(), -deg)])


def _mumford(exp, log, h, f, v):
    """v^2 + v h + f as a list of coefficient masks, for mask sequences h, f, v
    over the field with tables (exp, log)."""
    out = list(f) + [0] * (max(2 * len(v), len(v) + len(h)) - 1 - len(f))
    for i, c in enumerate(v):
        if c:
            lc = log[c]
            out[2 * i] ^= exp[2 * lc]
            for j, e in enumerate(h, i):
                if e:
                    out[j] ^= exp[lc + log[e]]
    return out


def _xor(a, b):
    """The sum of two coefficient-mask sequences, as a list."""
    return [x ^ y for x, y in zip_longest(a, b, fillvalue=0)]


def _trim(masks):
    while masks and not masks[-1]:
        masks.pop()
    return tuple(masks)


def _monic_pair(field, quo, vh):
    """The reduced pair (U', V') of a reduction step's quotient, as trimmed
    tuples: U' = quo made monic, V' = vh mod U' for vh = V + h."""
    exp, log = field.tables()
    quo = _trim(quo)
    li = log[field.inv_mask(quo[-1])]
    u = tuple(exp[log[c] + li] if c else 0 for c in quo)
    return u, _trim(divmod_masks(field, vh, u)[1])


def _closed_form_sum(field, h, f, k, r, u1, v1, u2, v2):
    """The reduced pair of (u1, v1) + (u2, v2), coefficient-mask tuples like
    h and f with deg u1 >= deg u2, as trimmed tuples; None for a (2, 2) sum
    whose u2 shares a root with u1, a (2, 2) doubling with Res(u, h) = 0,
    and u1 = u2 with v1 != v2 (not opposite).  k = (v1^2 + v1 h + f) / u1
    is the first class's cofactor, and r = (v1 + v2 + h) mod u1 when u1 = u2
    (the caller's opposite test; h mod u for a doubling).  The composition
    is U = u1 w, V = v1 + s u1, with w = u2 to add and w = u1 to double, and
    s = n r^-1 mod w:
        add:    s = (v1 + v2) (u1 mod w)^-1 mod w
        double: s = (k mod u) (h mod u)^-1 mod u
    a scalar n(b0) / r(b0) for w = x + b0, else `_slope_mod_quadratic`.
    When x + b0 | u1, n(b0) is h(b0) and the points over b0 cancel, leaving
    (x + e, v1(e)) at u1's other root e = a1 + b0, or 0 and the point
    repeats: then the slope's n, r = k(b0), h(b0) make V tangent there.
    When deg U = 2 the pair is already reduced: the chord, with slope
    (y1 + y2) / (x1 + x2), and the tangent, with slope k(x1) / h(x1), as
    k(x1) = f'(x1) + h'(x1) y1 is the derivative of v1^2 + v1 h + f at x1.
    Else deg u1 = 2, and as V^2 + V h + f = u1 (k + s h + s^2 u1), one exact
    synthetic division by w reduces it: U' = (k + s h + s^2 u1) / w made
    monic, V' = (V + h) mod U'; for deg w = 2 the slope, the division and
    (U', V') are written out, and U' has degree 1 exactly when s1 = 0.  A
    remainder raises, as U | V^2 + V h + f fails.  A doubling or a repeated
    point solves s from k, so its division is exact whatever k holds.  As
    deg(v1^2 + v1 h) <= 3, the top of u1 k is f's: k[-1] = f5 and k[-2] =
    f4 + a f5, for a the coefficient of u1 below its leading one, and every
    sum but the chord reads k and raises first when k breaks this; below
    them only the Mumford check of the result sees a wrong k in those two."""
    exp, log = field.tables()
    a0, b0, a = u1[0], u2[0], u1[-2]
    if (len(u1) == 3 or u1 == u2) and (
            k[-1] != f[5] or k[-2] != f[4] ^ (exp[log[a] + log[f[5]]] if a and f[5] else 0)):
        raise InconsistencyError("cofactor's top coefficients disagree with u and f")
    if len(u1) == 2:  # deg U = 2, the chord or the tangent: already reduced
        # products inline: building and calling `mul` would slow these short sums
        y1 = v1[0] if v1 else 0
        if u1 != u2:  # n = y1 + y2, r = x1 + x2
            n, r = y1 ^ (v2[0] if v2 else 0), a0 ^ b0
        else:  # n = k(x1), r = h(x1)
            n, r = evaluate_masks(exp, log, k, a0), r[0]
        s = exp[log[n] + field.order - 1 - log[r]] if n else 0
        return ((exp[log[a0] + log[b0]] if a0 and b0 else 0, a0 ^ b0, 1),
                _trim([y1 ^ (exp[log[s] + log[a0]] if s and a0 else 0), s]))

    (c0, c1), a1, p = (v1 + (0, 0))[:2], u1[1], field.order - 1
    if len(u2) == 2:  # add with w = x + b0: s = n(b0) / r(b0) is a scalar
        def mul(x, y):
            return exp[log[x] + log[y]] if x and y else 0

        n, r = c0 ^ mul(c1, b0) ^ (v2[0] if v2 else 0), a0 ^ mul(b0, a1 ^ b0)
        if not r:  # a point of the first class lies over b0
            hb = evaluate_masks(exp, log, h, b0)
            if n == hb:  # it cancels the second class's point
                e = a1 ^ b0
                return (e, 1), _trim([c0 ^ mul(c1, e)])
            n, r = evaluate_masks(exp, log, k, b0), hb
        s, (h0, h1, h2) = exp[log[n] + p - log[r]] if n else 0, h
        q = mul(s, s)
        quo, rem = divmod_masks(field, [
            k[0] ^ mul(q, a0) ^ mul(s, h0), k[1] ^ mul(q, a1) ^ mul(s, h1),
            k[2] ^ q ^ mul(s, h2), k[3]], u2)
        if any(rem):
            raise ValueError("division is not exact")
        return _monic_pair(field, quo, [  # V + h, V = v1 + s u1
            c0 ^ mul(s, a0) ^ h0, c1 ^ mul(s, a1) ^ h1, s ^ h2])
    # deg w = 2, written out: each product is one lookup exp[log x + log y].
    # exp has length 2p and period p = order - 1, so with Python's negative
    # indices exp[i] = g^i for all -2p <= i < 2p: a product of three is one
    # lookup at a log sum minus p, and a quotient one at a log difference
    k0, k1, k2, k3 = k
    la0, la1 = log[a0], log[a1]
    if u1 != u2:  # add: w = u2, n = (v1 + v2) mod w, r = u1 mod w
        (d0, d1), b1 = (v2 + (0, 0))[:2], u2[1]
        s = _slope_mod_quadratic(exp, log, p, c0 ^ d0, c1 ^ d1, a0 ^ b0, a1 ^ b1, b0, b1)
    elif v1 == v2:  # double: w = u1, n = k mod w, r = h mod w
        b1, lk = a1, log[k3]  # k3 = f5 != 0
        t = k2 ^ (exp[lk + la1] if a1 else 0)
        lt = log[t]
        s = _slope_mod_quadratic(
            exp, log, p, k0 ^ (exp[lt + la0] if t and a0 else 0),
            k1 ^ (exp[lk + la0] if a0 else 0) ^ (exp[lt + la1] if t and a1 else 0),
            r[0], r[1], a0, a1)
    else:
        return None
    if s is None:
        return None
    (s0, s1), (h0, h1, h2) = s, h  # h2 != 0, as h is trimmed
    l0, l1, lb0, lb1 = log[s0], log[s1], log[b0], log[b1]
    # N = k + s h + s^2 u1, s^2 = s1^2 x^2 + s0^2, then N / w: N4 = s1^2
    # reduces first, then N3 (k3), then N2 (k2), and the remainder is k1 x + k0
    if s0:
        k0 ^= (exp[l0 + l0 + la0 - p] if a0 else 0) ^ (exp[l0 + log[h0]] if h0 else 0)
        k1 ^= (exp[l0 + l0 + la1 - p] if a1 else 0) ^ (exp[l0 + log[h1]] if h1 else 0)
        k2 ^= exp[l0 + l0] ^ exp[l0 + log[h2]]
    if s1:
        k1 ^= exp[l1 + log[h0]] if h0 else 0
        k2 ^= ((exp[l1 + l1 + la0 - p] if a0 else 0) ^ (exp[l1 + log[h1]] if h1 else 0)
               ^ (exp[l1 + l1 + lb0 - p] if b0 else 0))
        k3 ^= ((exp[l1 + l1 + la1 - p] if a1 else 0) ^ exp[l1 + log[h2]]
               ^ (exp[l1 + l1 + lb1 - p] if b1 else 0))
    l3 = log[k3]
    if k3:
        k2 ^= exp[l3 + lb1] if b1 else 0
        k1 ^= exp[l3 + lb0] if b0 else 0
    if k2:
        l2 = log[k2]
        k1 ^= exp[l2 + lb1] if b1 else 0
        k0 ^= exp[l2 + lb0] if b0 else 0
    if k0 or k1:
        raise ValueError("division is not exact")
    # the quotient s1^2 x^2 + k3 x + k2, made monic, is U'; V' = (V + h) mod U'
    # for V + h = s1 x^3 + m2 x^2 + m1 x + m0, V = v1 + s u1
    m0 = c0 ^ h0 ^ (exp[l0 + la0] if s0 and a0 else 0)
    m1 = c1 ^ h1 ^ (exp[l1 + la0] if s1 and a0 else 0) ^ (exp[l0 + la1] if s0 and a1 else 0)
    m2 = s0 ^ h2 ^ (exp[l1 + la1] if s1 and a1 else 0)
    if not s1:  # k3 = f5 != 0: U' = x + e, V' = (V + h)(e)
        e = exp[log[k2] - l3] if k2 else 0
        if e:
            le = log[e]
            m1 ^= exp[log[m2] + le] if m2 else 0
            m0 ^= exp[log[m1] + le] if m1 else 0
        return (e, 1), (m0,) if m0 else ()
    e0, e1 = exp[log[k2] - l1 - l1] if k2 else 0, exp[l3 - l1 - l1] if k3 else 0
    le0, le1 = log[e0], log[e1]
    m2 ^= exp[l1 + le1] if e1 else 0
    m1 ^= exp[l1 + le0] if e0 else 0
    if m2:
        lm = log[m2]
        m1 ^= exp[lm + le1] if e1 else 0
        m0 ^= exp[lm + le0] if e0 else 0
    return (e0, e1, 1), (m0, m1) if m1 else (m0,) if m0 else ()


def _slope_mod_quadratic(exp, log, p, n0, n1, r0, r1, b0, b1):
    """n / r mod w = x^2 + b1 x + b0 for n = n1 x + n0 and r = r1 x + r0,
    coefficient masks over the field with tables (exp, log) and p = order - 1,
    as a mask pair (s0, s1); None when r and w share a root.  Modulo w, r
    has the inverse (r1 x + e) / rho, with e = r0 + r1 b1 and rho = r0 e +
    r1^2 b0, which is zero exactly when r and w share a root; then, with
    x^2 = b1 x + b0 and t = n1 r1 / rho, s = (n0 r1 + n1 e) / rho + t b1 x
    + n0 e / rho + t b0.  exp[i] = g^i for -2p <= i < 2p, negative indices
    included, so a product over a quotient is one lookup."""
    lr1, lb0, lb1 = log[r1], log[b0], log[b1]
    e = r0 ^ (exp[lr1 + lb1] if r1 and b1 else 0)
    le = log[e]
    rho = (exp[log[r0] + le] if r0 and e else 0) ^ (exp[lr1 + lr1 + lb0 - p] if r1 and b0 else 0)
    if not rho:
        return None
    lr, ln0, ln1 = log[rho], log[n0], log[n1]
    t = exp[ln1 + lr1 - lr] if n1 and r1 else 0
    lt = log[t]
    return ((exp[ln0 + le - lr] if n0 and e else 0) ^ (exp[lt + lb0] if t and b0 else 0),
            (exp[ln0 + lr1 - lr] if n0 and r1 else 0) ^ (exp[ln1 + le - lr] if n1 and e else 0)
            ^ (exp[lt + lb1] if t and b1 else 0))


# ---------------------------------------------------------------------------
# Building classes from divisors.

def class_of(divisor):
    """The reduced Mumford class of a degree-0 formal divisor (group law)."""
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    field, affine, _inf = divisor.lift_to_common_field()
    acc = None  # as in mul_int: no sum with the identity
    for p, m in affine:
        term = JacobianClass.from_point(p).mul_int(m)
        acc = term if acc is None else acc + term
    if acc is None:
        return JacobianClass.identity(divisor.curve, field)
    return acc if acc.curve is divisor.curve else acc.retag(divisor.curve)


def oracle_class_of(divisor):
    """The same class via the interpolation oracle (independent of Cantor).

    Negative multiplicities are folded through the involution first:
    -(P - inf) ~ (iota P - inf).
    """
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    field, affine, _inf = divisor.lift_to_common_field()
    effective = [(p, m) if m >= 0 else (p.hyperelliptic_involution(), -m) for p, m in affine]
    u, v, fld = reduce_points_oracle(divisor.curve, field, effective)
    return JacobianClass(divisor.curve, fld, u.masks(), v.masks())


def principal_witness(divisor):
    """An explicit function with divisor exactly `divisor`, or None.

    The witness is psi/chi with psi found by linear algebra in the
    Riemann-Roch space L(N*infinity) and verified exactly; see
    `functions.principal_witness_core`.
    """
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    field, affine, inf = divisor.lift_to_common_field()
    return principal_witness_core(divisor.curve, field, affine, inf)


# ---------------------------------------------------------------------------
# Group orders: zeta bookkeeping cross-checked by enumeration.

_order_cache = {}


def group_order(curve, field):
    """#J(field), from the L-polynomial; for #field <= 64 the value is
    cross-checked against exhaustive Mumford enumeration, before the
    L-polynomial's square check of `lpolynomial`, which a count fault would
    otherwise reach first.  The checked
    value is memoised per (curve model, field) in `_order_cache`, so each
    enumeration runs once per process."""
    d = curve.field.degree
    if field.degree % d:
        raise FieldMismatchError("field is not an extension of the curve base field")
    key = (curve.field, curve.effective_t, field)
    if key in _order_cache:
        return _order_cache[key]
    s1, s2 = _counted_lpolynomial(curve)
    n = jacobian_order_from_lpoly(s1, s2, curve.field.order, field.degree // d)
    if field.order <= 64:
        counted = count_classes(curve, field)
        if counted != n:
            raise InconsistencyError(f"zeta order {n} disagrees with enumerated count {counted}")
    _check_square(s1, s2, curve.field.order)
    _order_cache[key] = n
    return n


def _v_solution_space(curve, field, u):
    """Solutions v (deg v < deg u) of u | v^2 + v h + f: None when
    unsolvable, else (particular, kernel) as Polys (see `solve_additive`)."""
    # Not the memo: bench/test_bench.py asserts gf2.mul.count > 0 on torsion
    # units, and the boxed t^2 of equation_polys is the only FieldElement
    # product left on that path.  Read the memo once that assertion moves.
    h, f = curve.equation_polys(field)
    return solve_additive(u.degree, h, f, u)


def _solvable_quadratics(curve, field):
    """(u, particular, kernel) for every monic quadratic u, in mask order of
    (u1, u0), for which some v has u | v^2 + v h + f over `field`."""
    h, f = (Poly.from_masks(field, m) for m in curve.equation_masks(field))
    for u1m in range(field.order):
        for u0m in range(field.order):
            u = Poly.from_masks(field, (u0m, u1m, 1))
            sol = solve_additive(2, h, f, u)
            if sol is not None:
                yield u, *sol


def _degree_two_classes(curve, field):
    """Every class with deg u = 2 over `field`: u in the order of
    `_solvable_quadratics`, then v in the combo-bit order of `affine_span`."""
    for u, part, kernel in _solvable_quadratics(curve, field):
        for v in affine_span(part, kernel):
            yield JacobianClass(curve, field, u.masks(), v.masks())


def count_classes(curve, field):
    """Exhaustive count of reduced Mumford pairs over `field`.  Degree-1
    classes are the affine points found by solving for y, not by the trace
    criterion of `count_points`, which feeds the zeta side of `group_order`;
    degree-2 classes come from the full Mumford solve of every u, never
    from `_solvable_by_trace`."""
    if field.order > 64:
        raise DegreeCapError("class enumeration is for #field <= 64")
    total = 1  # the identity (u, v) = (1, 0)
    total += sum(1 for _ in curve._affine_point_masks(field))  # degree-1 classes
    quadratics = _solvable_quadratics(curve, field)
    return total + sum(1 << len(kernel) for _, _, kernel in quadratics)


def enumerate_classes(curve, field):
    """All classes over a small field (order <= 64), as JacobianClass values:
    the identity, then the degree-1 classes P - infinity from the affine
    points of `count_classes`'s walk, (x, y) ascending, then the degree-2
    classes."""
    if field.order > 64:
        raise DegreeCapError("class enumeration is for #field <= 64")
    degree_one = [
        JacobianClass(curve, field, (x, 1), (y,) if y else ())
        for x, y in sorted(curve._affine_point_masks(field))
    ]
    return [JacobianClass.identity(curve, field), *degree_one, *_degree_two_classes(curve, field)]


def _solvable_by_trace(field, h, f, u0, u1):
    """Whether v^2 + v h = f has a solution v mod u = x^2 + u1 x + u0 (h, f
    coefficient masks, deg h = 2), by the trace criterion; None when h is
    not a unit mod u, which for h = x^2 + x means u0 = 0 or u(1) = 0.

    With v = h z the equation is z^2 + z = c, c = f h^-2 mod u = c1 x + c0,
    in F[x]/(u).  If u1 = 0, u = (x + s)^2 with s = sqrt(u0), and that is
    solvable iff Tr(c0 + c1 s) = 0.  Else u has roots r, r + u1 and c(r) +
    c(r + u1) = c1 u1: irreducible u (Tr(u0 / u1^2) = 1) needs only
    Tr(c1 u1) = 0, and split u also Tr(c(r)) = 0 at a root r (either root,
    once Tr(c1 u1) = 0).
    Only `random_class` may call this: the enumeration behind `group_order`
    checks the zeta side, which rests on the same trace criterion."""
    mul, tm = field.mul_masks, trace_mask(field)

    def tr(x):
        return (x & tm).bit_count() & 1

    p0, p1 = h[0] ^ mul(h[2], u0), h[1] ^ mul(h[2], u1)  # h mod u
    sq = mul(p1, p1)  # h^2 = p1^2 (u1 x + u0) + p0^2 mod u
    exp, log = field.tables()
    c = _slope_mod_quadratic(exp, log, field.order - 1, *divmod_masks(field, f, (u0, u1, 1))[1],
                             mul(sq, u0) ^ mul(p0, p0), mul(sq, u1), u0, u1)
    if c is None:
        return None
    c0, c1 = c
    if not u1:
        return not tr(c0 ^ mul(c1, field.pow_mask(u0, field.order >> 1)))
    if tr(mul(c1, u1)):
        return False
    inv = field.inv_mask(u1)
    if tr(mul(u0, mul(inv, inv))):  # u irreducible
        return True
    return not tr(c0 ^ mul(c1, quadratic_root_masks(field, u1, u0)[0]))


def random_class(curve, field, rng):
    """A random class with deg u = 2: u = x^2 + u1 x + u0 is drawn, u0 then
    u1 by two field.random(rng) calls, until its Mumford equation for v is
    solvable (every monic u is reachable, split or not), then v is the
    particular solution plus each kernel vector for which one
    rng.randrange(2), drawn in kernel order, is 1.  No other rng value is
    drawn.  The trace criterion (`_solvable_by_trace`) rejects most
    unsolvable u before the solve; an accepted u still runs the full solve,
    and a u it accepts that has no solution raises InconsistencyError."""
    h, f = curve.equation_masks(field)
    while True:
        u0, u1 = field.random(rng).mask, field.random(rng).mask
        by_trace = _solvable_by_trace(field, h, f, u0, u1)
        if by_trace is False:
            continue
        u = (u0, u1, 1)
        sol = _v_solution_space(curve, field, Poly.from_masks(field, u))
        if sol is None:
            if by_trace:
                raise InconsistencyError(
                    "trace criterion accepted u, but v^2 + v h = f has no solution mod u")
            continue
        v, kernel = sol
        for k in kernel:
            if rng.randrange(2):
                v = v + k
        return JacobianClass(curve, field, u, v.masks())


# ---------------------------------------------------------------------------
# Torsion.

def two_torsion(curve, field):
    """All 2-torsion classes over `field`: reduced (u, v) with u | h.

    Complete by uniqueness of the reduced form: c = -c iff u | h.
    """
    out = [JacobianClass.identity(curve, field)]
    for masks in ((0, 1), (1, 1), (0, 1, 1)):  # x, x + 1, x^2 + x = h
        sol = _v_solution_space(curve, field, Poly.from_masks(field, masks))
        if sol is None:
            continue
        for v in affine_span(*sol):
            c = JacobianClass(curve, field, masks, v.masks())
            if c.neg().key() == c.key():
                out.append(c)
    for c in out:
        if not c.mul_int(2).is_identity():
            raise InconsistencyError("2-torsion filter produced a non-torsion class")
    return out


def _subgroup_closure(elements, new):
    """Closure of an abelian subgroup dict under one new generator."""
    powers = []
    acc = new
    while not acc.is_identity():
        powers.append(acc)
        acc = acc + new
    out = dict(elements)
    for s in list(elements.values()):
        for p in powers:
            t = s + p
            out[t.key()] = t
    return out


def sylow_subgroup(curve, field, r):
    """The full Sylow-r subgroup of J(field), with a completeness proof:
    generation stops only when the subgroup order reaches r^v_r(#J).

    The generators are the cofactor multiples of the degree-2 classes, taken
    in the order `enumerate_classes` lists them, so the result does not
    depend on any seed; a walk that runs out first raises."""
    if _prime_factors(r) != [r]:
        raise ValueError(f"Sylow subgroup needs a prime r, got {r}")
    n = group_order(curve, field)
    target = 1
    while n % (target * r) == 0:
        target *= r
    if target > 3 ** 9:
        raise SearchExhaustedError(f"Sylow-{r} subgroup too large to enumerate ({target})")
    ident = JacobianClass.identity(curve, field)
    group = {ident.key(): ident}
    cofactor = n // target
    walk = _degree_two_classes(curve, field)
    while len(group) < target:
        c = next(walk, None)
        if c is None:
            raise SearchExhaustedError(f"Sylow-{r} generation incomplete: {len(group)} of {target}")
        x = c.mul_int(cofactor)
        if x.key() in group:
            continue
        group = _subgroup_closure(group, x)
        if len(group) > target:
            raise InconsistencyError("Sylow subgroup exceeded its order bound")
    return list(group.values())


def torsion_subgroup(curve, r, k):
    """All r-torsion classes over GF(q^j) for increasing j <= k.

    Deterministic: for r = 3 each field's Sylow subgroup comes from the
    walk of `sylow_subgroup`, so two calls return the same classes in the
    same order.

    Returns (classes, stabilized_j, counts): `classes` are the r-torsion
    classes over the stabilization field (or the last searched field),
    `stabilized_j` is the first j whose count hits the geometric bound
    (r^(2g) in general; 2^g for r = 2 = char), or None.
    """
    if r not in (2, 3):
        raise ValueError("torsion search supports r in {2, 3}")
    if k > 6:
        raise ValueError("torsion search bound capped at k <= 6")
    if k < 1:
        raise ValueError(f"torsion search bound needs k >= 1, got {k}")
    if curve.field.degree > 12:
        raise DegreeCapError(
            f"torsion search over GF(2^{curve.field.degree}) exceeds the degree-12 cap"
        )
    bound = 4 if r == 2 else 81
    counts = []
    best = None
    for j in range(1, k + 1):
        deg = curve.field.degree * j
        if deg > 12:
            break
        field = default_field(deg)
        if r == 2:
            classes = two_torsion(curve, field)
        else:
            syl = sylow_subgroup(curve, field, r)
            classes = [c for c in syl if c.mul_int(r).is_identity()]
        if len(classes) > r ** 4:
            raise InconsistencyError("torsion count exceeds r^(2g)")
        counts.append(len(classes))
        best = classes
        if len(classes) == bound:
            return classes, j, counts
    return best, None, counts


# ---------------------------------------------------------------------------
# Frobenius pullback of classes.

def frobenius_pullback(cls):
    """Pullback along the relative Frobenius X(n) -> X(n+1), over the
    class's field.  F is purely inseparable of degree 2, so F*P' = 2P for P
    the square-root point of P', and the coefficient-wise square root, a
    ring map fixing h, takes X(n+1) to X(n): F*[(u, v)] = 2[(sqrt u, sqrt v)]."""
    if cls.curve.n < 1:
        raise ValueError("pullback target needs twist index >= 1; retag first")
    field = cls.field
    half = field.order >> 1  # m^(q/2) is the square root of m
    u, v = (tuple(field.pow_mask(m, half) for m in p) for p in (cls.u, cls.v))
    return JacobianClass(cls.curve.twist(cls.curve.n - 1), field, u, v).mul_int(2)


# ---------------------------------------------------------------------------
# Ordinarity cross-check.

def ordinarity_check(curve):
    """Branch-point criterion vs 2-torsion count; raises on disagreement."""
    by_branch = curve.is_ordinary()
    classes, stabilized, _counts = torsion_subgroup(curve, 2, 2)
    by_torsion = len(classes) == 4 and stabilized is not None
    if by_branch != by_torsion:
        raise InconsistencyError("branch-point and 2-torsion ordinarity criteria disagree")
    return by_branch
