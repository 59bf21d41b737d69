"""Degree-0 divisor class arithmetic on the curve family.

Classes are reduced Mumford pairs (u, v) of coefficient-mask tuples: u
monic of degree <= 2, deg v < deg u, and u | v^2 + v h + f, over an
explicit coordinate field containing the curve base field.  The group law
runs on masks and assumes the family's model: h = x^2 + x, and
f = A(x^5 + x) + B x^3 = (0, A, 0, B, 0, A) with A = T^2 + T != 0 and
B = T^2, read off the curve's memo `Curve.equation_masks`.  Its kernels
keep no term that is zero on the family: h0 = f0 = f2 = f4 = 0 and
h1 = h2 = 1.  A sum takes the first route that fits its inputs:

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
division that raises when it leaves a remainder.  A sum validates its
result on the f it has already read (`JacobianClass._new`).
The hot paths are straight-line code on table logs, with no helper call
per product: the (2, 2) closed form, whose doubling and addition differ
only in the n, r and w of the slope (`_slope_mod_quadratic`), and the
Mumford check of `_validate` for deg u = 2.  Everywhere else
v^2 + v h + f has one routine, `_mumford`, and every division by a u of
degree <= 2 is the package's synthetic division, `poly.divmod_masks`; the
tests hold the straight-line code to those and to the Poly route.
Negation is (u, (v + h) mod u).  The only Mumford v-solve,
`solve_additive`, fixes h and writes the columns of its GF(2) system in
closed form for deg u <= 2, and `count_classes` still never reads the
trace criterion; `random_class` screens each u by it first, in
straight-line code on table logs (`_solvable_by_trace`).  The independent
Riemann-Roch interpolation oracle in `functions.reduce_points_oracle`
guards all of this in the tests.

Scalar multiples.  The curve is defined over GF(q), q = #curve.field, and
its L-polynomial is (1 - a T + q T^2)^2 (`curve._check_square`), so the
q-power Frobenius pi, the coefficient-wise q-th power of (u, v)
(`frobenius`), satisfies pi^2 - a pi + q = 0 on J, and pi^m = 1 on
J(GF(q^m)).  `mul_int` reads a from `lpolynomial` and reduces k modulo
pi^m - 1 in Z[pi] = Z[x] / (x^2 - a x + q), by rounded division under the
norm x^2 + a x y + q y^2; it writes the remainder in pi-adic digits
d = r0 mod q in (-q/2, q/2], taking -q/2 at a tie when that quotient has
the smaller norm (every expansion the tests try, q in {4, 16, 64, 256},
|a| < 2 sqrt(q) and m <= 12, ends within m + 2 digits), and evaluates them
by Horner, acc = pi(acc) + d P.  First it checks pi^2 P + q P = a pi P
on the input P, and raises InconsistencyError when that fails.  The result
is exact even if a were wrong: pi^m - 1 kills every class over GF(q^m), and
once the check passes pi^2 - a pi + q kills P and so every pi^i P, and
k - sum d_i pi^i lies in the ideal of those two.  This route runs when its
count of sums (d = log2 q doublings to q P, |a| pi P and one sum for the
check, the further set bits of each distinct |digit|, one per nonzero
digit after the top one) is below double-and-add's, both counts read from
integers only.  Double-and-add serves small k, |a| pi P, and curves whose
L-polynomial is past the degree cap; q P and each |d| P share one chain of
doublings.
"""

from math import gcd
from operator import index

from .curve import (
    _H,
    _check_square,
    _counted_lpolynomial,
    jacobian_order_from_lpoly,
    lpolynomial,
)
from .errors import (
    DegreeCapError,
    FieldMismatchError,
    InconsistencyError,
    SearchExhaustedError,
)
from .functions import _merge_points, _partner, principal_witness_core, reduce_points_oracle
from .gf2 import (
    FieldElement,
    _prime_factors,
    default_field,
    embed,
    join_fields,
    quadratic_root_masks,
    solve_gf2_linear,
    trace_mask,
)
from .poly import (
    _trim,
    _xor,
    divmod_masks,
    evaluate_masks,
    monic_quadratic_roots,
)


class FormalDivisor:
    """A formal sum of curve points with integer multiplicities over one
    field, which contains the curve base field and every point's field:
    `entries` are the affine points as ((x, y), m) mask pairs over it,
    merged, in order of first appearance and without multiplicity 0, and
    `inf` is the multiplicity at infinity.  CurvePoints convert once, here."""

    __slots__ = ("curve", "field", "entries", "inf")

    def __init__(self, curve, points):
        points = list(points)
        field, affine, inf = curve.field, [], 0
        for p, _ in points:
            if not curve.same_model(p.curve):
                raise FieldMismatchError("divisor point on a different curve model")
            field = join_fields(field, p.field)[0]
        for p, m in points:
            if p.is_infinity():
                inf += m
            else:
                image = embed(p.field, field).image_mask
                affine.append(((image(p.x.mask), image(p.y.mask)), m))
        self.curve, self.field, self.inf = curve, field, inf
        self.entries = tuple(_merge_points(affine))

    @classmethod
    def _of_masks(cls, curve, field, affine, inf):
        """The divisor of the ((x, y), m) mask pairs `affine` over `field`
        and the multiplicity inf at infinity."""
        self = cls.__new__(cls)
        self.curve, self.field, self.inf = curve, field, inf
        self.entries = tuple(_merge_points(affine))
        return self

    def degree(self):
        return sum(m for _, m in self.entries) + self.inf

    def __add__(self, other):
        if not self.curve.same_model(other.curve):
            raise FieldMismatchError("divisor point on a different curve model")
        field, *embs = join_fields(self.field, other.field)
        affine = [((emb.image_mask(x), emb.image_mask(y)), m)
                  for emb, d in zip(embs, (self, other)) for (x, y), m in d.entries]
        return FormalDivisor._of_masks(self.curve, field, affine, self.inf + other.inf)

    def __repr__(self):
        return f"Div({self.entries!r}, inf={self.inf}; GF(2^{self.field.degree}))"


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

    @classmethod
    def _new(cls, curve, field, u, v, f):
        """The validated constructor for a caller that already holds f, the
        curve's f over `field` from `Curve.equation_masks`: `_validate`
        runs in full on it, without a second look-up of the memo."""
        self = cls.__new__(cls)
        self.curve, self.field, self.u, self.v = curve, field, u, v
        self.cofactor = self._validate(f)
        return self

    def _validate(self, f=None):
        """Check the pair, and return its cofactor (v^2 + v h + f) / u; f is
        read from `Curve.equation_masks` unless the caller gives it."""
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
        if f is None:
            f = self.curve.equation_masks(field)[1]
        if len(u) == 1:  # u = 1 divides v^2 + v h + f = f
            return list(f)
        exp, log = field.tables()
        if len(u) == 2:
            quo, rem = divmod_masks(field, _mumford(exp, log, _H, f, v), u)
            if any(rem):
                raise ValueError("Mumford condition u | v^2 + v h + f fails")
            return quo
        # deg u = 2, written out: for v = c1 x + c0, n0..n4 and A are the
        # coefficients (c0^2, A + c0, c0 + c1 + c1^2, B + c1, 0, A) of
        # v^2 + v h + f, then its quotient by u = x^2 + a1 x + a0 in n2, n3,
        # n4, A and the remainder in n0, n1
        (a0, a1, _), (_, A, _, B, _, _) = u, f
        c0, c1 = (v + (0, 0))[:2]
        n0, n1 = exp[log[c0] * 2] if c0 else 0, A ^ c0
        n2, n3 = c0 ^ c1 ^ (exp[log[c1] * 2] if c1 else 0), B ^ c1
        la0, la1, lc = log[a0], log[a1], log[A]  # A != 0 on the family
        n4 = exp[lc + la1] if a1 else 0
        n3 ^= exp[lc + la0] if a0 else 0
        if n4:
            lc = log[n4]
            n3 ^= exp[lc + la1]
            n2 ^= exp[lc + la0] if a0 else 0
        if n3:
            lc = log[n3]
            n2 ^= exp[lc + la1] if a1 else 0
            n1 ^= exp[lc + la0] if a0 else 0
        if n2:
            lc = log[n2]
            n1 ^= exp[lc + la1] if a1 else 0
            n0 ^= exp[lc + la0] if a0 else 0
        if n0 or n1:
            raise ValueError("Mumford condition u | v^2 + v h + f fails")
        return [n2, n3, n4, A]

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, curve, field):
        return cls(curve, field, (1,), ())

    def is_identity(self):
        return len(self.u) == 1

    # -- group law -------------------------------------------------------------
    def __add__(self, other):
        curve, field = self.curve, self.field
        if other.curve is not curve and not curve.same_model(other.curve):
            raise FieldMismatchError("classes on different curve models")
        if other.field is not field:
            raise FieldMismatchError("classes over different fields: lift both to one field first")
        u1, v1, u2, v2, k = self.u, self.v, other.u, other.v, self.cofactor
        if len(u1) == 1:
            return other if other.curve is curve else other.retag(curve)
        if len(u2) == 1:
            return self
        if len(u1) < len(u2):  # the quadratic class first: a sum commutes
            u1, v1, u2, v2, k = u2, v2, u1, v1, other.cofactor
        r, f = None, curve.equation_masks(field)[1]
        if u1 == u2:
            if v1 == v2 and len(u1) == 3:  # h mod u = h + u, as both are monic quadratics
                r = [u1[0], u1[1] ^ 1]
            else:
                r = divmod_masks(field, _H if v1 == v2 else _xor(_xor(v1, v2), _H), u1)[1]
            if not any(r):
                return JacobianClass._new(curve, field, (1,), (), f)  # other = -self
        uv = _closed_form_sum(field, f, k, r, u1, v1, u2, v2)
        if uv is not None:
            return JacobianClass._new(curve, field, *uv, f)
        # the split: u2 = (x + x1)(x + x1 + b1), and each point is a (2, 1)
        # or (1, 1) sum with a closed form
        exp, log = field.tables()
        x1 = quadratic_root_masks(field, u2[1], u2[0])[0]
        out = self
        for x in (x1, x1 ^ u2[1]):
            y = _trim([evaluate_masks(exp, log, v2, x)])
            out = out + JacobianClass._new(curve, field, (x, 1), y, f)
        return out

    def neg(self):
        field, u = self.field, self.u
        v = divmod_masks(field, _xor(self.v, _H), u)[1]
        return JacobianClass(self.curve, field, u, _trim(v))

    def __sub__(self, other):
        return self + other.neg()

    def mul_int(self, k):
        """k times the class, for an integer k (TypeError otherwise), by the
        route with fewer sums: double-and-add, or Horner in the Frobenius pi
        on the pi-adic digits of k (see the module docstring).  The counts
        are read from k, a and q alone."""
        k = index(k)
        curve, n = self.curve, abs(k)
        binary = _binary_sums(n)
        d = curve.field.degree
        if binary > d + 1:  # the pi route's relation check alone makes d + 1 sums
            a = _frobenius_trace(curve)
            if a is not None:
                digits = _pi_adic_digits(k, a, curve.field.order, self.field.degree // d)
                if _pi_route_sums(a, d, digits) < binary:
                    return self._mul_by_digits(a, digits)
        return _double_and_add(self.neg() if k < 0 else self, n)

    def _mul_by_digits(self, a, digits):
        """sum d_i pi^i of the class, by Horner from the top digit, once
        pi^2 P + q P = a pi P holds on this class P; q P comes from d
        doublings, and each |d_i| P (|d_i| <= q/2) sums those doublings."""
        doubles = [self]
        for _ in range(self.curve.field.degree):
            doubles.append(doubles[-1] + doubles[-1])
        pi1 = frobenius(self)
        a_pi = _double_and_add(pi1.neg() if a < 0 else pi1, abs(a))
        if (frobenius(pi1) + doubles[-1]).key() != a_pi.key():
            raise InconsistencyError("class fails the Frobenius relation pi^2 - a pi + q = 0")
        multiples = {}

        def multiple(x):  # x P for a digit x, once per distinct x
            if x not in multiples:
                if x < 0:
                    multiples[x] = multiple(-x).neg()
                else:
                    terms = [c for i, c in enumerate(doubles) if x >> i & 1]
                    for c in terms[1:]:
                        terms[0] = terms[0] + c
                    multiples[x] = terms[0]
            return multiples[x]

        acc = None
        for x in reversed(digits):
            if acc is not None:
                acc = frobenius(acc)
            if x:
                acc = multiple(x) if acc is None else acc + multiple(x)
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
        key = _descend(self, sub)
        return key is not None and key == _descend(other, sub)

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
    def _support_masks(self):
        """[((x, y), mult)] as mask pairs over this field or its quadratic
        extension, with the field where the support splits.  The x are the
        roots of u, ascending with multiplicity, from
        `poly.monic_quadratic_roots` when deg u = 2; each y is v(x)."""
        fld, u, v = self.field, self.u, self.v
        if len(u) == 1:
            return [], fld
        if len(u) == 2:
            roots, mult = u[:1], 1
        else:
            roots, fld, emb = monic_quadratic_roots(fld, u[1], u[0])
            if emb is not None:
                v = [emb.image_mask(c) for c in v]
            roots, mult = (roots[:1], 2) if roots[0] == roots[1] else (roots, 1)
        exp, log = fld.tables()
        return [((x, evaluate_masks(exp, log, v, x)), mult) for x in roots], fld

    def support(self):
        """[(point, mult)] of `_support_masks` as CurvePoints, together with
        the field where the support splits; `Curve.point` checks each point."""
        pairs, fld = self._support_masks()
        point = self.curve.point
        return [(point(FieldElement(fld, x), FieldElement(fld, y)), m) for (x, y), m in pairs], fld

    def to_divisor(self):
        """The support minus its degree times infinity, over the field where
        it splits; the identity's is over the curve base field."""
        pairs, fld = self._support_masks()
        fld = fld if pairs else self.curve.field
        return FormalDivisor._of_masks(self.curve, fld, pairs, -sum(m for _, m in pairs))


def _descend(cls, sub):
    """The (u, v) of a class as mask tuples over `sub`, a subfield of its
    field, by `FieldEmbedding.preimage`; None when one lies outside `sub`."""
    preimage, element = embed(sub, cls.field).preimage, cls.field.element
    u, v = ([preimage(element(m)) for m in p] for p in (cls.u, cls.v))
    return None if None in u + v else (tuple(e.mask for e in u), tuple(e.mask for e in v))


def frobenius(cls):
    """The q-power Frobenius pi of a class, q = #curve.field: the
    coefficient-wise q-th power of (u, v).  It fixes the curve's equation,
    whose coefficients lie in the base field, so it maps reduced pairs to
    reduced pairs; the result goes through the validated constructor."""
    field = cls.field
    exp, log = field.tables()
    p, q = field.order - 1, cls.curve.field.order
    u, v = (tuple([exp[log[c] * q % p] if c else 0 for c in m]) for m in (cls.u, cls.v))
    return JacobianClass(cls.curve, field, u, v)


def _double_and_add(cls, n):
    """n cls for n >= 0, by doublings from the lowest bit up: no sum with
    the identity at the first set bit, no doubling after the top bit."""
    acc, base = None, cls
    while n:
        if n & 1:
            acc = base if acc is None else acc + base
        n >>= 1
        if n:
            base = base + base
    return JacobianClass.identity(cls.curve, cls.field) if acc is None else acc


def _binary_sums(n):
    """The sums `_double_and_add` makes for n >= 0."""
    return n.bit_length() + n.bit_count() - 2 if n else 0


def _pi_route_sums(a, d, digits):
    """The sums `JacobianClass._mul_by_digits` makes for q = 2^d: d
    doublings to q P, |a| pi P and one sum for the relation check, one sum
    per further set bit of each distinct |digit|, one per nonzero digit
    after the top one."""
    nonzero = [x for x in digits if x]
    return (d + _binary_sums(abs(a)) + 1 + sum(x.bit_count() - 1 for x in {abs(x) for x in nonzero})
            + max(len(nonzero) - 1, 0))


def _pi_power(a, q, m):
    """(A, B) with pi^m = A + B pi in Z[pi] = Z[x] / (x^2 - a x + q)."""
    A, B = 1, 0
    for _ in range(m):
        A, B = -q * B, A + a * B
    return A, B


def _norm(r0, r1, a, q):
    """The norm of r0 + r1 pi: (r0 + r1 pi)(r0 + r1 (a - pi))."""
    return r0 * r0 + a * r0 * r1 + q * r1 * r1


def _pi_adic_digits(k, a, q, m):
    """Digits d_i, lowest first, with sum d_i pi^i = k mod pi^m - 1 in
    Z[pi], pi^2 = a pi - q, and each d_i in [-q/2, q/2].  k is reduced by
    rounded division: lambda = k / (pi^m - 1), computed as k times the
    conjugate over the norm, rounded coordinate-wise, and r = k - lambda
    (pi^m - 1).  Then d = r0 mod q in (-q/2, q/2], and r = (r - d) / pi,
    which is (r1 + a c) - c pi for r - d = q c + r1 pi, as 1 / pi =
    (a - pi) / q.  At d = q/2 the digit is -q/2 when that quotient has the
    smaller norm; without that rule q = 4, a = 3 has a cycle."""
    A, B = _pi_power(a, q, m)
    b0 = A - 1
    n = _norm(b0, B, a, q)  # > 0, as a^2 < 4q
    l0 = (2 * k * (b0 + a * B) + n) // (2 * n)
    l1 = (n - 2 * k * B) // (2 * n)
    r0 = k - l0 * b0 + q * l1 * B
    r1 = -(l0 * B + l1 * b0 + a * l1 * B)
    half, digits = q // 2, []
    while r0 or r1:
        d = (r0 + half - 1) % q - half + 1
        c = (r0 - d) // q
        if d == half and _norm(r1 + a * c + a, -c - 1, a, q) < _norm(r1 + a * c, -c, a, q):
            d, c = -half, c + 1
        digits.append(d)
        r0, r1 = r1 + a * c, -c
    return digits


_frobenius_trace_cache = {}


def _frobenius_trace(curve):
    """a = s1 / 2 of L = (1 - a T + q T^2)^2, from `lpolynomial`, memoised
    per curve model in `_frobenius_trace_cache`; None for a curve whose
    L-polynomial is past the degree cap."""
    key = (curve.field, curve.effective_t)
    if key not in _frobenius_trace_cache:
        try:
            _frobenius_trace_cache[key] = lpolynomial(curve)[0] // 2
        except DegreeCapError:
            _frobenius_trace_cache[key] = None
    return _frobenius_trace_cache[key]


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


_basis_cache = {}


def solve_additive(field, n, rhs, w=None):
    """Solutions z (deg z < n) over `field` of z^2 + h z = rhs (mod w), for
    h = x^2 + x, coefficient masks rhs, and w None or monic of degree n <= 2.

    z -> z^2 + h z is additive, so the equation is linearized over GF(2):
    bit b of coefficient i of z is unknown i*d + b (d = field.degree), and
    its column is the image of a x^i, a = 2^b: a^2 x^(2i) + a (x^(i+1) +
    x^(i+2)) mod w, packed as rhs mod w is (coefficient j at bit j*d).  The
    columns are closed forms in a, a^2 and w, with (a, a^2, log a) kept per
    field in `_basis_cache`:
        w None:         a^2 x^(2i) + a x^(i+1) + a x^(i+2), unreduced
        w = x + w0:     a^2 + a h(w0)
        w = x^2 + w1 x + w0, by x^2 = w1 x + w0 and x^3 = (w1^2 + w0) x + w1 w0,
        with g = w1 + 1 and t = a^2 + a g:
            i = 0:      (a^2 + a w0) + a g x
            i = 1:      w0 t + (w1 t + a w0) x
    It is a full GF(2) solve, whatever the trace criterion says.  Returns
    None when unsolvable, else (particular, kernel) as trimmed mask tuples,
    the kernel in the order `solve_gf2_linear` gives."""
    d = field.degree
    exp, log = field.tables()
    basis = _basis_cache.get(d)
    if basis is None:
        basis = _basis_cache[d] = [(1 << b, exp[2 * log[1 << b]], log[1 << b]) for b in range(d)]
    if w is None:
        cols = [(a2 << 2 * i * d) ^ (a << (i + 1) * d) ^ (a << (i + 2) * d)
                for i in range(n) for a, a2, _ in basis]
    elif not 0 < len(w) - 1 == n <= 2:
        raise ValueError(f"solve_additive needs n = deg w <= 2, got n = {n} and deg w = {len(w) - 1}")
    else:
        rhs = divmod_masks(field, rhs, w)[1]
        w0, lw = w[0], log[w[0]]
        if n == 1:
            k = w0 ^ (exp[2 * lw] if w0 else 0)  # h(w0) = w0^2 + w0
            lk = log[k]
            cols = [a2 ^ (exp[la + lk] if k else 0) for _, a2, la in basis]
        else:
            w1 = w[1]
            l1, lg, cols, ones = log[w1], log[w1 ^ 1], [], []
            for _, a2, la in basis:
                aw = exp[la + lw] if w0 else 0
                ag = exp[la + lg] if w1 != 1 else 0
                t = a2 ^ ag
                lt = log[t]
                cols.append(a2 ^ aw | ag << d)
                ones.append((exp[lt + lw] if w0 and t else 0)
                            | ((exp[lt + l1] if w1 and t else 0) ^ aw) << d)
            cols += ones
    part, kernel = solve_gf2_linear(cols, sum(c << j * d for j, c in enumerate(rhs)))
    if part is None:
        return None
    mask = (1 << d) - 1

    def unpack(bits):
        return _trim([bits >> i * d & mask for i in range(n)])

    return unpack(part), [unpack(k) for k in kernel]


def affine_span(part, kernel):
    """Every part + span(kernel) as a trimmed mask tuple, in combo-bit
    order: bit i of the combo selects kernel[i]."""
    for combo in range(1 << len(kernel)):
        z = part
        for i, k in enumerate(kernel):
            if combo >> i & 1:
                z = _xor(z, k)
        yield _trim(list(z))


def _monic_pair(field, quo, vh):
    """The reduced pair (U', V') of a reduction step's quotient, as trimmed
    tuples: U' = quo made monic, V' = vh mod U' for vh = V + h."""
    exp, log = field.tables()
    quo = _trim(quo)
    li = log[field.inv_mask(quo[-1])]
    u = tuple(exp[log[c] + li] if c else 0 for c in quo)
    return u, _trim(divmod_masks(field, vh, u)[1])


def _closed_form_sum(field, f, k, r, u1, v1, u2, v2):
    """The reduced pair of (u1, v1) + (u2, v2), coefficient-mask tuples with
    deg u1 >= deg u2, as trimmed tuples; None for a (2, 2) sum whose u2
    shares a root with u1, a (2, 2) doubling with Res(u, h) = 0, and u1 = u2
    with v1 != v2 (not opposite).  f = (0, A, 0, B, 0, A) is the curve's,
    k = (v1^2 + v1 h + f) / u1 is the first class's cofactor, and
    r = (v1 + v2 + h) mod u1 when u1 = u2 (the caller's opposite test;
    h mod u for a doubling, which is h + u for a quadratic u, as h and u are
    monic of degree 2).  The composition is U = u1 w, V = v1 + s u1, with
    w = u2 to add and w = u1 to double, and s = n r^-1 mod w:
        add:    s = (v1 + v2) (u1 mod w)^-1 mod w
        double: s = (k mod u) (h mod u)^-1 mod u
    a scalar n(b0) / r(b0) for w = x + b0, else `_slope_mod_quadratic`.
    When x + b0 | u1, n(b0) is h(b0) = b0 (b0 + 1) and the points over b0
    cancel, leaving (x + e, v1(e)) at u1's other root e = a1 + b0, or 0 and
    the point repeats: then the slope's n, r = k(b0), h(b0) make V tangent
    there.  When deg U = 2 the pair is already reduced: the chord, with
    slope (y1 + y2) / (x1 + x2), and the tangent, with slope k(x1) / h(x1),
    as k(x1) = f'(x1) + h'(x1) y1 is the derivative of v1^2 + v1 h + f at x1.
    Else deg u1 = 2, and as V^2 + V h + f = u1 (k + s h + s^2 u1), one exact
    synthetic division by w reduces it: U' = (k + s h + s^2 u1) / w made
    monic, V' = (V + h) mod U'; for deg w = 2 the slope, the division and
    (U', V') are written out, and U' has degree 1 exactly when s1 = 0.  A
    remainder raises, as U | V^2 + V h + f fails.  A doubling or a repeated
    point solves s from k, so its division is exact whatever k holds.  As
    deg(v1^2 + v1 h) <= 3, the top of u1 k is f's: k[-1] = A and
    k[-2] = a A, as f4 = 0, for a the coefficient of u1 below its leading
    one, and every sum but the chord reads k and raises first when k breaks
    this; below them only the Mumford check of the result sees a wrong k in
    those two.  Once it has passed, a doubling's k2 = a1 k3 makes the t =
    k2 + k3 a1 of k mod u zero, so k mod u = (k1 + k3 a0) x + k0."""
    exp, log = field.tables()
    a0, b0, a, A = u1[0], u2[0], u1[-2], f[5]
    if (len(u1) == 3 or u1 == u2) and (k[-1] != A or k[-2] != (exp[log[a] + log[A]] if a else 0)):
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
            hb = mul(b0, b0 ^ 1)
            if n == hb:  # it cancels the second class's point
                e = a1 ^ b0
                return (e, 1), _trim([c0 ^ mul(c1, e)])
            n, r = evaluate_masks(exp, log, k, b0), hb
        s = exp[log[n] + p - log[r]] if n else 0
        q = mul(s, s)
        quo, rem = divmod_masks(field, [  # k + s h + s^2 u1, s h = s x^2 + s x
            k[0] ^ mul(q, a0), k[1] ^ mul(q, a1) ^ s, k[2] ^ q ^ s, k[3]], u2)
        if any(rem):
            raise ValueError("division is not exact")
        return _monic_pair(field, quo, [  # V + h, V = v1 + s u1
            c0 ^ mul(s, a0), c1 ^ mul(s, a1) ^ 1, s ^ 1])
    # deg w = 2, written out: each product is one lookup exp[log x + log y].
    # exp has length 2p and period p = order - 1, so with Python's negative
    # indices exp[i] = g^i for all -2p <= i < 2p: a product of three is one
    # lookup at a log sum minus p, and a quotient one at a log difference
    k0, k1, k2, k3 = k
    la0, la1 = log[a0], log[a1]
    if u1 != u2:  # add: w = u2, n = (v1 + v2) mod w, r = u1 mod w
        (d0, d1), b1 = (v2 + (0, 0))[:2], u2[1]
        s = _slope_mod_quadratic(exp, log, p, c0 ^ d0, c1 ^ d1, a0 ^ b0, a1 ^ b1, b0, b1)
    elif v1 == v2:  # double: w = u1, n = k mod w = (k1 + k3 a0) x + k0, r = h mod w
        b1 = a1
        s = _slope_mod_quadratic(
            exp, log, p, k0, k1 ^ (exp[log[k3] + la0] if a0 else 0), r[0], r[1], a0, a1)
    else:
        return None
    if s is None:
        return None
    s0, s1 = s
    l0, l1, lb0, lb1 = log[s0], log[s1], log[b0], log[b1]
    # N = k + s h + s^2 u1, s h = s1 x^3 + (s0 + s1) x^2 + s0 x and
    # s^2 = s1^2 x^2 + s0^2, then N / w: N4 = s1^2 reduces first, then N3
    # (k3), then N2 (k2), and the remainder is k1 x + k0
    k1, k2, k3 = k1 ^ s0, k2 ^ s0 ^ s1, k3 ^ s1
    if s0:
        k0 ^= exp[l0 + l0 + la0 - p] if a0 else 0
        k1 ^= exp[l0 + l0 + la1 - p] if a1 else 0
        k2 ^= exp[l0 + l0]
    if s1:
        k2 ^= (exp[l1 + l1 + la0 - p] if a0 else 0) ^ (exp[l1 + l1 + lb0 - p] if b0 else 0)
        k3 ^= (exp[l1 + l1 + la1 - p] if a1 else 0) ^ (exp[l1 + l1 + lb1 - p] if b1 else 0)
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
    m0 = c0 ^ (exp[l0 + la0] if s0 and a0 else 0)
    m1 = c1 ^ 1 ^ (exp[l1 + la0] if s1 and a0 else 0) ^ (exp[l0 + la1] if s0 and a1 else 0)
    m2 = s0 ^ 1 ^ (exp[l1 + la1] if s1 and a1 else 0)
    if not s1:  # k3 = A != 0: U' = x + e, V' = (V + h)(e)
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
    """The reduced Mumford class of a degree-0 formal divisor (group law),
    from the classes P - infinity, each checked by `_validate`."""
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    curve, field = divisor.curve, divisor.field
    acc = None  # as in mul_int: no sum with the identity
    for (x, y), m in divisor.entries:
        term = JacobianClass(curve, field, (x, 1), (y,) if y else ()).mul_int(m)
        acc = term if acc is None else acc + term
    return JacobianClass.identity(curve, field) if acc is None else acc


def oracle_class_of(divisor):
    """The same class via the interpolation oracle (independent of Cantor).

    Negative multiplicities are folded through the involution first:
    -(P - inf) ~ (iota P - inf), iota P from `functions._partner`.
    """
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    field = divisor.field
    effective = [(p, m) if m >= 0 else (_partner(field, p), -m) for p, m in divisor.entries]
    u, v, fld = reduce_points_oracle(divisor.curve, field, effective)
    return JacobianClass(divisor.curve, fld, u, v)


def principal_witness(divisor):
    """An explicit function with divisor exactly `divisor`, or None.

    The witness is psi/chi with psi found by linear algebra in the
    Riemann-Roch space L(N*infinity) and verified exactly; see
    `functions.principal_witness_core`.
    """
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    return principal_witness_core(divisor.curve, divisor.field, divisor.entries, divisor.inf)


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
    """Solutions v (deg v < deg u) of u | v^2 + v h + f for the monic masks
    u: None when unsolvable, else (particular, kernel) (see `solve_additive`)."""
    # f from equation_polys, not the memo: bench/test_bench.py asserts
    # gf2.mul.count > 0 on torsion units, and the boxed t^2 of equation_polys
    # is the only FieldElement product left on that path.  Read the memo once
    # that assertion moves.
    return solve_additive(field, len(u) - 1, curve.equation_polys(field)[1].masks(), u)


def _solvable_quadratics(curve, field):
    """(u, particular, kernel) for every monic quadratic u, in mask order of
    (u1, u0), for which some v has u | v^2 + v h + f over `field`."""
    f = curve.equation_masks(field)[1]
    for u1 in range(field.order):
        for u0 in range(field.order):
            sol = solve_additive(field, 2, f, (u0, u1, 1))
            if sol is not None:
                yield (u0, u1, 1), *sol


def _degree_two_classes(curve, field):
    """Every class with deg u = 2 over `field`: u in the order of
    `_solvable_quadratics`, then v in the combo-bit order of `affine_span`."""
    for u, part, kernel in _solvable_quadratics(curve, field):
        for v in affine_span(part, kernel):
            yield JacobianClass(curve, field, u, v)


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


def _solvable_by_trace(field, f, u0, u1):
    """Whether v^2 + v h = f has a solution v mod u = x^2 + u1 x + u0, for
    the family's f = (0, A, 0, B, 0, A) (A and B nonzero), by the trace
    criterion; None when h is not a unit mod u, which for h = x^2 + x means
    u0 = 0 or u(1) = 0.

    With v = h z the equation is z^2 + z = c, c = f h^-2 mod u = c1 x + c0,
    in F[x]/(u); h mod u = h + u = (u1 + 1) x + u0, as h and u are monic
    quadratics.  If u1 = 0, u = (x + s)^2 with s = sqrt(u0), and that is
    solvable iff Tr(c0 + c1 s) = 0; there c0 = 0, as c(s) = f(s) / h(s)^2
    and c'(s) = f'(s) / h(s)^2 give c0 = c(s) + s c'(s), and x f' = f for
    the odd f, so the test is Tr(c1 s) = 0.  Else u has roots r, r + u1 and
    c(r) + c(r + u1) = c1 u1: irreducible u (Tr(u0 / u1^2) = 1) needs only
    Tr(c1 u1) = 0, and split u also Tr(c(r)) = 0 at a root r (either root,
    once Tr(c1 u1) = 0).
    Straight-line on table logs: f mod u = n1 x + n0 from x^2 = u1 x + u0,
    x^3 = e x + u1 u0 and x^5 = (e^2 + u1^2 u0) x + u1^3 u0, e = u1^2 + u0,
    and h^2 mod u = g^2 u1 x + g^2 u0 + u0^2, g = u1 + 1; only a split u
    solves for its root.  Only `random_class` may call this: the
    enumeration behind `group_order` checks the zeta side, which rests on
    the same trace criterion."""
    if not u0 or u0 ^ u1 == 1:
        return None
    exp, log = field.tables()
    p, tm = field.order - 1, trace_mask(field)
    la, lb, l0, l1, lg = log[f[1]], log[f[3]], log[u0], log[u1], log[u1 ^ 1]
    e = u0 ^ (exp[l1 + l1] if u1 else 0)
    le = log[e]
    m = 1 ^ (exp[le + le] if e else 0) ^ (exp[l1 + l1 + l0 - p] if u1 else 0)
    n1 = (exp[la + log[m]] if m else 0) ^ (exp[lb + le] if e else 0)
    m = f[3] ^ (exp[la + l1 + l1 - p] if u1 else 0)  # n0 = u1 u0 (B + A u1^2)
    n0 = exp[l1 + l0 + log[m] - p] if u1 and m else 0
    r0 = exp[l0 + l0] ^ (exp[lg + lg + l0 - p] if u1 != 1 else 0)
    r1 = exp[lg + lg + l1 - p] if u1 and u1 != 1 else 0
    c0, c1 = _slope_mod_quadratic(exp, log, p, n0, n1, r0, r1, u0, u1)
    lc = log[c1]
    if not u1:  # s = sqrt(u0) has log l0 / 2 mod p, p odd
        return not c1 or not (exp[lc + (l0 + (l0 & 1) * p) // 2] & tm).bit_count() & 1
    if c1 and (exp[lc + l1] & tm).bit_count() & 1:
        return False
    if (exp[l0 - l1 - l1] & tm).bit_count() & 1:  # u irreducible
        return True
    r = quadratic_root_masks(field, u1, u0)[0]
    return not ((c0 ^ (exp[lc + log[r]] if c1 and r else 0)) & tm).bit_count() & 1


def random_class(curve, field, rng):
    """A random class with deg u = 2: u = x^2 + u1 x + u0 is drawn, u0 then
    u1 by two rng.randrange(field.order) calls (the draws of field.random),
    until its Mumford equation for v is solvable (every monic u is
    reachable, split or not), then v is the particular solution plus each
    kernel vector for which one rng.randrange(2), drawn in kernel order, is
    1.  No other rng value is drawn.  The trace criterion
    (`_solvable_by_trace`) rejects most unsolvable u before the solve; an
    accepted u still runs the full solve (`solve_additive`, closed-form
    columns), and a u it accepts that has no solution raises
    InconsistencyError."""
    f = curve.equation_masks(field)[1]
    while True:
        u0, u1 = rng.randrange(field.order), rng.randrange(field.order)
        by_trace = _solvable_by_trace(field, f, u0, u1)
        if by_trace is False:
            continue
        u = (u0, u1, 1)
        sol = _v_solution_space(curve, field, u)
        if sol is None:
            if by_trace:
                raise InconsistencyError(
                    "trace criterion accepted u, but v^2 + v h = f has no solution mod u")
            continue
        v, kernel = sol
        for k in kernel:
            if rng.randrange(2):
                v = _xor(v, k)
        return JacobianClass(curve, field, u, _trim(list(v)))


# ---------------------------------------------------------------------------
# Torsion.

def two_torsion(curve, field):
    """All 2-torsion classes over `field`: reduced (u, v) with u | h.

    Complete by uniqueness of the reduced form: c = -c iff u | h.
    """
    out = [JacobianClass.identity(curve, field)]
    for masks in ((0, 1), (1, 1), (0, 1, 1)):  # x, x + 1, x^2 + x = h
        sol = _v_solution_space(curve, field, masks)
        if sol is None:
            continue
        for v in affine_span(*sol):
            c = JacobianClass(curve, field, masks, v)
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
