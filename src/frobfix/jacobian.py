"""Degree-0 divisor class arithmetic on the curve family.

Classes are reduced Mumford pairs (u, v) of coefficient-mask tuples: u
monic of degree <= 2, deg v < deg u, and u | v^2 + v h + f, over an
explicit coordinate field containing the curve base field.  The group law
runs on masks with the curve's memoised (h, f), `Curve.equation_masks`.
A sum takes the first route that fits its inputs:

    identity     one side has u = 1: the other side is returned
    opposite     u1 = u2 and u | v1 + v2 + h: the identity
    degree 1     u1 = x + x1, u2 = x + x2: the chord (x1 != x2) or the
                 tangent (the same point, h(x1) != 0), already reduced
                 (`_degree_one_compose`)
    closed form  deg u1 = deg u2 = 2, a coprime addition (Res(u1, u2) != 0)
                 or a doubling (Res(u, h) != 0), after Lange, AAECC 15
                 (2005), and Lange-Stevens, SAC 2004 (`_closed_form_compose`)
    Cantor       everything else, on Polys (`_cantor_compose`): degrees
                 (1, 2) and (2, 1), a (2, 2) shared root, and a doubling
                 with Res(u, h) = 0 that is not 2-torsion

    compose: d = gcd(u1, u2, v1 + v2 + h) = s1 u1 + s2 u2 + s3 (v1+v2+h)
             U = u1 u2 / d^2,  V = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / d mod U
    reduce:  U' = (V^2 + V h + f) / U made monic,  V' = (V + h) mod U'

A closed-form or Cantor U of degree 3 or 4 takes one reduction step
(`_reduce`), an exact synthetic division that raises when it leaves a
remainder.  v^2 + v h + f has one routine, `_mumford`, for the reduction,
the doubling and the Mumford check of `_validate`, which runs on every
class a composition builds; every division by a u of degree <= 2 is one
explicit synthetic division (`_divmod_small`).  Negation is
(u, (v + h) mod u).  The independent Riemann-Roch interpolation oracle in
`functions.reduce_points_oracle` guards all of this in the tests.
"""

from itertools import zip_longest

from .curve import jacobian_order_from_lpoly, lpolynomial
from .errors import (
    DegreeCapError,
    FieldMismatchError,
    InconsistencyError,
    SearchExhaustedError,
)
from .functions import _merge_points, principal_witness_core, reduce_points_oracle
from .gf2 import _prime_factors, default_field, embed, join_fields, quadratic_root_masks, trace_mask
from .poly import (
    Poly,
    affine_span,
    divmod_monic,
    evaluate_masks,
    monic_logs,
    solve_additive,
    solve_quadratic,
)


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
    degree first, as `Poly.masks` gives them."""

    __slots__ = ("curve", "field", "u", "v")

    def __init__(self, curve, field, u, v, check=True):
        self.curve = curve
        self.field = field
        self.u = u
        self.v = v
        if check:
            self._validate()

    def _validate(self):
        u, v, field = self.u, self.v, self.field
        if not all(0 <= m < field.order for m in u + v):
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
        exp, log = field.tables()
        if any(_divmod_small(exp, log, _mumford(exp, log, h, f, v), u)[1]):
            raise ValueError("Mumford condition u | v^2 + v h + f fails")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def identity(cls, curve, field=None):
        return cls(curve, field or curve.field, (1,), (), check=False)

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
            # mixed-field addition lifts to the compositum
            fld, _, _ = join_fields(field, other.field)
            return self.lift(fld) + other.lift(fld)
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        if len(u1) == 1:
            return other if other.curve is curve else other.retag(curve)
        if len(u2) == 1:
            return self
        h, f = curve.equation_masks(field)
        exp, log = field.tables()
        if u1 == u2 and not any(_divmod_small(exp, log, _xor(_xor(v1, v2), h), u1)[1]):
            return JacobianClass.identity(curve, field)  # other = -self
        if len(u1) == len(u2) == 2:
            u, v = _degree_one_compose(field, h, f, u1, v1, u2, v2)
        else:
            composed = (_closed_form_compose(field, h, f, u1, v1, u2, v2)
                        or _cantor_compose(field, h, f, u1, v1, u2, v2))
            u, v = _reduce(field, h, f, *composed)
        return JacobianClass(curve, field, u, v)

    def neg(self):
        field, u = self.field, self.u
        exp, log = field.tables()
        h = self.curve.equation_masks(field)[0]
        v = _divmod_small(exp, log, _xor(self.v, h), u)[1]
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
        """Equality of classes, lifting to a common field as needed."""
        if not self.curve.same_model(other.curve):
            return False
        if self.field == other.field:
            return self.key() == other.key()
        fld, _, _ = join_fields(self.field, other.field)
        return self.lift(fld).key() == other.lift(fld).key()

    def __eq__(self, other):
        if not isinstance(other, JacobianClass):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        # equality lifts across fields, so hash only what a lift preserves
        return hash((self.curve.field, self.curve.effective_t, len(self.u) - 1))

    def retag(self, curve):
        if not self.curve.same_model(curve):
            raise ValueError("retag requires an identical curve model")
        return JacobianClass(curve, self.field, self.u, self.v, check=False)

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


def _reduce(field, h, f, u, v):
    """The reduced pair of a composition (U, V), coefficient-mask sequences
    with U monic of degree at most 4, deg V < deg U and U | V^2 + V h + f,
    as trimmed tuples.  For deg U > 2 one step reduces it, as deg f <= 5
    gives deg U' <= 2: U' = (V^2 + V h + f) / U by one exact synthetic
    division, made monic, and V' = (V + h) mod U'."""
    if len(u) <= 3:
        return tuple(u), _trim(list(v))
    exp, log = field.tables()
    quo, rem = divmod_monic(exp, log, _mumford(exp, log, h, f, v), monic_logs(field, u), len(u) - 1)
    if any(rem):
        raise ValueError("division is not exact")
    quo = _trim(quo)
    li = log[field.inv_mask(quo[-1])]
    u = tuple(exp[log[c] + li] if c else 0 for c in quo)
    return u, _trim(_divmod_small(exp, log, _xor(v, h), u)[1])


def _divmod_small(exp, log, n, u):
    """(quotient, remainder) of the coefficient masks n by a monic u of
    degree at most 2, as lists: synthetic division with u's two low
    coefficients inline.  The remainder has deg u entries, untrimmed."""
    d, r = len(u) - 1, list(n)
    a0, a1 = u[0] if d else 0, u[1] if d == 2 else 0
    l0, l1 = log[a0], log[a1]
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            lc = log[c]
            if a1:
                r[k - 1] ^= exp[lc + l1]
            if a0:
                r[k - d] ^= exp[lc + l0]
    return r[d:], r[:d]


def _cantor_compose(field, h, f, u1, v1, u2, v2):
    """The general composition (U, V) of two mask-tuple pairs, unreduced, as
    mask tuples (U monic), on Polys over `field`.  It takes the inputs no
    closed form does: degrees (1, 2) and (2, 1), a (2, 2) shared root, and
    a doubling with Res(u, h) = 0 that is not 2-torsion."""
    h, f, u1, v1, u2, v2 = (Poly.from_masks(field, m) for m in (h, f, u1, v1, u2, v2))
    d1, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = d1.xgcd(v1 + v2 + h)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2).divexact(d * d)
    v = (s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)).divexact(d) % u
    return u.masks(), v.masks()


def _degree_one_compose(field, h, f, u1, v1, u2, v2):
    """P1 + P2 for u_i = x + x_i, v_i = y_i, as a reduced pair of mask
    tuples, when P2 is not iota P1: v = y1 + s (x + x1) with
        chord (x1 != x2):   u = (x + x1)(x + x2),  s = (y1 + y2) / (x1 + x2)
        tangent (P1 = P2):  u = (x + x1)^2,        s = (f'(x1) + h'(x1) y1) / h(x1)
    h(x1) != 0 for the tangent, else P1 = iota P1.  In characteristic 2 a
    derivative keeps the odd terms: p'(x) = p1 + p3 x^2 + p5 x^4 + ..."""
    exp, log = field.tables()
    x1, x2 = u1[0], u2[0]
    y1 = v1[0] if v1 else 0
    if x1 != x2:
        y2 = v2[0] if v2 else 0
        num, den = y1 ^ y2, x1 ^ x2
        u = (exp[log[x1] + log[x2]] if x1 and x2 else 0, den, 1)
    else:
        sq = exp[2 * log[x1]] if x1 else 0
        dh, df = evaluate_masks(exp, log, h[1::2], sq), evaluate_masks(exp, log, f[1::2], sq)
        num = df ^ (exp[log[dh] + log[y1]] if dh and y1 else 0)
        den = evaluate_masks(exp, log, h, x1)
        u = (sq, 0, 1)
    s = exp[log[num] + field.order - 1 - log[den]] if num else 0
    return u, _trim([y1 ^ (exp[log[s] + log[x1]] if s and x1 else 0), s])


def _closed_form_compose(field, h, f, u1, v1, u2, v2):
    """The composition (U, V) of (u1, v1) and (u2, v2), all coefficient-mask
    tuples like h and f, unreduced, as mask lists: for a coprime addition or
    a doubling with Res(u, h) != 0, else None.  Each s is k r^-1 mod w, from
    `_quotient_mod_quadratic`:
        add:    s = (v1 + v2) (u1 mod u2)^-1 mod u2,  V = v1 + s u1,  U = u1 u2
        double: s = ((v^2 + v h + f) / u) (h mod u)^-1 mod u,  V = v + s u,  U = u^2"""
    if len(u1) != 3 or len(u2) != 3:
        return None
    exp, log = field.tables()

    def mul(x, y):
        return exp[log[x] + log[y]] if x and y else 0

    # s = k r^-1 mod w = x^2 + b1 x + b0, with w = u2 to add and w = u to double
    (a0, a1, _), (c0, c1) = u1, (v1 + (0, 0))[:2]
    if u1 != u2:
        b0, b1, _ = u2
        d0, d1 = (v2 + (0, 0))[:2]
        k, r = (c0 ^ d0, c1 ^ d1), (a0 ^ b0, a1 ^ b1)
        big_u = [mul(a0, b0), mul(a0, b1) ^ mul(a1, b0), a0 ^ b0 ^ mul(a1, b1), a1 ^ b1, 1]
    elif v1 == v2:
        b0, b1 = a0, a1
        # u1 | v1^2 + v1 h + f holds for a valid class: only the quotient is used
        quo = _divmod_small(exp, log, _mumford(exp, log, h, f, v1), u1)[0]
        k = _divmod_small(exp, log, quo, u1)[1]
        r = (h[0] ^ mul(h[2], a0), h[1] ^ mul(h[2], a1))  # h mod u, as deg h = 2 here
        big_u = [mul(a0, a0), 0, mul(a1, a1), 0, 1]
    else:
        return None
    s = _quotient_mod_quadratic(field, mul, k, r, b0, b1)
    if s is None:
        return None
    s0, s1 = s
    return big_u, [c0 ^ mul(s0, a0), c1 ^ mul(s1, a0) ^ mul(s0, a1), s0 ^ mul(s1, a1), s1]


def _quotient_mod_quadratic(field, mul, k, r, b0, b1):
    """k / r mod w = x^2 + b1 x + b0, for linear k and r given as mask pairs
    (k0, k1) and (r0, r1), as a mask pair; None when r and w share a root.
    `mul` is the caller's table product.  Modulo w, r = r1 x + r0 has the
    inverse (r1 x + r0 + r1 b1) / rho, where rho = r0^2 + r0 r1 b1 + r1^2 b0
    is zero exactly when r and w share a root."""
    (r0, r1), (k0, k1) = r, k
    e = r0 ^ mul(r1, b1)
    rho = mul(r0, e) ^ mul(mul(r1, r1), b0)
    if not rho:
        return None
    i = field.inv_mask(rho)
    i0, i1 = mul(e, i), mul(r1, i)
    t = mul(k1, i1)
    return mul(k0, i0) ^ mul(t, b0), mul(k0, i1) ^ mul(k1, i0) ^ mul(t, b1)


# ---------------------------------------------------------------------------
# Building classes from divisors.

def class_of(divisor):
    """The reduced Mumford class of a degree-0 formal divisor (Cantor path)."""
    if divisor.degree() != 0:
        raise ValueError("divisor must have degree 0")
    field, affine, _inf = divisor.lift_to_common_field()
    acc = JacobianClass.identity(divisor.curve, field)
    for p, m in affine:
        acc = acc + JacobianClass.from_point(p).mul_int(m)
    return acc


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
    cross-checked against exhaustive Mumford enumeration.  The checked
    value is memoised per (curve model, field) in `_order_cache`, so each
    enumeration runs once per process."""
    d = curve.field.degree
    if field.degree % d:
        raise FieldMismatchError("field is not an extension of the curve base field")
    key = (curve.field, curve.effective_t, field)
    if key in _order_cache:
        return _order_cache[key]
    s1, s2 = lpolynomial(curve)
    n = jacobian_order_from_lpoly(s1, s2, curve.field.order, field.degree // d)
    if field.order <= 64:
        counted = count_classes(curve, field)
        if counted != n:
            raise InconsistencyError(f"zeta order {n} disagrees with enumerated count {counted}")
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
    c = _quotient_mod_quadratic(field, mul, _divmod_small(exp, log, f, (u0, u1, 1))[1],
                                (mul(sq, u0) ^ mul(p0, p0), mul(sq, u1)), u0, u1)
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
