"""The automorphism group Z/2 x S3 of the curve family.

Every automorphism is (x, y) -> (m(x), p(x) + q(x) y) where m is a Mobius
map permuting the branch x-coordinates {0, 1, inf}, q = h(m)/h is forced
by the y-coefficient of the transformed equation, and p solves

    p^2 + h(m(x)) p = f(m(x)) + q^2 f(x).

Squaring is additive in characteristic 2, so after clearing denominators
this is a GF(2)-linear system in the coefficients of p; the solver finds
both lifts (they differ by the hyperelliptic involution) over the base
field, where both exist for every t over GF(2^d), d <= 9.
"""

from .errors import FieldMismatchError, InconsistencyError, SearchExhaustedError
from .gf2 import embed
from .jacobian import FormalDivisor, class_of
from .poly import Poly, RationalFunction, affine_span, solve_additive


class MobiusMap:
    """x -> (a x + b) / (c x + d), an invertible matrix up to scalar."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if (a * d + b * c).mask == 0:  # char 2: determinant ad - bc
            raise ValueError("singular Mobius matrix")
        lead = next(z for z in (a, b, c, d) if z.mask)
        inv = lead.inverse()
        a, b, c, d = a * inv, b * inv, c * inv, d * inv
        self.a, self.b, self.c, self.d = a, b, c, d

    @property
    def field(self):
        return self.a.field

    def numerator_poly(self):
        return Poly(self.field, (self.b, self.a))

    def denominator_poly(self):
        return Poly(self.field, (self.d, self.c))

    def as_rational(self):
        return RationalFunction(self.numerator_poly(), self.denominator_poly())

    def apply_x(self, x):
        """Image of a finite x; None encodes the point at infinity."""
        emb = embed(self.field, x.field) if x.field != self.field else None
        a, b, c, d = (
            (emb(z) if emb else z) for z in (self.a, self.b, self.c, self.d)
        )
        den = c * x + d
        if den.mask == 0:
            return None
        return (a * x + b) / den

    def apply_projective(self, x):
        """Image of a point of P^1, with None as infinity."""
        if x is None:
            if self.c.mask == 0:
                return None
            return self.a / self.c
        return self.apply_x(x)

    def compose(self, other):
        """self after other (matrix product)."""
        if self.field != other.field:
            raise FieldMismatchError("Mobius maps over different fields")
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        # adjugate; char 2 signs are trivial
        return MobiusMap(self.d, self.b, self.c, self.a)

    def branch_permutation(self):
        """Images of (0, 1, inf), with None as infinity."""
        f = self.field
        return tuple(self.apply_projective(x) for x in (f.zero(), f.one(), None))

    def permutes_branch_points(self):
        img = set()
        for v in self.branch_permutation():
            if v is None:
                img.add("inf")
            elif v.mask in (0, 1):
                img.add(v.mask)
            else:
                return False
        return len(img) == 3

    def key(self):
        return (self.a.mask, self.b.mask, self.c.mask, self.d.mask)

    def __eq__(self, other):
        return (
            isinstance(other, MobiusMap)
            and self.field == other.field
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.field, self.key()))

    def __repr__(self):
        k = self.key()
        return f"Mobius({hex(k[0])}x+{hex(k[1])})/({hex(k[2])}x+{hex(k[3])})"


def s3_mobius_maps(field):
    """The six Mobius maps permuting {0, 1, inf} (entries in GF(2))."""
    o, z = field.one(), field.zero()
    maps = [
        MobiusMap(o, z, z, o),  # x
        MobiusMap(o, o, z, o),  # x + 1
        MobiusMap(z, o, o, z),  # 1/x
        MobiusMap(z, o, o, o),  # 1/(x+1)
        MobiusMap(o, z, o, o),  # x/(x+1)
        MobiusMap(o, o, o, z),  # (x+1)/x
    ]
    for m in maps:
        if not m.permutes_branch_points():
            raise InconsistencyError("branch permutation table is wrong")
    return maps


class CurveAutomorphism:
    """(x, y) -> (m(x), p(x) + q(x) y), validated exactly at construction."""

    __slots__ = ("curve", "mobius", "p", "q", "_eval_cache")

    def __init__(self, curve, mobius, p, q):
        self.curve = curve
        self.mobius = mobius
        self.p = p
        self.q = q
        self._eval_cache = {}
        self._validate()

    def _validate(self):
        h, f = self.curve.equation_polys(self.mobius.field)
        hr, fr = RationalFunction(h), RationalFunction(f)
        m = self.mobius.as_rational()
        hm, fm = hr.substitute(m), fr.substitute(m)
        # y-coefficient: q^2 h + h(m) q = 0, constant: p^2 + h(m) p + q^2 f + f(m) = 0
        ycoef = self.q * self.q * hr + hm * self.q
        const = self.p * self.p + hm * self.p + self.q * self.q * fr + fm
        if not (ycoef.is_zero() and const.is_zero()):
            raise InconsistencyError("automorphism data fails the curve identity")

    # -- serialization view ---------------------------------------------------
    def abc(self):
        """(a, b, c) with y -> (a(x) y + b(x)) / c(x)."""
        c = (self.p.den * self.q.den).divexact(self.p.den.gcd(self.q.den))
        a = self.q.num * c.divexact(self.q.den)
        b = self.p.num * c.divexact(self.p.den)
        return a, b, c

    def coefficient_key(self):
        a, b, c = self.abc()
        return (self.mobius.key(), a.masks(), b.masks(), c.masks())

    # -- group structure --------------------------------------------------------
    def compose(self, other):
        """self after other."""
        if not self.curve.same_model(other.curve):
            raise FieldMismatchError("automorphisms of different curves")
        m2 = other.mobius.as_rational()
        p1m = self.p.substitute(m2)
        q1m = self.q.substitute(m2)
        return CurveAutomorphism(
            self.curve,
            self.mobius.compose(other.mobius),
            p1m + q1m * other.p,
            q1m * other.q,
        )

    def inverse(self):
        minv = self.mobius.inverse()
        mr = minv.as_rational()
        pim = self.p.substitute(mr)
        qim = self.q.substitute(mr)
        return CurveAutomorphism(self.curve, minv, pim / qim, qim ** (-1))

    def is_identity(self):
        f = self.mobius.field
        return (
            self.mobius == MobiusMap(f.one(), f.zero(), f.zero(), f.one())
            and self.p.is_zero()
            and self.q == RationalFunction(Poly.one(f))
        )

    def order(self):
        acc = self
        for k in range(1, 13):  # an element's order divides #Aut(X) = 12
            if acc.is_identity():
                return k
            acc = acc.compose(self)
        raise InconsistencyError("automorphism order exceeds the group bound")

    def __eq__(self, other):
        return (
            isinstance(other, CurveAutomorphism)
            and self.curve.same_model(other.curve)
            and self.mobius == other.mobius
            and self.p == other.p
            and self.q == other.q
        )

    def __hash__(self):
        return hash((self.mobius, self.p, self.q))

    def __repr__(self):
        return f"Aut({self.mobius!r}; p={self.p!r}, q={self.q!r})"

    # -- action -------------------------------------------------------------------
    def _mapped(self, field):
        got = self._eval_cache.get(field)
        if got is None:
            emb = embed(self.mobius.field, field)
            got = (self.p.map(emb), self.q.map(emb))
            self._eval_cache[field] = got
        return got

    def apply(self, point):
        """Image of a curve point (any coordinate field over the base)."""
        curve = self.curve
        if point.is_infinity():
            xstar = self.mobius.apply_projective(None)
            if xstar is None:
                return point
            (w,) = curve.points_at(xstar)  # xstar is 0 or 1, a root of h
            return w if point.field == w.field else w.lift(point.field)
        xim = self.mobius.apply_x(point.x)
        if xim is None:
            inf = curve.infinity()
            return inf if point.field == curve.field else type(point)(curve, None, None)
        pf, qf = self._mapped(point.field)
        pv = pf.evaluate(point.x)
        qv = qf.evaluate(point.x)
        if pv is None or qv is None:
            raise InconsistencyError("finite image point hit a pole of the y-transform")
        return curve.point(xim, pv + qv * point.y)

    def act_on_divisor(self, divisor):
        return FormalDivisor(
            divisor.curve, [(self.apply(p), m) for p, m in divisor.entries]
        )

    def act_on_class(self, cls):
        """Image class under the induced Jacobian automorphism."""
        if not self.curve.same_model(cls.curve):
            raise FieldMismatchError("class lives on a different curve model")
        return class_of(self.act_on_divisor(cls.to_divisor()))

    def frobenius_twist(self):
        """The corresponding automorphism of the next twist (coefficients
        squared); satisfies F o g = g' o F."""
        target = self.curve.next_twist()
        m = self.mobius
        m2 = MobiusMap(m.a * m.a, m.b * m.b, m.c * m.c, m.d * m.d)
        p2 = RationalFunction(self.p.num.frobenius_coeffs(), self.p.den.frobenius_coeffs())
        q2 = RationalFunction(self.q.num.frobenius_coeffs(), self.q.den.frobenius_coeffs())
        return CurveAutomorphism(target, m2, p2, q2)


def lift_mobius(curve, mobius):
    """Both lifts of a branch-permuting Mobius map to curve automorphisms,
    over the Mobius map's own field, in deterministic order (smallest
    coefficient key first).

    Both lifts exist over the base field for all six maps and every
    t != 0, 1 in GF(2^d), d = 2..9; SearchExhaustedError is raised when the
    equation for p has no solution there.
    """
    if not mobius.permutes_branch_points():
        raise ValueError("Mobius map does not permute the branch points")
    field = mobius.field
    h, f = curve.equation_polys(field)
    hr, fr = RationalFunction(h), RationalFunction(f)
    m = mobius.as_rational()
    hm = hr.substitute(m)
    q = hm / hr
    n = mobius.denominator_poly()
    # p = B / (n^3 h); clearing denominators makes the defect GF(2)-linear in B
    mult = n ** 3 * h
    lin_coeff = (hm * RationalFunction(mult)).as_poly()
    g = fr.substitute(m) + q * q * fr
    rhs = (g * RationalFunction(mult * mult)).as_poly()
    sol = solve_additive(8, lin_coeff, rhs)  # deg B <= 7
    if sol is None:
        raise SearchExhaustedError(f"no lift of {mobius!r} over {field!r}")
    if len(sol[1]) > 4:
        raise InconsistencyError("lift solution space is unexpectedly large")
    lifts = []
    for b in affine_span(*sol):
        cand = CurveAutomorphism(curve, mobius, RationalFunction(b, mult), q)
        if cand not in lifts:
            lifts.append(cand)
    if len(lifts) != 2:
        raise InconsistencyError(f"expected exactly two lifts, found {len(lifts)}")
    lifts.sort(key=lambda g: g.coefficient_key())
    return lifts


# ---------------------------------------------------------------------------
# The full group.

MOBIUS_NAMES = ("identity", "tau01", "tau0inf", "sigma", "tau1inf", "sigma2")


def automorphism_group(curve):
    """The 12 automorphisms, labeled by generator words.

    The principal lift of each Mobius map is the one with the smaller
    coefficient key, except that the two 3-cycles take the lift whose cube
    is the identity (the presentation relations, not coefficient
    conventions, are the contract).  Returns (elements, by_name) where
    by_name maps identity/iota/tau01/tau0inf/tau1inf/sigma/sigma2 and the
    iota-composites ("iota*tau01", ...).
    """
    field = curve.field
    maps = s3_mobius_maps(field)
    by_name = {}
    elements = []
    iota = None
    principal = {}
    for name, m in zip(MOBIUS_NAMES, maps):
        lifts = lift_mobius(curve, m)
        if name == "identity":
            ident = next(g for g in lifts if g.is_identity())
            iota = next(g for g in lifts if not g.is_identity())
            principal[name] = ident
        elif name in ("sigma", "sigma2"):
            cubes_to_id = [g for g in lifts if g.compose(g).compose(g).is_identity()]
            if not cubes_to_id:
                raise InconsistencyError(f"no lift of {name} has order 3")
            principal[name] = cubes_to_id[0]
        else:
            squares_to_id = [g for g in lifts if g.compose(g).is_identity()]
            if not squares_to_id:
                raise InconsistencyError(f"no lift of {name} is an involution")
            principal[name] = squares_to_id[0]
    for name in MOBIUS_NAMES:
        g = principal[name]
        by_name[name] = g
        elements.append(g)
    by_name["iota"] = iota
    for name in MOBIUS_NAMES:
        if name == "identity":
            continue
        comp = iota.compose(principal[name])
        by_name[f"iota*{name}"] = comp
        elements.append(comp)
    elements.append(iota)
    if len({g.coefficient_key() for g in elements}) != 12:
        raise InconsistencyError("the twelve lifted automorphisms are not distinct")
    return elements, by_name


def verify_group_structure(curve):
    """Exact checks that the 12 lifts realize Z/2 x S3.

    Returns the dict of named checks (closure under composition,
    centrality and order of iota, the S3 presentation relations, and the
    element-order profile 1^1 2^7 3^2 6^2), every one True; a failed
    check raises InconsistencyError naming it.
    """
    elements, by_name = automorphism_group(curve)
    keys = {g.coefficient_key(): g for g in elements}
    checks = {}
    closure = True
    for g in elements:
        for k in elements:
            if g.compose(k).coefficient_key() not in keys:
                closure = False
    checks["closure"] = closure
    iota = by_name["iota"]
    checks["iota_order_2"] = iota.compose(iota).is_identity() and not iota.is_identity()
    checks["iota_central"] = all(
        g.compose(iota) == iota.compose(g) for g in elements
    )
    sigma, tau = by_name["sigma"], by_name["tau01"]
    checks["sigma_order_3"] = sigma.compose(sigma).compose(sigma).is_identity()
    checks["tau_order_2"] = tau.compose(tau).is_identity()
    checks["braid_relation"] = tau.compose(sigma).compose(tau) == sigma.compose(sigma)
    orders = sorted(g.order() for g in elements)
    checks["order_profile"] = orders == [1] + [2] * 7 + [3] * 2 + [6] * 2
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise InconsistencyError(f"Z/2 x S3 relation fails: {', '.join(failed)}")
    return checks


def fixed_points(g, field):
    """All points of the curve over `field` fixed by the automorphism."""
    return [p for p in g.curve.points_over(field) if g.apply(p) == p]
