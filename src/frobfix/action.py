"""The automorphism group Z/2 x S3 of the curve family.

Every automorphism is (x, y) -> (m(x), (a(x) y + b(x)) / c(x)) where
m = N/D is a Mobius map permuting the branch x-coordinates {0, 1, inf}
and (a, b, c) are polynomials with gcd 1 and c monic, so the triple is
unique.  The maps permuting {0, 1, inf} are the six 2x2 bit matrices of
PGL(2, 2) = S3; a `MobiusMap` holds those four bits, carries no field,
and acts on a point's x in the point's own field.

Everything is computed on cleared denominators: for a polynomial p and
k >= deg p, p(N/D) D^k is a polynomial (`_homogenize`).  The map
satisfies the curve equation when, after y^2 = h y + f and clearing
c^2 D^6, the y-coefficient (over a) and the constant term vanish.  One
table of degree 6 gives h(m) D^6, f(m) D^6 and D^6, and the pair

    a h D^6 = h(m) D^6 c,    (a^2 f + b^2) D^6 + h(m) D^6 b c = f(m) D^6 c^2

is checked on every automorphism built.  With H = h(m) D^2 and
F = f(m) D^6, a lift of m is y -> (H D y + B) / (D^3 h) where B solves

    B^2 + (H D h) B = F h^2 + H^2 D^2 f.

Squaring is additive in characteristic 2, so this is a GF(2)-linear
system in the coefficients of B; the solver finds both lifts (they differ
by the hyperelliptic involution) over the base field, where both exist
for every t over GF(2^d), d <= 9.  The group checks compose each pair of
the twelve lifts once, into one Cayley table, and read the relations and
the element orders from it.
"""

from .errors import FieldMismatchError, InconsistencyError, SearchExhaustedError
from .gf2 import FieldElement, embed
from .jacobian import FormalDivisor, JacobianClass, class_of
from .poly import Poly, affine_span, solve_additive


class MobiusMap:
    """x -> (a x + b) / (c x + d) for an invertible matrix of bits.

    GF(2) has no scalar but 1, so these are the six elements of
    PGL(2, 2) = GL(2, 2), isomorphic to S3, and each is the same map over
    every field of characteristic 2: it carries no field of its own."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if not all(isinstance(z, int) and z in (0, 1) for z in (a, b, c, d)):
            raise ValueError("Mobius matrix entries must be the bits 0 and 1")
        if a & d ^ b & c == 0:
            raise ValueError("singular Mobius matrix")
        self.a, self.b, self.c, self.d = a, b, c, d

    def numerator_poly(self, field):
        return Poly.from_masks(field, (self.b, self.a))

    def denominator_poly(self, field):
        return Poly.from_masks(field, (self.d, self.c))

    def apply_x(self, x):
        """Image of a finite x, in x's own field; None encodes the point at
        infinity."""
        den = (x.mask if self.c else 0) ^ self.d
        if den == 0:
            return None
        field = x.field
        num = (x.mask if self.a else 0) ^ self.b
        return FieldElement(field, field.mul_masks(num, field.inv_mask(den)))

    def image_of_infinity(self):
        """a / c as a bit, or None when c = 0 fixes infinity."""
        return self.a if self.c else None

    def compose(self, other):
        """self after other (matrix product)."""
        return MobiusMap(
            self.a & other.a ^ self.b & other.c,
            self.a & other.b ^ self.b & other.d,
            self.c & other.a ^ self.d & other.c,
            self.c & other.b ^ self.d & other.d,
        )

    def inverse(self):
        # adjugate over GF(2): the determinant is 1 and signs are trivial
        return MobiusMap(self.d, self.b, self.c, self.a)

    def permutes_branch_points(self):
        """Whether the images (b : d), (a + b : c + d), (a : c) of 0, 1 and
        inf are three distinct points of P^1(GF(2)) = {0, 1, inf}."""
        images = {(self.b, self.d), (self.a ^ self.b, self.c ^ self.d), (self.a, self.c)}
        return len(images) == 3 and (0, 0) not in images

    def key(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, MobiusMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Mobius({hex(self.a)}x+{hex(self.b)})/({hex(self.c)}x+{hex(self.d)})"


def _homogenize(mobius, polys, k):
    """[p(N/D) D^k for p in polys] for the map N/D, each deg p <= k: the
    sums of p_i N^i D^(k-i), from one table of the products N^i D^(k-i),
    over the field of the polys."""
    field = polys[0].field
    num, den = mobius.numerator_poly(field), mobius.denominator_poly(field)
    npow, dpow = [Poly.one(field)], [Poly.one(field)]
    for _ in range(k):
        npow.append(npow[-1] * num)
        dpow.append(dpow[-1] * den)
    basis = [(npow[i] * dpow[k - i]).masks() for i in range(k + 1)]
    mul = field.mul_masks
    out = []
    for p in polys:
        if p.degree > k:
            raise ValueError(f"degree {p.degree} exceeds the homogenizing degree {k}")
        acc = [0] * (k + 1)
        for c, row in zip(p.masks(), basis):
            if c:
                for j, r in enumerate(row):
                    acc[j] ^= mul(c, r)
        out.append(Poly.from_masks(field, acc))
    return out


def s3_mobius_maps():
    """The six Mobius maps permuting {0, 1, inf}: all of PGL(2, 2)."""
    maps = [
        MobiusMap(1, 0, 0, 1),  # x
        MobiusMap(1, 1, 0, 1),  # x + 1
        MobiusMap(0, 1, 1, 0),  # 1/x
        MobiusMap(0, 1, 1, 1),  # 1/(x+1)
        MobiusMap(1, 0, 1, 1),  # x/(x+1)
        MobiusMap(1, 1, 1, 0),  # (x+1)/x
    ]
    for m in maps:
        if not m.permutes_branch_points():
            raise InconsistencyError("branch permutation table is wrong")
    return maps


class CurveAutomorphism:
    """(x, y) -> (m(x), (a(x) y + b(x)) / c(x)), normalized to gcd(a, b, c)
    = 1 with c monic, and validated exactly at construction."""

    __slots__ = ("curve", "mobius", "a", "b", "c", "_eval_cache")

    def __init__(self, curve, mobius, a, b, c):
        g = a.gcd(b).gcd(c)
        if g.degree > 0:
            a, b, c = a.divexact(g), b.divexact(g), c.divexact(g)
        inv = c.leading().inverse()
        self.curve = curve
        self.mobius = mobius
        self.a, self.b, self.c = a.scale(inv), b.scale(inv), c.scale(inv)
        self._eval_cache = {}
        self._validate()

    def _validate(self):
        field = self.curve.field
        h, f = (Poly.from_masks(field, m) for m in self.curve.equation_masks(field))
        h6, f6, d6 = _homogenize(self.mobius, (h, f, Poly.one(field)), 6)
        a, b, c = self.a, self.b, self.c
        # y-coefficient (over a) and constant term of the transformed equation, times D^6
        if not (
            a * h * d6 == h6 * c and (a * a * f + b * b) * d6 + h6 * b * c == f6 * c * c
        ):
            raise InconsistencyError("automorphism data fails the curve identity")

    # -- serialization view ---------------------------------------------------
    def abc(self):
        """(a, b, c) with y -> (a(x) y + b(x)) / c(x)."""
        return self.a, self.b, self.c

    def coefficient_key(self):
        return (self.mobius.key(), self.a.masks(), self.b.masks(), self.c.masks())

    # -- group structure --------------------------------------------------------
    def compose(self, other):
        """self after other."""
        if not self.curve.same_model(other.curve):
            raise FieldMismatchError("automorphisms of different curves")
        k = max(p.degree for p in self.abc())
        a1, b1, c1 = _homogenize(other.mobius, self.abc(), k)
        return CurveAutomorphism(
            self.curve,
            self.mobius.compose(other.mobius),
            a1 * other.a,
            a1 * other.b + b1 * other.c,
            c1 * other.c,
        )

    def inverse(self):
        # y' c = a y + b, so y = (c y' + b) / a at x = m^-1(x')
        minv = self.mobius.inverse()
        k = max(p.degree for p in self.abc())
        return CurveAutomorphism(self.curve, minv, *_homogenize(minv, (self.c, self.b, self.a), k))

    def is_identity(self):
        return self.coefficient_key() == ((1, 0, 0, 1), (1,), (), (1,))

    def __eq__(self, other):
        return (
            isinstance(other, CurveAutomorphism)
            and self.curve.same_model(other.curve)
            and self.coefficient_key() == other.coefficient_key()
        )

    def __hash__(self):
        return hash(self.coefficient_key())

    def __repr__(self):
        return f"Aut({self.mobius!r}; a={self.a!r}, b={self.b!r}, c={self.c!r})"

    # -- action -------------------------------------------------------------------
    def _mapped(self, field):
        got = self._eval_cache.get(field)
        if got is None:
            emb = embed(self.curve.field, field)
            got = tuple(p.map(emb) for p in self.abc())
            self._eval_cache[field] = got
        return got

    def apply(self, point):
        """Image of a curve point (any coordinate field over the base).  The
        image of the point at infinity is over the base field."""
        curve = self.curve
        if not curve.same_model(point.curve):
            raise FieldMismatchError("point lives on a different curve model")
        if point.is_infinity():
            xstar = self.mobius.image_of_infinity()
            if xstar is None:
                return point
            (w,) = curve.points_at(curve.field.element(xstar))  # 0 or 1, a root of h
            return w
        xim = self.mobius.apply_x(point.x)
        if xim is None:
            return curve.infinity()
        a, b, c = (p.evaluate(point.x) for p in self._mapped(point.field))
        if c.mask == 0:
            raise InconsistencyError("finite image point hit a pole of the y-transform")
        return curve.point(xim, (a * point.y + b) / c)

    def act_on_class(self, cls):
        """Image class under the induced Jacobian automorphism, over the
        class's own field: `class_of` sums the mapped support over the field
        of its points, and the sum is lifted back from a subfield or, where
        the support splits, mapped back from the extension by preimage."""
        if not self.curve.same_model(cls.curve):
            raise FieldMismatchError("class lives on a different curve model")
        support, _ = cls.support()
        support.append((cls.curve.infinity(), -sum(m for _, m in support)))
        img = class_of(FormalDivisor(cls.curve, [(self.apply(p), m) for p, m in support]))
        if cls.field.degree % img.field.degree == 0:
            return img.lift(cls.field)
        pre = embed(cls.field, img.field).preimage
        u, v = ([pre(FieldElement(img.field, m)) for m in p] for p in (img.u, img.v))
        if None in u or None in v:
            raise InconsistencyError("image class is not rational over the class's field")
        return JacobianClass(img.curve, cls.field, *(tuple(c.mask for c in p) for p in (u, v)))

    def frobenius_twist(self):
        """The corresponding automorphism of the next twist (coefficients
        squared, the bits of the Mobius map their own squares); satisfies
        F o g = g' o F."""
        return CurveAutomorphism(
            self.curve.next_twist(), self.mobius, *(p.frobenius_coeffs() for p in self.abc())
        )


def lift_mobius(curve, mobius):
    """Both lifts of a branch-permuting Mobius map m = N/D to curve
    automorphisms, over the curve's base field, in deterministic order
    (smallest coefficient key first).

    A lift is y -> (H D y + B) / (D^3 h) with H = h(m) D^2, F = f(m) D^6
    and B (deg B <= 7) a solution of B^2 + (H D h) B = F h^2 + H^2 D^2 f,
    the curve equation times (D^3 h)^2.  Both lifts exist over the base
    field for all six maps and every t != 0, 1 in GF(2^d), d = 2..9;
    SearchExhaustedError is raised when the equation for B has no solution
    there.
    """
    field = curve.field
    h, f = (Poly.from_masks(field, m) for m in curve.equation_masks(field))
    n = mobius.denominator_poly(field)
    (hm,) = _homogenize(mobius, (h,), 2)
    (fm,) = _homogenize(mobius, (f,), 6)
    hn = hm * n
    sol = solve_additive(8, hn * h, fm * h * h + hn * hn * f)
    if sol is None:
        raise SearchExhaustedError(f"no lift of {mobius!r} over {field!r}")
    if len(sol[1]) > 4:
        raise InconsistencyError("lift solution space is unexpectedly large")
    lifts = []
    for b in affine_span(*sol):
        cand = CurveAutomorphism(curve, mobius, hn, b, n ** 3 * h)
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
    maps = s3_mobius_maps()
    by_name = {}
    elements = []
    principal = {}
    for name, m in zip(MOBIUS_NAMES, maps):
        lifts = lift_mobius(curve, m)
        if name == "identity":
            if not any(g.is_identity() for g in lifts):
                raise InconsistencyError("no lift of the identity map is the identity")
            principal[name], iota = sorted(lifts, key=lambda g: not g.is_identity())
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


def _orders(table, e):
    """The order of each element, by walking its powers in the Cayley table
    (indices, e the identity); an order divides #Aut(X) = 12."""
    orders = []
    for i in range(len(table)):
        acc, k = i, 1
        while acc != e:
            if k == 12:
                raise InconsistencyError("automorphism order exceeds the group bound")
            acc, k = table[acc][i], k + 1
        orders.append(k)
    return orders


def verify_group_structure(curve):
    """Exact checks that the 12 lifts realize Z/2 x S3.

    Each of the 144 products is composed once, and validated against the
    curve as every automorphism is.  Closure holds when every product's
    key is one of the twelve; the other checks (centrality and order of
    iota, the S3 presentation relations, and the element-order profile
    1^1 2^7 3^2 6^2) are read from the Cayley table of indices.  Returns
    the dict of named checks, every one True; a failed check raises
    InconsistencyError naming it.
    """
    elements, by_name = automorphism_group(curve)
    index = {g.coefficient_key(): i for i, g in enumerate(elements)}
    table = [[index.get(g.compose(k).coefficient_key()) for k in elements] for g in elements]
    checks = {"closure": all(i is not None for row in table for i in row)}
    if checks["closure"]:
        e, iota, sigma, tau = (
            index[by_name[name].coefficient_key()]
            for name in ("identity", "iota", "sigma", "tau01")
        )
        sigma2 = table[sigma][sigma]
        checks["iota_order_2"] = table[iota][iota] == e and iota != e
        checks["iota_central"] = all(row[iota] == table[iota][g] for g, row in enumerate(table))
        checks["sigma_order_3"] = table[sigma2][sigma] == e
        checks["tau_order_2"] = table[tau][tau] == e
        checks["braid_relation"] = table[table[tau][sigma]][tau] == sigma2
        orders = sorted(_orders(table, e))
        checks["order_profile"] = orders == [1] + [2] * 7 + [3] * 2 + [6] * 2
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise InconsistencyError(f"Z/2 x S3 relation fails: {', '.join(failed)}")
    return checks


def fixed_points(g, field):
    """All points of the curve over `field` fixed by the automorphism."""
    return [p for p in g.curve.points_over(field) if g.apply(p) == p]
