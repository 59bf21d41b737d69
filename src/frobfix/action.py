"""The automorphism group Z/2 x S3 of the curve family.

Every automorphism has the normal form (Cardona-Nart-Pujolas, Math. Z. 2005)

    (x, y) -> (m(x), (y + H(x)) / D(x)^3),    m = N/D,  deg H <= 3,

where m permutes the branch x-coordinates {0, 1, inf} and H is a tuple of
coefficient masks over the base field.  Those m are the six 2x2 bit
matrices of PGL(2, 2) = S3; a `MobiusMap` holds the four bits, carries no
field, and acts on a point's x in the point's own field.

For k >= deg p, p(N/D) D^k is a polynomial (`_homogenize`): the sum of the
p_i times the GF(2) polynomials N^i D^(k-i), with no field product.  N, D
and N + D are the three nonzero linear forms over GF(2), so h(m) D^3 =
N (N + D) D = x (x + 1) = h.  For y -> (e y + H) / D^3, the y-terms of
y^2 + h y = f, cleared by D^6, then agree only when e = 1, and the
constant terms when H^2 + h H = f(m) D^6 + f.  That right side has degree
<= 6, so deg H <= 3.  Every automorphism built is checked against

    h(m) D^3 = h,    H^2 + h H + f = f(m) D^6    (`jacobian._mumford`).

The equation for H is GF(2)-linear in its coefficients, with kernel
{0, h}: the two lifts of m differ by the hyperelliptic involution, and
both exist over the base field for every t over GF(2^d), d <= 9.  g o k
has H_k + H_g(m_k) D_k^3, and the Frobenius twist squares H
coefficient-wise.
"""

from functools import reduce

from .errors import FieldMismatchError, InconsistencyError, SearchExhaustedError
from .gf2 import FieldElement, embed, mask_mul
from .jacobian import (
    FormalDivisor,
    JacobianClass,
    _descend,
    _mumford,
    affine_span,
    class_of,
    solve_additive,
)
from .poly import _trim, _xor, evaluate_masks


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

    def denominator_at(self, x):
        """D(x) = c x + d as a mask, for a finite x."""
        return (x.mask if self.c else 0) ^ self.d

    def apply_x(self, x):
        """Image of a finite x, in x's own field; None encodes the point at
        infinity."""
        den = self.denominator_at(x)
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


def _homogenize(mobius, p, k):
    """p(N/D) D^k for the map N/D and the coefficient masks p, deg p <= k,
    as a trimmed tuple: the sum of p_i N^i D^(k-i), where each N^i D^(k-i)
    is a GF(2) polynomial, a bit mask, so the sum is XORs of the p_i."""
    if len(p) > k + 1:
        raise ValueError(f"degree {len(p) - 1} exceeds the homogenizing degree {k}")
    num, den = mobius.b | mobius.a << 1, mobius.d | mobius.c << 1
    acc = [0] * (k + 1)
    for i, c in enumerate(p):
        row = reduce(mask_mul, [num] * i + [den] * (k - i), 1)
        for j in range(k + 1):
            if row >> j & 1:
                acc[j] ^= c
    return _trim(acc)


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
    """(x, y) -> (m(x), (y + H(x)) / D(x)^3) for m = N/D and H the masks of
    a base-field polynomial of degree <= 3, validated exactly at construction."""

    __slots__ = ("curve", "mobius", "H", "_eval_cache")

    def __init__(self, curve, mobius, H):
        H = _trim(list(H))
        if len(H) > 4:
            raise ValueError(f"H has degree {len(H) - 1}, more than 3")
        if not all(0 <= c < curve.field.order for c in H):
            raise ValueError(f"coefficient mask of H out of range for {curve.field!r}")
        self.curve, self.mobius, self.H, self._eval_cache = curve, mobius, H, {}
        self._validate()

    def _validate(self):
        field = self.curve.field
        h, f = self.curve.equation_masks(field)
        exp, log = field.tables()
        # the y-terms and the constant terms of the transformed equation, times D^6
        if not (
            _homogenize(self.mobius, h, 3) == h
            and _trim(_mumford(exp, log, h, f, self.H)) == _homogenize(self.mobius, f, 6)
        ):
            raise InconsistencyError("automorphism data fails the curve identity")

    def coefficient_key(self):
        """(Mobius key, a, b, c) for y -> (a y + b) / c: a = 1, b = H and
        c = D^3 = c x^3 + c d x^2 + c d x + d, read off the bits c, d."""
        c, d = self.mobius.c, self.mobius.d
        return (self.mobius.key(), (1,), self.H, (d, d, d, 1) if c else (1,))

    # -- group structure --------------------------------------------------------
    def compose(self, other):
        """self after other: H = H_other + H_self(m_other) D_other^3."""
        if not self.curve.same_model(other.curve):
            raise FieldMismatchError("automorphisms of different curves")
        return CurveAutomorphism(
            self.curve,
            self.mobius.compose(other.mobius),
            _xor(other.H, _homogenize(other.mobius, self.H, 3)),
        )

    def is_identity(self):
        return self.mobius.key() == (1, 0, 0, 1) and not self.H

    def __eq__(self, other):
        return (
            isinstance(other, CurveAutomorphism)
            and self.curve.same_model(other.curve)
            and self.coefficient_key() == other.coefficient_key()
        )

    def __hash__(self):
        return hash(self.coefficient_key())

    def __repr__(self):
        return f"Aut({self.mobius!r}; H={[hex(c) for c in self.H]})"

    # -- action -------------------------------------------------------------------
    def _mapped(self, field):
        """H's coefficient masks in `field`, kept per field."""
        if field not in self._eval_cache:
            self._eval_cache[field] = tuple(map(embed(self.curve.field, field).image_mask, self.H))
        return self._eval_cache[field]

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
        # D(x) != 0, as the image is finite
        field = point.field
        num = point.y.mask ^ evaluate_masks(*field.tables(), self._mapped(field), point.x.mask)
        den3 = field.pow_mask(self.mobius.denominator_at(point.x), -3)
        return curve.point(xim, FieldElement(field, field.mul_masks(num, den3)))

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
        uv = _descend(img, cls.field)
        if uv is None:
            raise InconsistencyError("image class is not rational over the class's field")
        return JacobianClass(img.curve, cls.field, *uv)

    def frobenius_twist(self):
        """The corresponding automorphism of the next twist (H squared
        coefficient-wise, the bits of the Mobius map their own squares);
        satisfies F o g = g' o F."""
        mul = self.curve.field.mul_masks
        return CurveAutomorphism(self.curve.next_twist(), self.mobius, [mul(c, c) for c in self.H])


def lift_mobius(curve, mobius):
    """Both lifts y -> (y + H) / D^3 of a branch-permuting Mobius map
    m = N/D, smallest coefficient key first, for the two solutions H of
    H^2 + h H = f(m) D^6 + f over the curve's base field; raises
    SearchExhaustedError when that equation has none there."""
    field = curve.field
    f = curve.equation_masks(field)[1]
    rhs = _xor(_homogenize(mobius, f, 6), f)
    sol = solve_additive(field, 4, rhs)
    if sol is None:
        raise SearchExhaustedError(f"no lift of {mobius!r} over {field!r}")
    if len(sol[1]) > 1:
        raise InconsistencyError("lift solution space is unexpectedly large")
    # distinct solutions H are distinct lifts: H is part of the key
    lifts = [CurveAutomorphism(curve, mobius, z) for z in affine_span(*sol)]
    if len(lifts) != 2:
        raise InconsistencyError(f"expected exactly two lifts, found {len(lifts)}")
    return sorted(lifts, key=CurveAutomorphism.coefficient_key)


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
    elements = [principal[name] for name in MOBIUS_NAMES]
    by_name = dict(principal, iota=iota)
    for name in MOBIUS_NAMES[1:]:
        by_name[f"iota*{name}"] = iota.compose(principal[name])
        elements.append(by_name[f"iota*{name}"])
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
