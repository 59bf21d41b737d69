"""The genus-2 curve family y^2 + (x^2+x) y = (T^2+T)(x^5+x) + T^2 x^3
over GF(2^d), with T = t^(2^n) on the n-th Frobenius twist.

The parameter t must avoid {0, 1}.  The affine model has a single smooth
point at infinity (degree-5 right-hand side), which is also a Weierstrass
point.  Relative Frobenius maps the twist-n curve to the twist-(n+1)
curve by squaring both coordinates; its inverse takes coordinate square
roots, which exist uniquely in characteristic 2.

(h, f) has one source, the memo `Curve.equation_masks`: membership, the
involution and the root walk run on its masks with the field's exp/log
tables.  The root walk (`_affine_point_masks`) and `points_at` evaluate h
and f at each x by Horner on masks and solve for the y above it with the
field layer's one root kernel, `gf2.quadratic_root_masks`, so this module
has no field arithmetic of its own beyond table lookups.

`count_points` neither walks (h, f) nor solves for y.  Above a root of
h = x^2 + x there is one point; above any other x there are two when
Tr(f/h^2) = 0 and none when it is 1.  For x outside {0, 1},
x^5 + x = x (x + 1)^4 and Tr(a^2) = Tr(a) give, with c = T^2 + T,

    Tr(f(x)/h(x)^2) = Tr(c g(x)),   g(x) = x + 1/x + 1/(x + 1),

which is linear in c: the parity of g(x) & `gf2.trace_dual_mask(c)`.  g is
invariant under rho: x -> 1/(x + 1), the order-3 Mobius map of S3, so one
curve-independent table per field degree holds each value of g once, with
the number of x that give it (3 on a rho-orbit, 1 on the two fixed points
of rho when the degree is even).

L-polynomial bookkeeping (exact, integer arithmetic) also lives here; it
reads `count_points`, checks both counts against the Hasse-Weil interval,
and the Jacobian layer cross-checks it against an exhaustive enumeration
whose degree-1 classes come from the root walk.
"""

from collections import Counter
from fractions import Fraction

from .errors import (
    CurveParameterError,
    DegreeCapError,
    FieldMismatchError,
    InconsistencyError,
    NotOnCurveError,
)
from .gf2 import (
    DEGREE_CAP,
    FieldElement,
    default_field,
    embed,
    quadratic_root_masks,
    trace_dual_mask,
)
from .poly import Poly, evaluate_masks


class Curve:
    """A member of the family, tagged with its Frobenius-twist index n."""

    __slots__ = ("field", "t", "n", "_eff_t")

    def __init__(self, field, t, n=0):
        if t.field != field:
            raise FieldMismatchError("parameter t must lie in the base field")
        if t.mask in (0, 1):
            raise CurveParameterError("t must avoid {0, 1}")
        if n < 0:
            raise ValueError("twist index must be >= 0")
        self.field = field
        self.t = t
        self.n = n
        self._eff_t = t ** (1 << n)

    @property
    def effective_t(self):
        """The parameter of the twisted model: t^(2^n)."""
        return self._eff_t

    def twist(self, n):
        return Curve(self.field, self.t, n)

    def next_twist(self):
        return Curve(self.field, self.t, self.n + 1)

    def same_model(self, other):
        """Equality as a curve: same base field and same effective parameter."""
        return other is self or (
            self.field == other.field and self.effective_t == other.effective_t
        )

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and self.field == other.field
            and self.t == other.t
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.t, self.n))

    def __repr__(self):
        return f"Curve(d={self.field.degree}, t={hex(self.t.mask)}, n={self.n})"

    # -- defining polynomials -------------------------------------------------
    def equation_polys(self, field):
        """(h, f) with the model y^2 + h(x) y = f(x), over `field` (>= base)."""
        if field == self.field:
            fld, te = self.field, self.effective_t
        else:
            emb = embed(self.field, field)
            fld, te = field, emb(self.effective_t)
        zero = fld.zero()
        c5 = te * te + te
        f = Poly(fld, (zero, c5, zero, te * te, zero, c5))  # (T^2+T)(x^5+x) + T^2 x^3
        return Poly.from_masks(fld, _H), f

    def equation_masks(self, field):
        """(h, f) of `equation_polys(field)` as coefficient-mask tuples,
        memoised per (base degree, mask of the effective t, field degree): a
        degree names one field, and X(d) shares its entry with X(0)."""
        key = (self.field.degree, self._eff_t.mask, field.degree)
        eq = _equation_cache.get(key)
        if eq is None:
            eq = _equation_cache[key] = tuple(p.masks() for p in self.equation_polys(field))
        return eq

    # -- points ----------------------------------------------------------------
    def infinity(self):
        return CurvePoint(self, None, None)

    def point(self, x, y):
        p = CurvePoint(self, x, y)
        if not self.contains(p):
            raise NotOnCurveError(f"({x!r}, {y!r}) does not satisfy the equation")
        return p

    def contains(self, p):
        """Exact equation check; requires an embedding from the base field."""
        if p.is_infinity():
            return True
        if p.x.field != p.y.field:
            raise FieldMismatchError("point coordinates in different fields")
        if p.x.field.degree % self.field.degree:
            raise FieldMismatchError(
                "coordinate field does not contain the curve base field"
            )
        field, x, y = p.x.field, p.x.mask, p.y.mask
        h, f = self.equation_masks(field)
        exp, log = field.tables()
        s = y ^ evaluate_masks(exp, log, h, x)  # (y + h(x)) y = f(x)
        return (exp[log[s] + log[y]] if s and y else 0) == evaluate_masks(exp, log, f, x)

    def _affine_point_masks(self, field):
        """The affine points over `field` as (x, y) masks, x ascending: the
        roots y that `quadratic_root_masks` finds above each x, in its order."""
        exp, log = field.tables()
        h, f = self.equation_masks(field)
        for x in range(field.order):
            hx, fx = evaluate_masks(exp, log, h, x), evaluate_masks(exp, log, f, x)
            for y in quadratic_root_masks(field, hx, fx):
                yield x, y

    def points_over(self, field):
        """All points of the curve over `field`: infinity first, then the
        affine points in the order `_affine_point_masks` walks them."""
        if field.degree > 12:
            raise DegreeCapError("point enumeration capped at extension degree 12")
        return [self.infinity()] + [
            CurvePoint(self, FieldElement(field, x), FieldElement(field, y))
            for x, y in self._affine_point_masks(field)
        ]

    def count_points(self, field):
        """#C(field), infinity included, by the trace criterion with no root
        solved for and no (h, f) evaluated: infinity and one point above each
        of x = 0, 1, the roots of h; above any other x, two points when
        Tr(f(x)/h(x)^2) = Tr(c g(x)) is 0 and none when it is 1, with
        c = T^2 + T (the x coefficient of f) and each value of g taken once
        from `_g_table`, weighted by the number of x behind it."""
        w = trace_dual_mask(field, self.equation_masks(field)[1][1])
        return 3 + 2 * sum(m for g, m in _g_table(field) if not (g & w).bit_count() & 1)

    def branch_points(self):
        """x-coordinates of the branch locus in P^1: roots of h plus infinity
        (None stands for infinity; the right-hand side has odd degree 5)."""
        return [self.field.zero(), self.field.one(), None]

    def is_ordinary(self):
        """Branch-point criterion: g + 1 = 3 branch points.

        The 2-torsion cross-check lives in the Jacobian layer
        (`jacobian.ordinarity_check`), which raises if the two criteria
        ever disagree.
        """
        return len(self.branch_points()) == 3

    def points_at(self, x):
        """The affine points above x (in any field containing the base field),
        y ascending: one above a root of h, else two or none.  Each point is
        checked against the equation by `point`."""
        field = x.field
        exp, log = field.tables()
        h, f = (evaluate_masks(exp, log, p, x.mask) for p in self.equation_masks(field))
        ys = sorted(quadratic_root_masks(field, h, f))
        return [self.point(x, FieldElement(field, y)) for y in ys]


# h = x^2 + x as ascending coefficient masks: the same for every member of
# the family and every field
_H = (0, 1, 1)
_equation_cache = {}
_g_cache = {}


def _g_table(field):
    """The distinct values g of g(x) = x + 1/x + 1/(x + 1) over the x of
    `field` outside {0, 1}, ascending, each paired with the number of x that
    give it.  g is invariant under rho: x -> 1/(x + 1), and g(x) = v is a
    cubic in x, so each value comes from one rho-orbit: 3 x on an orbit of
    size 3, and 1 on each root of x^2 + x + 1 (in the field when its degree
    is even).  The table depends on no curve: one entry per field degree."""
    table = _g_cache.get(field.degree)
    if table is None:
        exp, log = field.tables()
        n = field.order - 1
        gs = Counter(x ^ exp[n - log[x]] ^ exp[n - log[x ^ 1]] for x in range(2, field.order))
        table = _g_cache[field.degree] = sorted(gs.items())
    return table


class CurvePoint:
    """Affine point (x, y) over an extension, or the point at infinity.

    The coordinate field always contains the curve base field through the
    default embedding; `lift` moves a point up a tower explicitly.
    """

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x, y):
        self.curve = curve
        self.x = x
        self.y = y

    def is_infinity(self):
        return self.x is None

    @property
    def field(self):
        return self.curve.field if self.is_infinity() else self.x.field

    def is_weierstrass(self):
        if self.is_infinity():
            return True
        return evaluate_masks(*self.x.field.tables(), _H, self.x.mask) == 0

    def hyperelliptic_involution(self):
        """(x, y) -> (x, y + h(x)); infinity is fixed."""
        if self.is_infinity():
            return self
        y = self.y.mask ^ evaluate_masks(*self.x.field.tables(), _H, self.x.mask)
        return CurvePoint(self.curve, self.x, FieldElement(self.y.field, y))

    def lift(self, field):
        if field == self.field:
            return self
        if self.is_infinity():
            return CurvePoint(self.curve, None, None)
        emb = embed(self.field, field)
        return CurvePoint(self.curve, emb(self.x), emb(self.y))

    def relative_frobenius(self):
        """Image on the next twist: (x, y) -> (x^2, y^2)."""
        target = self.curve.next_twist()
        if self.is_infinity():
            return target.infinity()
        img = CurvePoint(target, self.x * self.x, self.y * self.y)
        if not target.contains(img):
            raise InconsistencyError("relative Frobenius image left the twisted curve")
        return img

    def frobenius_preimage(self):
        """The unique preimage on the previous twist: coordinate square roots."""
        if self.curve.n < 1:
            raise ValueError("preimage needs twist index >= 1; retag through X(d) = X(0) first")
        target = self.curve.twist(self.curve.n - 1)
        if self.is_infinity():
            return target.infinity()
        pre = CurvePoint(target, self.x.sqrt(), self.y.sqrt())
        if not target.contains(pre):
            raise InconsistencyError("Frobenius preimage left the source curve")
        return pre

    def retag(self, curve):
        """The same point viewed on another tag of the same model (X(d) = X(0))."""
        if not self.curve.same_model(curve):
            raise ValueError("retag requires an identical curve model")
        return CurvePoint(curve, self.x, self.y)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if not self.curve.same_model(other.curve):
            return False
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        # equal points have equal coordinate masks (or are both infinity)
        if self.is_infinity():
            return hash(None)
        return hash((self.x.mask, self.y.mask))

    def __repr__(self):
        if self.is_infinity():
            return "Point(inf)"
        return f"Point({hex(self.x.mask)}, {hex(self.y.mask)}; GF(2^{self.field.degree}))"


# ---------------------------------------------------------------------------
# L-polynomial bookkeeping (genus 2).

def lpolynomial(curve):
    """(s1, s2) for L(T) = 1 - s1 T + s2 T^2 - q s1 T^3 + q^2 T^4, from the
    trace-criterion counts of `count_points` over the base field and its
    quadratic extension.  InconsistencyError is raised when the counts fit
    no genus-2 L-polynomial: when s1^2 - (q^2 + 1 - N2) is odd, or when N1
    or N2 lies outside its Hasse-Weil interval, and DegreeCapError before
    any count when the quadratic extension is past the field cap."""
    if 2 * curve.field.degree > DEGREE_CAP:
        raise DegreeCapError(f"quadratic extension of degree {2 * curve.field.degree} exceeds cap")
    q = curve.field.order
    n1 = curve.count_points(curve.field)
    ext = default_field(2 * curve.field.degree)
    n2 = curve.count_points(ext)
    s1 = q + 1 - n1
    p2 = q * q + 1 - n2
    if (s1 * s1 - p2) % 2:
        raise InconsistencyError("point counts are incompatible with a genus-2 L-polynomial")
    for field, n in ((curve.field, n1), (ext, n2)):
        if not weil_interval_ok_curve(n, field.order):
            raise InconsistencyError(
                f"#C(GF(2^{field.degree})) = {n} lies outside the Hasse-Weil interval"
            )
    s2 = (s1 * s1 - p2) // 2
    return s1, s2


def power_sums(s1, s2, q, k_max):
    """Power sums p_k of the four reciprocal roots, via Newton's identities."""
    e = [0, s1, s2, q * s1, q * q]
    p = [4]  # p_0 = number of roots
    for k in range(1, k_max + 1):
        acc = 0
        for i in range(1, min(k, 4) + 1):
            if i < k:
                acc += (-1) ** (i - 1) * e[i] * p[k - i]
            else:  # i == k <= 4: the k*e_k tail of Newton's identity
                acc += (-1) ** (k - 1) * k * e[k]
        p.append(acc)
    return p


def jacobian_order_from_lpoly(s1, s2, q, j):
    """#J(GF(q^j)) = prod (1 - alpha_i^j), exact integer, for j >= 1."""
    if j < 1:
        raise ValueError(f"Jacobian order needs j >= 1, got {j}")
    p = power_sums(s1, s2, q, 4 * j)
    big_p = [Fraction(p[i * j]) for i in range(5)]  # power sums of alpha_i^j
    e1 = big_p[1]
    e2 = (e1 * big_p[1] - big_p[2]) / 2
    e3 = (e2 * big_p[1] - e1 * big_p[2] + big_p[3]) / 3
    e4 = (e3 * big_p[1] - e2 * big_p[2] + e1 * big_p[3] - big_p[4]) / 4
    val = 1 - e1 + e2 - e3 + e4
    if val.denominator != 1:
        raise InconsistencyError("non-integral Jacobian order from L-polynomial")
    n = int(val)
    if n <= 0:
        raise InconsistencyError("non-positive Jacobian order from L-polynomial")
    return n


def weil_interval_ok_curve(count, q):
    """|#C - (q+1)| <= 4 sqrt(q), checked exactly on integers."""
    return (count - q - 1) ** 2 <= 16 * q


def weil_interval_ok_jacobian(count, q):
    """(sqrt(q)-1)^4 <= #J <= (sqrt(q)+1)^4, checked exactly on integers."""
    center = q * q + 6 * q + 1  # (sqrt(q)+-1)^4 = center +- 4 sqrt(q)(q+1)
    diff = count - center
    return diff * diff <= 16 * q * (q + 1) ** 2
