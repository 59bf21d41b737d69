"""Function-field machinery for the genus-2 model.

A polynomial function on the curve is a(x) + b(x) y; it has poles only at
infinity, where ord(x) = -2 and ord(y) = -5 (so the two pole orders never
collide mod 2 and the pole order of a + b y is exact, no cancellation).

Local expansions use the truncated series ring: at a non-Weierstrass point
the uniformizer is x - x0 and y is lifted by Newton iteration; at an
affine Weierstrass point the uniformizer is y - y0 and x is lifted.  All
divisor claims are verified exactly through the norm
N(a + b y) = a^2 + a b h + b^2 f together with pointwise vanishing orders.
"""

from .errors import InconsistencyError, VerificationError
from .linalg import nullspace
from .poly import Poly, solve_linear, solve_quadratic
from .series import TruncatedSeriesRing


class PolyFunction:
    """a(x) + b(x) y over a coordinate field of the curve."""

    __slots__ = ("curve", "field", "a", "b")

    def __init__(self, curve, field, a, b):
        self.curve = curve
        self.field = field
        self.a = a
        self.b = b

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def norm(self):
        """a^2 + a b h + b^2 f: the norm to the x-line, a polynomial in x."""
        h, f = self.curve.equation_polys(self.field)
        return self.a * self.a + self.a * self.b * h + self.b * self.b * f

    def pole_order_at_infinity(self):
        if self.is_zero():
            raise ValueError("zero function")
        orders = []
        if not self.a.is_zero():
            orders.append(2 * self.a.degree)
        if not self.b.is_zero():
            orders.append(2 * self.b.degree + 5)
        return max(orders)

    def evaluate(self, p):
        return self.a.evaluate(p.x) + self.b.evaluate(p.x) * p.y

    def series_at(self, point, prec):
        xs, ys = local_coordinates(self.curve, point, prec)
        return _evaluate_pair(self.a, self.b, xs, ys)

    def ord_at(self, point):
        """Vanishing order at an affine point (0 when the value is nonzero)."""
        if self.is_zero():
            raise ValueError("zero function")
        if self.evaluate(point).mask != 0:
            return 0
        cap = max(2 * self.norm().degree + 2, 8)
        prec = 4
        while prec <= cap:
            for i, c in enumerate(self.series_at(point, prec)):
                if c:
                    return i
            prec *= 2
        raise InconsistencyError("nonzero function vanishing beyond its norm degree")

    def __repr__(self):
        return f"PolyFunction(({self.a!r}) + ({self.b!r})*y)"


def local_coordinates(curve, point, prec):
    """(x, y) as truncated series in the local uniformizer at an affine point."""
    field = point.field
    ring = TruncatedSeriesRing(field, prec)
    h, f = curve.equation_polys(field)
    if point.is_weierstrass():
        if point.is_infinity():
            raise ValueError("expansions at infinity are handled by pole orders")
        # uniformizer u = y - y0; solve for x by Newton (dF/dx is a unit here)
        ys = ring.element([point.y, field.one()])
        xs = ring.constant(point.x)
        fprime = f.derivative()
        hprime = h.derivative()
        for _ in range(max(1, prec).bit_length() + 1):
            res = ys * ys + _eval_poly_series(h, xs) * ys + _eval_poly_series(f, xs)
            if res.is_zero():
                break
            dfdx = _eval_poly_series(fprime, xs) + _eval_poly_series(hprime, xs) * ys
            xs = xs + res * dfdx.inverse()
        res = ys * ys + _eval_poly_series(h, xs) * ys + _eval_poly_series(f, xs)
        if not res.is_zero():
            raise InconsistencyError("Newton lift for x failed at a Weierstrass point")
        return xs, ys
    # uniformizer t = x - x0; solve for y by Newton (h(x0) is a unit)
    xs = ring.element([point.x, field.one()])
    hs = _eval_poly_series(h, xs)
    fs = _eval_poly_series(f, xs)
    ys = ring.constant(point.y)
    hinv = hs.inverse()
    for _ in range(max(1, prec).bit_length() + 1):
        res = ys * ys + hs * ys + fs
        if res.is_zero():
            break
        ys = ys + res * hinv
    res = ys * ys + hs * ys + fs
    if not res.is_zero():
        raise InconsistencyError("Newton lift for y failed")
    return xs, ys


def _eval_poly_series(p, xs):
    ring = xs.ring
    acc = ring.zero()
    for i in range(p.degree, -1, -1):
        acc = acc * xs + ring.constant(p[i])
    return acc


def _evaluate_pair(a, b, xs, ys):
    """The coefficient masks of the series a(xs) + b(xs) ys."""
    return (_eval_poly_series(a, xs) + _eval_poly_series(b, xs) * ys).masks()


# ---------------------------------------------------------------------------
# Riemann-Roch spaces L(m * infinity).

def riemann_roch_basis(curve, m, field=None):
    """Basis of L(m*infinity): x^i with 2i <= m and x^j y with 2j + 5 <= m.

    For m > 2 = 2g - 2 the dimension is m - g + 1 = m - 1 and this list
    realizes it by pole-order bookkeeping at the single infinite point.
    """
    if m < 0:
        raise ValueError("pole bound must be >= 0")
    fld = field or curve.field
    one = Poly.one(fld)
    zero = Poly.zero(fld)
    out = []
    for i in range(m // 2 + 1):
        out.append(PolyFunction(curve, fld, Poly.x(fld) ** i if i else one, zero))
    for j in range((m - 5) // 2 + 1):
        out.append(PolyFunction(curve, fld, zero, Poly.x(fld) ** j if j else one))
    return out


def interpolate_vanishing(curve, field, m, constraints):
    """A nonzero element of L(m*infinity) over `field` vanishing to the
    prescribed order at each constraint point, or None.

    constraints: list of (affine CurvePoint over `field`, multiplicity).
    The choice is deterministic: first reduced-echelon nullspace vector,
    normalized so its first nonzero coordinate is 1.
    """
    basis = riemann_roch_basis(curve, m, field)
    rows = []
    for point, mult in constraints:
        xs, ys = local_coordinates(curve, point, mult)
        per_basis = [_evaluate_pair(fn.a, fn.b, xs, ys) for fn in basis]
        for k in range(mult):
            rows.append([field.element(masks[k]) for masks in per_basis])
    if rows:
        vecs = nullspace(field, rows)
    else:
        vecs = [[field.one()] + [field.zero()] * (len(basis) - 1)]
    if not vecs:
        return None
    vec = vecs[0]
    lead = next(c for c in vec if c.mask)
    inv = lead.inverse()
    vec = [c * inv for c in vec]
    a = Poly.zero(field)
    b = Poly.zero(field)
    for c, fn in zip(vec, basis):
        a = a + fn.a.scale(c)
        b = b + fn.b.scale(c)
    out = PolyFunction(curve, field, a, b)
    if out.is_zero():
        raise InconsistencyError("nullspace produced the zero function")
    return out


# ---------------------------------------------------------------------------
# Exact divisor verification for polynomial functions.

def _merge_points(pairs):
    merged = {}
    order = []
    for p, m in pairs:
        if p in merged:
            merged[p] += m
        else:
            merged[p] = m
            order.append(p)
    return [(p, merged[p]) for p in order if merged[p]]


def verify_polyfunction_divisor(fn, expected):
    """Check div(fn) = sum expected (affine) - N*infinity exactly.

    expected: list of (affine point over fn.field, positive multiplicity).
    Verifies (i) the pole order at infinity is the total expected degree,
    (ii) the norm factors exactly as forced by the expected orders, and
    (iii) the expected order at each non-Weierstrass point is attained
    (separating a point from its involution partner).  Raises
    VerificationError on any mismatch.
    """
    expected = _merge_points(expected)
    total = sum(m for _, m in expected)
    if fn.is_zero():
        raise VerificationError("zero function has no divisor")
    if fn.pole_order_at_infinity() != total:
        raise VerificationError("pole order at infinity does not match expected degree")
    field = fn.field
    exp_ord = {p: m for p, m in expected}
    # group expected norm multiplicities by x-coordinate
    by_x = {}
    for p, m in expected:
        by_x.setdefault(p.x, []).append((p, m))
    norm = fn.norm()
    rest = norm
    for x0, pts in by_x.items():
        # a partner absent from `expected` must have order zero; checked below
        e0 = sum(m for _, m in pts)
        lin = Poly(field, (x0, field.one()))
        for _ in range(e0):
            q, r = divmod(rest, lin)
            if not r.is_zero():
                raise VerificationError("norm does not vanish to the expected order")
            rest = q
        if rest.evaluate(x0).mask == 0:
            raise VerificationError("norm vanishes beyond the expected order")
    if rest.degree > 0:
        raise VerificationError("norm has zeros outside the expected support")
    # pointwise orders distinguish P from its involution partner
    for p, m in expected:
        if p.is_weierstrass():
            continue
        if fn.ord_at(p) != m:
            raise VerificationError("vanishing order mismatch at a point")
        partner = p.hyperelliptic_involution()
        if partner not in exp_ord and fn.evaluate(partner).mask == 0:
            raise VerificationError("unexpected vanishing at an involution partner")


class CurveFunction:
    """A function psi / chi with psi = a + b y and chi a polynomial in x;
    `rr_pole_bound` is the N of the space L(N*infinity) psi was found in."""

    __slots__ = ("num", "chi", "rr_pole_bound")

    def __init__(self, num, chi, rr_pole_bound=None):
        self.num = num
        self.chi = chi
        self.rr_pole_bound = rr_pole_bound

    def evaluate(self, point):
        d = self.chi.evaluate(point.x)
        if d.mask == 0:
            return None
        return self.num.evaluate(point) / d

    def __repr__(self):
        return f"CurveFunction(({self.num.a!r} + ({self.num.b!r})y) / ({self.chi!r}))"


def principal_witness_core(curve, field, affine_entries, inf_mult):
    """Witness phi with div(phi) = sum m_P P + inf_mult * infinity, or None.

    affine_entries: merged list of (affine point over `field`, nonzero int).
    The search space is psi in L(N*infinity) vanishing on D+ together with
    the involution of D-, with chi the product of x - x(P) over D-; any
    nonzero solution has exactly the required divisor, which is then
    re-verified from scratch.
    """
    entries = _merge_points(affine_entries)
    if sum(m for _, m in entries) + inf_mult != 0:
        raise ValueError("divisor has nonzero degree")
    pos = [(p, m) for p, m in entries if m > 0]
    neg = [(p, -m) for p, m in entries if m < 0]
    deg_pos = sum(m for _, m in pos)
    deg_neg = sum(m for _, m in neg)
    n_total = deg_pos + deg_neg
    if n_total == 0:
        one = PolyFunction(curve, field, Poly.one(field), Poly.zero(field))
        return CurveFunction(one, Poly.one(field), 0)
    chi = Poly.one(field)
    for p, m in neg:
        chi = chi * Poly(field, (p.x, field.one())) ** m
    constraints = _merge_points(
        pos + [(p.hyperelliptic_involution(), m) for p, m in neg]
    )
    psi = interpolate_vanishing(curve, field, n_total, constraints)
    if psi is None:
        return None
    verify_polyfunction_divisor(psi, constraints)
    if psi.pole_order_at_infinity() != n_total:
        raise VerificationError("witness pole order mismatch")
    return CurveFunction(psi, chi, n_total)


# ---------------------------------------------------------------------------
# Independent Riemann-Roch reduction oracle.

def reduce_points_oracle(curve, field, entries):
    """Reduce an effective affine point list to a Mumford pair, using only
    interpolation and exact divisor extraction (independent of the Cantor
    composition path).

    entries: list of (affine point over `field`, positive multiplicity).
    Returns (u, v, field'), possibly over a quadratic extension of `field`.
    """
    entries = _merge_points(entries)
    if any(m < 0 for _, m in entries):
        raise ValueError("oracle reduction expects an effective list")
    while sum(m for _, m in entries) > 2:
        entries, field = _oracle_step(curve, field, entries)
    return _mumford_from_points(curve, field, entries)


def _oracle_step(curve, field, entries):
    k = sum(m for _, m in entries)
    psi = interpolate_vanishing(curve, field, k + 2, entries)
    if psi is None:
        raise InconsistencyError("interpolation space unexpectedly empty")
    norm = psi.norm()
    exp_ord = dict(entries)
    # actual orders at constraint points and their partners
    actual = {}
    for p, _m in entries:
        actual[p] = psi.ord_at(p)
        partner = p.hyperelliptic_involution()
        if partner not in actual:
            actual[partner] = psi.ord_at(partner) if not p.is_weierstrass() else actual[p]
    rest = norm
    for x0 in {p.x for p, _ in entries}:
        above = [p for p in actual if p.x == x0]
        if above[0].is_weierstrass():
            e0 = actual[above[0]]
        else:
            e0 = sum(actual[p] for p in above)
        lin = Poly(field, (x0, field.one()))
        for _ in range(e0):
            rest = rest.divexact(lin)
        if rest.evaluate(x0).mask == 0:
            raise InconsistencyError("norm order bookkeeping failed")
    if rest.degree > 2:
        raise InconsistencyError("oracle residual has degree > 2")
    # leftover vanishing at known points beyond the input multiplicities
    new_entries = []
    for p, o in actual.items():
        excess = o - exp_ord.get(p, 0)
        if excess < 0:
            raise InconsistencyError("imposed vanishing not attained")
        if excess:
            new_entries.append((p.hyperelliptic_involution(), excess))
    # genuinely new zeros from the residual factor of the norm
    if rest.degree >= 1:
        entries_new, field = _extract_residual_points(curve, field, psi, rest, new_entries)
        return entries_new, field
    return _merge_points(new_entries), field


def _extract_residual_points(curve, field, psi, rest, new_entries):
    roots = []
    if rest.degree == 1:
        roots = [(solve_linear(rest.monic()), 1)]
        target_field, emb = field, None
    else:
        rts, target_field, emb = solve_quadratic(rest.monic())
        grouped = {}
        for r in rts:
            grouped[r] = grouped.get(r, 0) + 1
        roots = sorted(grouped.items(), key=lambda kv: kv[0].mask)
    if target_field != field:
        new_entries = [(p.lift(target_field), m) for p, m in new_entries]
        psi = PolyFunction(curve, target_field, psi.a.map(emb), psi.b.map(emb))
        field = target_field
    for x0, mu in roots:
        # x0 is a root of the norm, so the points above it lie over this field
        above = curve.points_at(x0)
        if not above:
            raise InconsistencyError("residual point not defined over the working field")
        p1 = above[0]
        if len(above) == 1:  # a Weierstrass point, its own involution partner
            new_entries.append((p1, mu))
            continue
        o1 = min(psi.ord_at(p1), mu)
        o2 = mu - o1
        if o1:
            new_entries.append((p1.hyperelliptic_involution(), o1))
        if o2:
            p2 = above[1]
            if psi.ord_at(p2) < o2:
                raise InconsistencyError("residual order split failed")
            new_entries.append((p2.hyperelliptic_involution(), o2))
    return _merge_points(new_entries), field


def _mumford_from_points(curve, field, entries):
    """Mumford (u, v) for an effective list of total degree <= 2."""
    entries = _merge_points(entries)
    total = sum(m for _, m in entries)
    one, zero = Poly.one(field), Poly.zero(field)
    h, f = curve.equation_polys(field)
    if total == 0:
        return one, zero, field
    if total == 1:
        p = entries[0][0]
        return Poly(field, (p.x, field.one())), Poly.constant(p.y), field
    if len(entries) == 1:
        p = entries[0][0]
        if p.is_weierstrass():
            return one, zero, field  # 2P ~ 2*infinity
        lam = (f.derivative().evaluate(p.x) + h.derivative().evaluate(p.x) * p.y) / h.evaluate(p.x)
        u = Poly(field, (p.x, field.one())) ** 2
        v = Poly(field, (p.y + lam * p.x, lam))
        return u, v, field
    (p1, _), (p2, _) = entries
    if p2 == p1.hyperelliptic_involution():
        return one, zero, field  # canonical pair
    # distinct x-coordinates (same x with different y is the involution pair)
    slope = (p1.y + p2.y) / (p1.x + p2.x)
    v = Poly(field, (p1.y + slope * p1.x, slope))
    u = Poly(field, (p1.x, field.one())) * Poly(field, (p2.x, field.one()))
    return u, v, field
