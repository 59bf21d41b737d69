"""Function-field machinery for the genus-2 model.

A polynomial function on the curve is a(x) + b(x) y; it has poles only at
infinity, where ord(x) = -2 and ord(y) = -5 (so the two pole orders never
collide mod 2 and the pole order of a + b y is exact, no cancellation).

Local expansions are truncated series k'[s]/(s^n) held as tuples of
coefficient masks: the uniformizer is x - x0, with y solved for one
coefficient at a time, or y - y0 at an affine Weierstrass point, with x
solved for.  The solves, the expansions of a + b y and the interpolation
rows run on those masks with the memoised (h, f) of `Curve.equation_masks`,
the `series` kernels and the field's exp/log tables, as does the nullspace
(`linalg`); Poly is the type at the boundary, and the norm and the Mumford
pairs wrap (h, f) as Polys.
A polynomial at x = x0 + s, the x of every non-Weierstrass expansion, is
a Taylor shift on masks with no series product (`_horner`).  A vanishing
order is read at the lowest precision of the ladder 2, 4, 8, ... that
shows it (`PolyFunction.ord_at`): precision 2 shows a simple zero, and
the expansion mod s^2 is the truncation of the one mod s^4, so the order
read does not depend on where the ladder starts.
Every divisor claim, in the oracle's steps and in a witness's
re-verification, is checked by one routine, `_orders_and_rest`: it reads
the vanishing order at each point and at its involution partner from the
expansions, and divides the norm N(a + b y) = a^2 + a b h + b^2 f by
exactly those orders, so the norm must account for every zero found.
"""

from .errors import FieldMismatchError, InconsistencyError, VerificationError
from .linalg import nullspace
from .poly import Poly, evaluate_masks, solve_linear, solve_quadratic
from .series import mul_masks


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
        h, f = (Poly.from_masks(self.field, m) for m in self.curve.equation_masks(self.field))
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
        return self.field.element(self._value_mask(p))

    def _value_mask(self, point):
        """The mask of a(x0) + b(x0) y0 at an affine point (x0, y0) over this
        function's field."""
        x0, y0 = _affine(point).x.mask, point.y.mask
        if point.field != self.field:
            raise FieldMismatchError("point and function over different fields")
        exp, log = self.field.tables()
        b = evaluate_masks(exp, log, self.b.masks(), x0)
        by = exp[log[b] + log[y0]] if b and y0 else 0
        return evaluate_masks(exp, log, self.a.masks(), x0) ^ by

    def series_at(self, point, prec):
        """The coefficient masks of the expansion at `point` through s^(prec-1)."""
        if point.field != self.field:
            raise FieldMismatchError("point and function over different fields")
        field, (xs, ys) = self.field, local_coordinates(self.curve, point, prec)
        bs = mul_masks(field, _horner(field, self.b.masks(), xs), ys)
        return _add(_horner(field, self.a.masks(), xs), bs)

    def ord_at(self, point):
        """Vanishing order at an affine point (0 when the value is nonzero).

        The expansion is read at precision 2, 4, 8, ... until a nonzero
        coefficient shows: a simple zero, almost every zero the oracle
        meets, needs only precision 2.  Each expansion is the truncation of
        the next, so the first nonzero coefficient is the same at every
        precision that reaches it."""
        if self.is_zero():
            raise ValueError("zero function")
        if self._value_mask(point):
            return 0
        prec = 2
        while True:
            for i, c in enumerate(self.series_at(point, prec)):
                if c:
                    return i
            prec *= 2
            # the order is at most deg N, so precision max(2 deg N + 2, 8)
            # finds it; that cap is at least 8, so the norm is needed only
            # beyond precision 8
            if prec > 8 and prec > max(2 * self.norm().degree + 2, 8):
                raise InconsistencyError("nonzero function vanishing beyond its norm degree")

    def __repr__(self):
        return f"PolyFunction(({self.a!r}) + ({self.b!r})*y)"


def local_coordinates(curve, point, prec):
    """(x, y) as truncated series in the local uniformizer s at an affine
    point: two tuples of `prec` coefficient masks, lowest order first.

    s is x - x0 with y unknown, or y - y0 with x unknown at a Weierstrass
    point.  Adding c s^k to the unknown changes R = y^2 + h(x) y + f(x) by
    d c s^k plus higher terms, with d = h(x0), or h'(x0) y0 + f'(x0) at a
    Weierstrass point (p' is p[1::2] at x^2 in characteristic 2): a unit on
    the smooth curve.  So coefficient k is R[k] / d for k = 1, ..., prec - 1,
    and R must then vanish."""
    field = _affine(point).field
    h, f = curve.equation_masks(field)
    exp, log = field.tables()
    x0, y0 = point.x.mask, point.y.mask
    weierstrass = point.is_weierstrass()
    if weierstrass:
        ys, xs = _linear(y0, prec), [x0] + [0] * (prec - 1)
        hp, fp = (evaluate_masks(exp, log, p[1::2], field.mul_masks(x0, x0)) for p in (h, f))
        d, unknown = fp ^ field.mul_masks(hp, y0), xs
    else:
        xs, ys = _linear(x0, prec), [y0] + [0] * (prec - 1)
        hs, fs = _horner(field, h, xs), _horner(field, f, xs)
        d, unknown = evaluate_masks(exp, log, h, x0), ys
    l_inv = log[field.inv_mask(d)]
    for k in range(1, prec + 1):  # the pass with k = prec only checks
        if weierstrass:
            hs, fs = _horner(field, h, tuple(xs)), _horner(field, f, tuple(xs))
        res = _residual(field, hs, fs, ys)
        if k == prec:
            if any(res):
                raise InconsistencyError("local expansion fails the curve equation")
        elif res[k]:
            unknown[k] = exp[log[res[k]] + l_inv]
    return tuple(xs), tuple(ys)


def _affine(point):
    """`point`, which must be affine: at infinity a function is described by
    its pole order, not by a value or an expansion."""
    if point.is_infinity():
        raise ValueError("values and expansions at infinity are handled by pole orders")
    return point


def _linear(c, prec, slope=1):
    """The masks of c + slope * s mod s^prec."""
    return ((c, slope) + (0,) * prec)[:prec]


def _add(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def _residual(field, hs, fs, ys):
    """The masks of ys^2 + hs ys + fs = (ys + hs) ys + fs."""
    return _add(mul_masks(field, _add(ys, hs), ys), fs)


def _horner(field, cs, xs):
    """The masks of p(xs), for p given by its ascending coefficient masks cs
    and xs a series of the same truncation.

    For xs = x0 + s, the x of every non-Weierstrass expansion, p(x0 + s) is
    a Taylor shift with no series product: coefficient k is the sum of
    p_i x0^(i - k) over the i with i & k == k, as binomial(i, k) is odd
    exactly then (Lucas).  At a Weierstrass point the solved x has no s
    term, so it takes Horner's rule with one truncated product per
    coefficient."""
    n = len(xs)
    if xs[1:] == _linear(1, n - 1, 0):  # xs = x0 + s
        return _taylor_shift(field, cs, xs[0], n)
    acc = ((cs[-1] if cs else 0),) + (0,) * (n - 1)
    for c in cs[-2::-1]:
        acc = mul_masks(field, acc, xs)
        acc = (acc[0] ^ c,) + acc[1:]
    return acc


def _taylor_shift(field, cs, x0, n):
    """The masks of p(x0 + s) mod s^n, for p given by its ascending
    coefficient masks cs: see `_horner`."""
    out = [0] * n
    exp, log = field.tables()
    if not x0:
        out[:len(cs)] = cs[:n]
        return tuple(out)
    step, lx = field.order - 1, log[x0]
    pows = [j * lx % step for j in range(len(cs))]  # logs of x0^j
    low = (1 << (n - 1).bit_length()) - 1  # every k < n is a submask of low
    for i, c in enumerate(cs):
        if c:
            lc, k = log[c], i & low
            while True:  # k runs down the submasks of i & low
                if k < n:
                    out[k] ^= exp[lc + pows[i - k]]
                if not k:
                    break
                k = (k - 1) & i
    return tuple(out)


def _times_powers(field, start, xs, count):
    """[start * xs^k for k < count], one product per term."""
    out = [start] if count else []
    while len(out) < count:
        out.append(mul_masks(field, out[-1], xs))
    return out


# ---------------------------------------------------------------------------
# Riemann-Roch spaces L(m * infinity).

def _basis_shape(m):
    """(n_x, n_y): the basis of L(m*infinity) is x^i for i < n_x (2i <= m),
    then x^j y for j < n_y (2j + 5 <= m).  For m > 2 = 2g - 2 that is
    m - g + 1 = m - 1 functions, by pole-order bookkeeping at infinity."""
    if m < 0:
        raise ValueError("pole bound must be >= 0")
    return m // 2 + 1, max(0, (m - 5) // 2 + 1)


def riemann_roch_basis(curve, m, field=None):
    """Basis of L(m*infinity) as PolyFunctions, in the order of `_basis_shape`."""
    n_x, n_y = _basis_shape(m)
    fld = field or curve.field
    x, zero = Poly.x(fld), Poly.zero(fld)
    return ([PolyFunction(curve, fld, x ** i, zero) for i in range(n_x)]
            + [PolyFunction(curve, fld, zero, x ** j) for j in range(n_y)])


def interpolate_vanishing(curve, field, m, constraints):
    """A nonzero element of L(m*infinity) over `field` vanishing to the
    prescribed order at each constraint point, or None.

    constraints: list of (affine CurvePoint over `field`, multiplicity).
    A point of multiplicity k gives k rows: the coefficients of s^0..s^(k-1)
    in the expansion of each basis function there, taken from the running
    powers xs^i, then xs^j ys, one product per basis function.  The choice
    is deterministic: first reduced-echelon nullspace vector, normalized so
    its first nonzero coordinate is 1.
    """
    n_x, n_y = _basis_shape(m)  # x^i first, then x^j y
    rows = []
    for point, mult in constraints:
        if point.field != field:
            raise FieldMismatchError("constraint point over a different field")
        xs, ys = local_coordinates(curve, point, mult)
        one = _linear(1, mult, 0)
        cols = _times_powers(field, one, xs, n_x)
        cols += _times_powers(field, ys, xs, n_y)
        rows.extend(zip(*cols))
    vecs = nullspace(field, rows) if rows else [[1] + [0] * (n_x + n_y - 1)]
    if not vecs:
        return None
    vec = vecs[0]
    if not any(vec):
        raise InconsistencyError("nullspace produced the zero function")
    exp, log = field.tables()
    l_inv = log[field.inv_mask(next(c for c in vec if c))]
    vec = [exp[log[c] + l_inv] if c else 0 for c in vec]
    return PolyFunction(
        curve, field, Poly.from_masks(field, vec[:n_x]), Poly.from_masks(field, vec[n_x:])
    )


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


def _orders_and_rest(fn, points):
    """(orders, rest): the vanishing order of fn at each affine point of
    `points` and then at its involution partner, in that insertion order,
    and N(fn) divided by (x - x0)^e for each x0, e the sum of the orders
    above x0 (a Weierstrass point is its own partner, counted once).  A
    division that is not exact, or an x0 still a root, raises
    InconsistencyError."""
    orders, by_x = {}, {}
    for p in points:
        for q in (p, p.hyperelliptic_involution()):
            if q not in orders:
                orders[q] = fn.ord_at(q)
                by_x[q.x] = by_x.get(q.x, 0) + orders[q]
    field, rest = fn.field, fn.norm()
    for x0, e in by_x.items():
        lin = Poly(field, (x0, field.one()))
        for _ in range(e):
            rest, r = divmod(rest, lin)
            if not r.is_zero():
                raise InconsistencyError("norm vanishes less than the orders found at its points")
        if rest.evaluate(x0).mask == 0:
            raise InconsistencyError("norm order bookkeeping failed")
    return orders, rest


def verify_polyfunction_divisor(fn, expected):
    """Check div(fn) = sum expected (affine) - N*infinity exactly.

    expected: list of (affine point over fn.field, positive multiplicity).
    Verifies the pole order at infinity, the order at each expected point
    and at its involution partner (0 where none is expected), and that the
    norm has no zeros beyond them.  Raises VerificationError on a mismatch,
    InconsistencyError when the norm and the orders disagree, and
    ValueError on an entry at infinity.
    """
    expected = {_affine(p): m for p, m in _merge_points(expected)}
    if fn.is_zero():
        raise VerificationError("zero function has no divisor")
    if fn.pole_order_at_infinity() != sum(expected.values()):
        raise VerificationError("pole order at infinity does not match expected degree")
    orders, rest = _orders_and_rest(fn, expected)
    if any(o != expected.get(p, 0) for p, o in orders.items()):
        raise VerificationError("vanishing order mismatch at a point")
    if rest.degree > 0:
        raise VerificationError("norm has zeros outside the expected support")


class CurveFunction:
    """A function psi / chi with psi = a + b y and chi a polynomial in x;
    `rr_pole_bound` is the N of the space L(N*infinity) psi was found in."""

    __slots__ = ("num", "chi", "rr_pole_bound")

    def __init__(self, num, chi, rr_pole_bound):
        self.num = num
        self.chi = chi
        self.rr_pole_bound = rr_pole_bound

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
    exp_ord = dict(entries)
    actual, rest = _orders_and_rest(psi, exp_ord)
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
    if rest.degree == 1:
        roots = [(solve_linear(rest), 1)]
        target_field, emb = field, None
    else:
        rts, target_field, emb = solve_quadratic(rest)
        # solve_quadratic returns its roots ascending, with multiplicity
        roots = [(rts[0], 2)] if rts[0] == rts[1] else [(r, 1) for r in rts]
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
    """Mumford (u, v) for a merged effective list of total degree <= 2."""
    total = sum(m for _, m in entries)
    one, zero = Poly.one(field), Poly.zero(field)
    h, f = (Poly.from_masks(field, m) for m in curve.equation_masks(field))
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
