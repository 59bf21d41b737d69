"""Function-field machinery for the genus-2 model.

A polynomial function on the curve is a(x) + b(x) y; it has poles only at
infinity, where ord(x) = -2 and ord(y) = -5 (so the two pole orders never
collide mod 2 and the pole order of a + b y is exact, no cancellation).

An affine point is the pair (x, y) of its coordinate masks over the one
field of its function, table of expansions or oracle step, as a
`jacobian.FormalDivisor` holds it; at infinity a function is described by
its pole order, so that point has no pair.  No CurvePoint enters this
module: a divisor converts its points once, where it is built.  With
h = x^2 + x fixed, as the group law takes it, the involution partner of
(x, y) is (x, y + x^2 + x) (`_partner`), and a point is a Weierstrass
point exactly when x is 0 or 1.

Local expansions are truncated series k'[s]/(s^n) held as tuples of
coefficient masks: the uniformizer is x - x0, with y solved for one
coefficient at a time, or y - y0 at an affine Weierstrass point, with x
solved for.  One residual per expansion: coefficient k of the unknown is
the single coefficient k of y^2 + h y + f, a sum of k + 1 products,
divided by a unit, and the full residual is computed once, to check the
finished expansion.  Away from the Weierstrass points h(x0 + s) and
f(x0 + s) are closed forms in the family's shape h = x^2 + x,
f = (0, A, 0, B, 0, A), the shape the group law reads
(`_shifted_equation`); at a Weierstrass point they are series Horner
(`_horner`).  The expansions of a + b y, the interpolation rows, the
norm, the residual roots and the Mumford pairs run on masks too, with the
memoised (h, f) of `Curve.equation_masks`, the `poly` and `series`
kernels and the field's exp/log tables, as does the nullspace (`linalg`).
The a and b of a + b y, and the chi of a witness, are trimmed
coefficient-mask tuples, so no boxed polynomial is built here.  A simple
point's interpolation row is the values (x0^i, y0 x0^j) of the basis,
with no series product (`_constraint_rows`).  A vanishing order is read
at the lowest precision of the ladder 2, 4, 8, ... that shows it
(`PolyFunction.ord_at`): precision 2 shows a simple zero, read as
coefficient 1 of a + b y directly from x and y mod s^2 and the b(x0) of
the value read (`_coefficient_one`), and the expansion mod s^2 is the
truncation of the one mod s^4, so the order read does not depend on where
the ladder starts.  An oracle step keeps one table of expansions
(`_Expansions`): each constraint point is expanded once, at the rung that
shows the order its multiplicity plans, any other point at the precision
first asked for, and again only if its order is beyond that; its rows and
order reads take truncations of that expansion, and the table goes when
the step ends.  Every divisor claim, in the oracle's steps and in a
witness's re-verification, is checked by one routine, `_orders_and_rest`:
it reads the vanishing order at each point and at its involution partner
from the expansions, and divides the norm N(a + b y) = a^2 + a b h +
b^2 f by exactly those orders, so the norm must account for every zero
found.
"""

from .errors import InconsistencyError, VerificationError
from .linalg import nullspace
from .poly import (
    _trim,
    _xor,
    divmod_monic,
    evaluate_masks,
    monic_quadratic_roots,
    mul_poly_masks,
)
from .series import mul_masks


class PolyFunction:
    """a(x) + b(x) y over a coordinate field of the curve, a and b the
    trimmed coefficient masks of two polynomials in x."""

    __slots__ = ("curve", "field", "a", "b")

    def __init__(self, curve, field, a, b):
        self.curve = curve
        self.field = field
        self.a = a
        self.b = b

    def is_zero(self):
        return not (self.a or self.b)

    def norm(self):
        """a^2 + a b h + b^2 f: the norm to the x-line, as the trimmed
        coefficient masks of a polynomial in x."""
        exp, log = self.field.tables()
        h, f = self.curve.equation_masks(self.field)
        a, b = self.a, self.b
        out = mul_poly_masks(exp, log, a, a)
        for p, q in ((mul_poly_masks(exp, log, a, b), h), (mul_poly_masks(exp, log, b, b), f)):
            out = _xor(out, mul_poly_masks(exp, log, p, q))
        return _trim(out)

    def pole_order_at_infinity(self):
        if self.is_zero():
            raise ValueError("zero function")
        return max(2 * len(p) + shift for p, shift in ((self.a, -2), (self.b, 3)) if p)

    def _value_mask(self, point):
        """(v, b0): the masks v of a(x0) + b(x0) y0 at the affine point
        (x0, y0) over this function's field and b0 of b(x0), which an order
        read passes on to `_coefficient_one`."""
        x0, y0 = point
        exp, log = self.field.tables()
        b = evaluate_masks(exp, log, self.b, x0)
        by = exp[log[b] + log[y0]] if b and y0 else 0
        return evaluate_masks(exp, log, self.a, x0) ^ by, b

    def _series(self, xs, ys):
        """The coefficient masks of a(xs) + b(xs) ys, the expansion at the
        point whose expansions of x and y are xs and ys."""
        field = self.field
        bs = mul_masks(field, _horner(field, self.b, xs), ys)
        return _xor(_horner(field, self.a, xs), bs)

    def ord_at(self, point, expansions=None):
        """Vanishing order at the affine point (x0, y0), a mask pair over
        this function's field (0 when the value is nonzero).

        The expansion is read at precision 2, 4, 8, ... until a nonzero
        coefficient shows: a simple zero, almost every zero the oracle
        meets, needs only precision 2, where coefficient 1 is read directly
        (`_coefficient_one`).  Each expansion is the truncation of the next,
        so the first nonzero coefficient is the same at every precision
        that reaches it.  The expansions come from `expansions`, an oracle
        step's table over this field, or from a table of this call alone."""
        if self.is_zero():
            raise ValueError("zero function")
        value, b0 = self._value_mask(point)
        if value:
            return 0
        expand = expansions or _Expansions(self.curve, self.field)
        if self._coefficient_one(*expand(point, 2), b0):
            return 1
        prec = 4
        # the order is at most deg N, so precision max(2 deg N + 2, 8) finds
        # it; that cap is at least 8, so the norm is needed only beyond 8
        while prec <= 8 or prec <= max(2 * len(self.norm()), 8):
            for i, c in enumerate(self._series(*expand(point, prec))):
                if c:
                    return i
            prec *= 2
        raise InconsistencyError("nonzero function vanishing beyond its norm degree")

    def _coefficient_one(self, xs, ys, b0):
        """The mask of coefficient 1 of the expansion of a + b y, for the
        expansions xs and ys of x and y (precision at least 2) and the mask
        b0 of b(x0): a'(x0) x1 + (b'(x0) x1 y0 + b0 y1), p' = p[1::2] at
        x0^2 as in `_mumford_from_points`, so an order read that stops at
        precision 2 takes no series product."""
        exp, log = self.field.tables()
        mul = self.field.mul_masks
        (x0, x1), (y0, y1) = xs[:2], ys[:2]
        sq = mul(x0, x0)
        da, db = (evaluate_masks(exp, log, p[1::2], sq) for p in (self.a, self.b))
        return mul(da ^ mul(db, y0), x1) ^ mul(b0, y1)

    def __repr__(self):
        return f"PolyFunction({self.a!r} + {self.b!r} y)"


def local_coordinates(curve, field, point, prec):
    """(x, y) as truncated series in the local uniformizer s at the affine
    point (x0, y0), a mask pair over `field`: two tuples of `prec`
    coefficient masks, lowest order first.

    s is x - x0 with y unknown, or y - y0 with x unknown at a Weierstrass
    point.  Adding c s^k to the unknown changes R = y^2 + h(x) y + f(x) by
    d c s^k plus higher terms, with d = h(x0), or h'(x0) y0 + f'(x0) at a
    Weierstrass point (p' is p[1::2] at x^2 in characteristic 2): a unit on
    the smooth curve.  So coefficient k is R_k / d for k = 1, ..., prec - 1,
    where R_k, coefficient k of R = (y + h) y + f with coefficient k of
    the unknown still 0, is a sum of k + 1 products.  h(x) and f(x) are
    the closed forms of `_shifted_equation` at x = x0 + s, and at a
    Weierstrass point Horner's rule re-evaluates them after each step.  The
    full R must then vanish."""
    h, f = curve.equation_masks(field)
    exp, log = field.tables()
    x0, y0 = point
    weierstrass = x0 in (0, 1)  # the roots of h = x^2 + x
    if weierstrass:
        ys, xs = _linear(y0, prec), [x0] + [0] * (prec - 1)
        hp, fp = (evaluate_masks(exp, log, p[1::2], field.mul_masks(x0, x0)) for p in (h, f))
        d, unknown = fp ^ field.mul_masks(hp, y0), xs
    else:
        xs, ys = _linear(x0, prec), [y0] + [0] * (prec - 1)
        hs, fs = _shifted_equation(field, f, x0, prec)
        d, unknown = hs[0], ys
    l_inv = log[field.inv_mask(d)]
    for k in range(1, prec):
        if weierstrass:
            hs, fs = _horner(field, h, tuple(xs)), _horner(field, f, tuple(xs))
        r = fs[k]
        for i in range(k + 1):
            a, b = ys[i] ^ hs[i], ys[k - i]
            if a and b:
                r ^= exp[log[a] + log[b]]
        if r:
            unknown[k] = exp[log[r] + l_inv]
    if weierstrass:
        hs, fs = _horner(field, h, tuple(xs)), _horner(field, f, tuple(xs))
    if any(_residual(field, hs, fs, ys)):
        raise InconsistencyError("local expansion fails the curve equation")
    return tuple(xs), tuple(ys)


def _shifted_equation(field, f, x0, n):
    """h(x0 + s) and f(x0 + s) mod s^n as mask tuples, for a nonzero x0
    and the family's h = x^2 + x and f = (0, A, 0, B, 0, A), A = f[1] and
    B = f[3] (x0 = 0 is a root of h, so no expansion shifts by it):

        h(x0 + s) = h(x0) + s + s^2
        f(x0 + s) = (f(x0), A + B x0^2 + A x0^4, B x0, B, A x0, A)

    with f(x0) = x0 (A + B x0^2 + A x0^4).  Both equal series Horner
    (`_horner`) of the model's masks at x0 + s, and `local_coordinates`
    checks every expansion built on them against the full residual."""
    exp, log = field.tables()
    a, b, pad = f[1], f[3], (0,) * n
    lx, la, lb = log[x0], log[a], log[b]
    l2 = 2 * lx % (field.order - 1)
    c1 = a ^ exp[lb + l2] ^ exp[la + 2 * l2 % (field.order - 1)]
    c0 = exp[lx + log[c1]] if c1 else 0
    hs = (exp[l2] ^ x0, 1, 1) + pad
    fs = (c0, c1, exp[lb + lx], b, exp[la + lx], a) + pad
    return hs[:n], fs[:n]


class _Expansions:
    """Local expansions of the affine points over one field, keyed by their
    mask pairs, each built by one `local_coordinates` call and read as
    truncations.  An oracle step keeps one table, so its interpolation rows
    and its order reads share each point's expansion, and the table goes
    when the step ends; a step whose residual points lie over the
    quadratic extension starts a new table there.  A point is expanded at
    the precision asked for, or, for a point of `planned` (pairs of a point
    and its multiplicity), at the rung of the order ladder 2, 4, 8, ...
    that shows the order of that multiplicity if higher: 2 for a simple
    point and 4 for multiplicity 2 or 3.  Only a point whose order is
    beyond what its expansion shows is expanded again, at the precision
    the order read asks for."""

    __slots__ = ("curve", "field", "rungs", "series")

    def __init__(self, curve, field, planned=()):
        self.curve = curve
        self.field = field
        self.rungs = {p: 1 << mult.bit_length() for p, mult in planned}
        self.series = {}

    def __call__(self, point, prec):
        """(xs, ys) at `point` mod s^prec."""
        xs, ys = self.series.get(point, ((), ()))
        if len(xs) < prec:
            xs, ys = self.series[point] = local_coordinates(
                self.curve, self.field, point, max(prec, self.rungs.get(point, 0))
            )
        return xs[:prec], ys[:prec]


def _partner(field, point):
    """The involution partner (x, y + h(x)) of the affine point (x, y), with
    h = x^2 + x; a Weierstrass point, x = 0 or 1, is its own partner."""
    x, y = point
    return x, y ^ field.mul_masks(x, x) ^ x


def _linear(c, prec, slope=1):
    """The masks of c + slope * s mod s^prec."""
    return ((c, slope) + (0,) * prec)[:prec]


def _residual(field, hs, fs, ys):
    """The masks of ys^2 + hs ys + fs = (ys + hs) ys + fs."""
    return _xor(mul_masks(field, _xor(ys, hs), ys), fs)


def _horner(field, cs, xs):
    """The masks of p(xs), for p given by its ascending coefficient masks cs
    and xs a series of the same truncation: series Horner, one truncated
    product per coefficient.  It serves `_series` and the expansions at a
    Weierstrass point, and is the reference for the closed forms of
    `_shifted_equation`."""
    acc = ((cs[-1] if cs else 0),) + (0,) * (len(xs) - 1)
    for c in cs[-2::-1]:
        acc = mul_masks(field, acc, xs)
        acc = (acc[0] ^ c,) + acc[1:]
    return acc


def _times_powers(field, start, xs, count):
    """[start * xs^k for k < count], one product per term."""
    out = [start] if count else []
    while len(out) < count:
        out.append(mul_masks(field, out[-1], xs))
    return out


def _constraint_rows(field, xs, ys, n_x, n_y):
    """The rows a point of multiplicity m = len(xs) adds: coefficient k < m
    of the expansion of each basis function x^i (i < n_x), then x^j y
    (j < n_y), at the point with expansions xs and ys.

    At m = 1, almost every constraint point the oracle meets, the row is
    the values (x0^i, y0 x0^j), with no product.  Otherwise the columns
    are the running powers xs^i, then ys xs^j, one product per basis
    function (`_times_powers`)."""
    m = len(xs)
    if m > 1:
        cols = _times_powers(field, _linear(1, m, 0), xs, n_x)
        cols += _times_powers(field, ys, xs, n_y)
        return list(zip(*cols))
    exp, log = field.tables()
    x0, y0, step = xs[0], ys[0], field.order - 1
    pows = [1] + [exp[i * log[x0] % step] if x0 else 0 for i in range(1, n_x)]  # x0^i
    return [tuple(pows) + tuple(exp[log[y0] + log[c]] if y0 and c else 0 for c in pows[:n_y])]


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
    return ([PolyFunction(curve, fld, (0,) * i + (1,), ()) for i in range(n_x)]
            + [PolyFunction(curve, fld, (), (0,) * j + (1,)) for j in range(n_y)])


def interpolate_vanishing(curve, field, m, constraints, expansions=None):
    """A nonzero element of L(m*infinity) over `field` vanishing to the
    prescribed order at each constraint point, or None.

    constraints: list of (affine point over `field` as its mask pair,
    multiplicity).  A point of multiplicity k gives k rows: the
    coefficients of s^0..s^(k-1) in the expansion of each basis function
    there (`_constraint_rows`, the values alone at a simple point), read
    from the expansion of an oracle step's table `expansions` when given.
    The choice is deterministic: first reduced-echelon nullspace vector,
    normalized so its first nonzero coordinate is 1.
    """
    n_x, n_y = _basis_shape(m)  # x^i first, then x^j y
    expand = expansions or _Expansions(curve, field)
    rows = []
    for point, mult in constraints:
        rows += _constraint_rows(field, *expand(point, mult), n_x, n_y)
    vecs = nullspace(field, rows) if rows else [[1] + [0] * (n_x + n_y - 1)]
    if not vecs:
        return None
    vec = vecs[0]
    if not any(vec):
        raise InconsistencyError("nullspace produced the zero function")
    exp, log = field.tables()
    l_inv = log[field.inv_mask(next(c for c in vec if c))]
    vec = [exp[log[c] + l_inv] if c else 0 for c in vec]
    return PolyFunction(curve, field, _trim(vec[:n_x]), _trim(vec[n_x:]))


# ---------------------------------------------------------------------------
# Exact divisor verification for polynomial functions.

def _merge_points(pairs):
    """The multiplicities of `pairs` summed per point, in the order each
    point first appears, without the points whose sum is 0."""
    merged = {}
    for p, m in pairs:
        merged[p] = merged.get(p, 0) + m
    return [(p, m) for p, m in merged.items() if m]


def _orders_and_rest(fn, points, expansions=None):
    """(orders, rest): the vanishing order of fn at each affine point (a
    mask pair over fn.field) of `points` and then at its involution
    partner, in that insertion order, and N(fn) divided by (x - x0)^e for
    each x0, e the sum of the orders above x0 (a Weierstrass point is its
    own partner, counted once), as trimmed coefficient masks, so its degree
    is len(rest) - 1.  The orders read the expansions of `expansions` when
    given.  A division that is not exact, or an x0 still a root, raises
    InconsistencyError."""
    field, orders, by_x = fn.field, {}, {}
    for p in points:
        for q in (p, _partner(field, p)):
            if q not in orders:
                orders[q] = o = fn.ord_at(q, expansions)
                by_x[q[0]] = by_x.get(q[0], 0) + o
    rest = fn.norm()
    exp, log = field.tables()
    for x0, e in by_x.items():
        lin = [(0, log[x0])] if x0 else []  # x + x0, as `monic_logs` gives it
        for _ in range(e):
            rest, r = divmod_monic(exp, log, rest, lin, 1)
            if any(r):
                raise InconsistencyError("norm vanishes less than the orders found at its points")
        if not evaluate_masks(exp, log, rest, x0):
            raise InconsistencyError("norm order bookkeeping failed")
    return orders, tuple(rest)


def verify_polyfunction_divisor(fn, expected):
    """Check div(fn) = sum expected (affine) - N*infinity exactly.

    expected: list of (affine point over fn.field as its mask pair,
    positive multiplicity).  Verifies the pole order at infinity, the order
    at each expected point and at its involution partner (0 where none is
    expected), and that the norm has no zeros beyond them.  Raises
    VerificationError on a mismatch and InconsistencyError when the norm
    and the orders disagree.
    """
    expected = dict(_merge_points(expected))
    if fn.is_zero():
        raise VerificationError("zero function has no divisor")
    if fn.pole_order_at_infinity() != sum(expected.values()):
        raise VerificationError("pole order at infinity does not match expected degree")
    orders, rest = _orders_and_rest(fn, expected)
    if any(o != expected.get(p, 0) for p, o in orders.items()):
        raise VerificationError("vanishing order mismatch at a point")
    if len(rest) > 1:
        raise VerificationError("norm has zeros outside the expected support")


class CurveFunction:
    """A function psi / chi with psi = a + b y and chi a polynomial in x,
    as trimmed coefficient masks; `rr_pole_bound` is the N of the space
    L(N*infinity) psi was found in."""

    __slots__ = ("num", "chi", "rr_pole_bound")

    def __init__(self, num, chi, rr_pole_bound):
        self.num = num
        self.chi = chi
        self.rr_pole_bound = rr_pole_bound

    def __repr__(self):
        return f"CurveFunction(({self.num.a!r} + {self.num.b!r} y) / {self.chi!r})"


def principal_witness_core(curve, field, affine_entries, inf_mult):
    """Witness phi with div(phi) = sum m_P P + inf_mult * infinity, or None.

    affine_entries: list of (affine point over `field` as its mask pair,
    nonzero int), merged per point.  The search space is psi in
    L(N*infinity) vanishing on D+ together with the involution of D-, with
    chi the product of x - x(P) over D-; any nonzero solution has exactly
    the required divisor, which is then re-verified from scratch.
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
        return CurveFunction(PolyFunction(curve, field, (1,), ()), (1,), 0)
    exp, log = field.tables()
    chi = [1]
    for (x, _), m in neg:
        for _ in range(m):
            chi = mul_poly_masks(exp, log, chi, (x, 1))
    constraints = _merge_points(pos + [(_partner(field, p), m) for p, m in neg])
    psi = interpolate_vanishing(curve, field, n_total, constraints)
    if psi is None:
        return None
    verify_polyfunction_divisor(psi, constraints)
    return CurveFunction(psi, tuple(chi), n_total)


# ---------------------------------------------------------------------------
# Independent Riemann-Roch reduction oracle.

def reduce_points_oracle(curve, field, entries):
    """Reduce an effective affine point list to a Mumford pair, using only
    interpolation and exact divisor extraction (independent of the Cantor
    composition path).

    entries: list of (affine point over `field` as its mask pair, positive
    multiplicity), merged per point.  Returns (u, v, field'),
    u and v trimmed coefficient-mask tuples over field', `field` or its
    quadratic extension.
    """
    entries = _merge_points(entries)
    if any(m < 0 for _, m in entries):
        raise ValueError("oracle reduction expects an effective list")
    while sum(m for _, m in entries) > 2:
        entries, field = _oracle_step(curve, field, entries)
    return _mumford_from_points(curve, field, entries)


def _oracle_step(curve, field, entries):
    """One reduction step: psi in L((k + 2) infinity) vanishing on the k
    points of `entries`, whose other zeros, at most two, are read from its
    orders and the residual of its norm; returns their involution partners
    and the field they lie over.

    The step keeps one `_Expansions` table over its field (and a new one
    over the quadratic extension, if its residual points lie there), so
    every point it reads, the constraint points, their partners and the
    residual points, is expanded once: a constraint point at the first
    rung of the order ladder that shows the order its multiplicity plans,
    any other point at the precision its first order read asks for, and
    again only where its order is beyond what that expansion shows.  The
    interpolation rows and the order reads take truncations of that
    expansion."""
    k = sum(m for _, m in entries)
    expansions = _Expansions(curve, field, entries)
    psi = interpolate_vanishing(curve, field, k + 2, entries, expansions)
    if psi is None:
        raise InconsistencyError("interpolation space unexpectedly empty")
    exp_ord = dict(entries)
    actual, rest = _orders_and_rest(psi, exp_ord, expansions)
    if len(rest) > 3:
        raise InconsistencyError("oracle residual has degree > 2")
    # leftover vanishing at known points beyond the input multiplicities
    new_entries = []
    for p, o in actual.items():
        excess = o - exp_ord.get(p, 0)
        if excess < 0:
            raise InconsistencyError("imposed vanishing not attained")
        if excess:
            new_entries.append((_partner(field, p), excess))
    # genuinely new zeros from the residual factor of the norm
    if len(rest) > 1:
        return _extract_residual_points(curve, field, psi, rest, new_entries, expansions)
    return _merge_points(new_entries), field


def _extract_residual_points(curve, field, psi, rest, new_entries, expansions):
    """The residual zeros of psi, the roots of `rest`, added to `new_entries`
    as their involution partners, with the field they lie over: `field`, or
    its quadratic extension, to which the entries and psi are lifted and
    where a new table of expansions starts."""
    if len(rest) == 2:  # r0 + r1 x, with the root r0 / r1
        roots, emb = [(field.mul_masks(rest[0], field.inv_mask(rest[1])), 1)], None
    else:
        inv = field.inv_mask(rest[2])
        rts, _, emb = monic_quadratic_roots(
            field, field.mul_masks(rest[1], inv), field.mul_masks(rest[0], inv)
        )
        roots = [(rts[0], 2)] if rts[0] == rts[1] else [(r, 1) for r in rts]
    if emb is not None:
        field = emb.target
        new_entries = [((emb.image_mask(x), emb.image_mask(y)), m) for (x, y), m in new_entries]
        psi = PolyFunction(curve, field, *(tuple(map(emb.image_mask, p)) for p in (psi.a, psi.b)))
        expansions = _Expansions(curve, field)
    for x0, mu in roots:
        # x0 is a root of the norm, so the points above it lie over this field
        above = [(x0, y) for y in curve._ys_at(field, x0)]
        if not above:
            raise InconsistencyError("residual point not defined over the working field")
        p1 = above[0]
        if len(above) == 1:  # a Weierstrass point, its own involution partner
            new_entries.append((p1, mu))
            continue
        o1 = min(psi.ord_at(p1, expansions), mu)
        o2 = mu - o1
        if o1:
            new_entries.append((_partner(field, p1), o1))
        if o2:
            p2 = above[1]
            if psi.ord_at(p2, expansions) < o2:
                raise InconsistencyError("residual order split failed")
            new_entries.append((_partner(field, p2), o2))
    return _merge_points(new_entries), field


def _mumford_from_points(curve, field, entries):
    """Mumford (u, v), as trimmed coefficient-mask tuples, for a merged
    effective list of mask pairs of total degree <= 2."""
    total = sum(m for _, m in entries)
    if total == 0:
        return (1,), (), field
    p = entries[0][0]
    (x1, y1), mul = p, field.mul_masks
    if total == 1:
        return (x1, 1), _trim([y1]), field
    if len(entries) == 1:
        if x1 in (0, 1):  # a Weierstrass point
            return (1,), (), field  # 2P ~ 2*infinity
        # the tangent's slope (f'(x1) + h'(x1) y1) / h(x1), p' = p[1::2] at x^2
        exp, log = field.tables()
        h, f = curve.equation_masks(field)
        sq = mul(x1, x1)
        hp, fp = (evaluate_masks(exp, log, c[1::2], sq) for c in (h, f))
        slope = mul(fp ^ mul(hp, y1), field.inv_mask(evaluate_masks(exp, log, h, x1)))
        return (sq, 0, 1), _trim([y1 ^ mul(slope, x1), slope]), field
    q = entries[1][0]
    if q == _partner(field, p):
        return (1,), (), field  # canonical pair
    # distinct x-coordinates (same x with different y is the involution pair)
    x2, y2 = q
    slope = mul(y1 ^ y2, field.inv_mask(x1 ^ x2))
    return (mul(x1, x2), x1 ^ x2, 1), _trim([y1 ^ mul(slope, x1), slope]), field
