"""Exact arithmetic in binary finite fields GF(2^d) for d <= 16.

Elements are integer bit-masks: bit i is the coefficient of x^i in the
polynomial-basis representation modulo the irreducible modulus of
degree d in the shipped table.  There is one field per degree: the table
is verified entry by entry (degree and exhaustive factor search) when it
loads, so no shipped constant is taken on faith, and `BinaryField(d)`
builds GF(2^d) with its exp/log tables at the first request and returns
that same object at every later one, so fields compare by identity and
the caches below are keyed by degree.

Towers are explicit: an element belongs to exactly one field, and moving
between fields requires a FieldEmbedding.  Mixing elements of different
fields in arithmetic raises FieldMismatchError instead of coercing.

The deterministic element ordering used for all "smallest root" style
choices is the integer order of the bit-mask.

One arithmetic: every product, inverse, power, square root, trace and
multiplicative order reads the field's exp/log tables (`mul_masks`,
`inv_mask`, `pow_mask`).  The carry-less `_mul_raw`/`_pow_raw` serve only
the primitive-element search that builds those tables.

Nothing is rebuilt per call: a default embedding is found among the 2^a
elements of the target's order-2^a subfield, and x -> x^q + x gets one
cached echelon per (field, q), whose particular solution of x^q + x = r
is already the smallest root.  `trace_mask` caches the absolute trace as one bit-mask per
field, so z^2 + z = r is decided solvable by the parity of r & mask,
with no root found; `trace_dual_mask` gives a -> Tr(c a) the same way.
`quadratic_root_masks` is the one root kernel for y^2 + b y = c: curve
points, Mumford supports and the oracle's residual points all come from
it.
"""

import math
from functools import lru_cache
from importlib import resources

from .errors import (
    DegreeCapError,
    EmbeddingError,
    FieldConstructionError,
    FieldMismatchError,
    SearchExhaustedError,
)

DEGREE_CAP = 16


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on bit-masks (bit i = coefficient of x^i).

def mask_degree(m):
    """Degree of the GF(2) polynomial encoded by mask m (-1 for m == 0)."""
    return m.bit_length() - 1


def mask_mul(a, b):
    """Carry-less product of two GF(2) polynomial masks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def mask_mod(a, m):
    """Remainder of mask a modulo mask m (m != 0)."""
    dm = mask_degree(m)
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def find_factor(m):
    """Nontrivial factor of the GF(2) polynomial m, or None if irreducible.

    Exhaustive trial division by every polynomial of degree 1..deg(m)//2;
    cheap for the degrees this package supports (deg <= 16).
    """
    d = mask_degree(m)
    if d < 1:
        return 0
    for f in range(2, 1 << (d // 2 + 1)):
        if mask_degree(f) >= 1 and mask_mod(m, f) == 0:
            return f
    return None


@lru_cache(maxsize=1)
def default_modulus_table():
    """Shipped degree -> modulus table, re-verified entry by entry at load."""
    text = resources.files("frobfix.data").joinpath("irreducibles.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        d_str, mask_str = line.split(",")
        d, mask = int(d_str), int(mask_str, 16)
        if mask_degree(mask) != d:
            raise FieldConstructionError(f"table entry for d={d} has degree {mask_degree(mask)}")
        factor = find_factor(mask)
        if factor is not None:
            raise FieldConstructionError(
                f"table modulus {hex(mask)} for d={d} is reducible: factor {hex(factor)}"
            )
        table[d] = mask
    return table


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Fields and elements.

_fields = {}


class BinaryField:
    """The field GF(2^degree), modulo the table's modulus of that degree.

    There is one field per degree: `BinaryField(d)` returns the field built
    at the first request for d, so field equality is identity.  Its exp/log
    tables are built with it (the order is at most 2^16, so full tables are
    always affordable).
    """

    def __new__(cls, degree):
        field = _fields.get(degree)
        if field is None:
            if not 1 <= degree <= DEGREE_CAP:
                raise FieldConstructionError(f"degree must be in 1..{DEGREE_CAP}, got {degree}")
            field = super().__new__(cls)
            field.degree = degree
            field.modulus = default_modulus_table()[degree]
            field.order = 1 << degree
            field._ensure_tables()
            _fields[degree] = field
        return field

    # -- identity ----------------------------------------------------------
    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"GF(2^{self.degree}; {hex(self.modulus)})"

    # -- element constructors ----------------------------------------------
    def element(self, mask):
        if not 0 <= mask < self.order:
            raise ValueError(f"mask {mask:#x} out of range for {self!r}")
        return FieldElement(self, mask)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def gen(self):
        """The residue class of x (for d = 1 this is 1, the root of x+1)."""
        return FieldElement(self, 2 % self.order if self.degree > 1 else 1)

    def elements(self):
        return (FieldElement(self, m) for m in range(self.order))

    def random(self, rng):
        return FieldElement(self, rng.randrange(self.order))

    # -- raw mask arithmetic, for the primitive-element search only ----------
    def _mul_raw(self, a, b):
        return mask_mod(mask_mul(a, b), self.modulus)

    def _pow_raw(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _ensure_tables(self):
        """Walk the powers of the smallest primitive element g.  g is small
        (3 for d = 16), so each step is a few shifted XORs by g's set bits
        and a reduction of the few bits above degree d - 1."""
        n, top, modulus = self.order - 1, self.order, self.modulus
        primes = _prime_factors(n) if n > 1 else []
        g = next(
            (c for c in range(2, top) if all(self._pow_raw(c, n // p) != 1 for p in primes)),
            1,  # GF(2): trivial unit group
        )
        shifts = [s for s in range(g.bit_length()) if g >> s & 1]
        exp = [0] * (2 * n)
        log = [0] * top
        v = 1
        for i in range(n):
            exp[i] = exp[i + n] = v
            log[v] = i
            r = 0
            for s in shifts:
                r ^= v << s
            while r >= top:
                r ^= modulus << (r.bit_length() - 1 - self.degree)
            v = r
        self._exp, self._log = exp, log

    def tables(self):
        """(exp, log): exp[i] = g^i for 0 <= i < 2(order - 1), so the sum of
        two logs indexes it directly; log[m] is the log of a nonzero m."""
        return self._exp, self._log

    def mul_masks(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        return self._exp[self._log[a] + self._log[b]]

    def inv_mask(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1 or self.order == 2:
            return 1
        return self._exp[self.order - 1 - self._log[a]]

    def pow_mask(self, a, e):
        """a^e for a mask a and any integer e (negative e inverts): the log
        of a times e, reduced mod order - 1."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]


class FieldElement:
    """An element of a BinaryField, stored as a bit-mask.  Immutable."""

    __slots__ = ("field", "mask")

    def __init__(self, field, mask):
        self.field = field
        self.mask = mask

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if self.field is not other.field:
            raise FieldMismatchError(
                f"elements of {self.field!r} and {other.field!r} mixed without embedding"
            )

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.mask ^ other.mask)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul_masks(self.mask, other.mask))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(
            self.field, self.field.mul_masks(self.mask, self.field.inv_mask(other.mask))
        )

    def __pow__(self, e):
        return FieldElement(self.field, self.field.pow_mask(self.mask, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_mask(self.mask))

    def is_unit(self):
        return self.mask != 0

    def frobenius(self):
        """The square a^2 (the absolute Frobenius in characteristic 2)."""
        return self * self

    def sqrt(self):
        """The unique square root a^(2^(d-1)); squaring is bijective in char 2."""
        return self ** (1 << (self.field.degree - 1))

    def trace(self, subdegree=1):
        """Trace to the subfield GF(2^subdegree), for a positive subdegree dividing d."""
        d = self.field.degree
        if subdegree < 1 or d % subdegree:
            raise ValueError(f"subdegree {subdegree} is not a positive divisor of {d}")
        q = 1 << subdegree
        acc = term = self.mask
        for _ in range(d // subdegree - 1):
            term = self.field.pow_mask(term, q)
            acc ^= term
        return FieldElement(self.field, acc)

    def multiplicative_order(self):
        if self.mask == 0:
            raise ZeroDivisionError("order of zero")
        n = self.field.order - 1
        order = n
        for p in _prime_factors(n):
            while order % p == 0 and self.field.pow_mask(self.mask, order // p) == 1:
                order //= p
        return order

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.mask == other.mask
            and self.field is other.field
        )

    def __hash__(self):
        return hash((self.field.degree, self.field.modulus, self.mask))

    def __bool__(self):
        return self.mask != 0

    def __repr__(self):
        return f"{hex(self.mask)}@GF(2^{self.field.degree})"


# ---------------------------------------------------------------------------
# Embeddings and the default tower.

class FieldEmbedding:
    """A ring homomorphism GF(2^a) -> GF(2^b) (a | b), given by a root choice.

    The map sends the source generator to `image_of_generator`, a root of
    the source modulus in the target; on masks it is GF(2)-linear, so it is
    applied by XOR-ing precomputed images of the source power basis, and
    inverted on its image subfield by one echelon of those images, built
    at the first preimage and kept.
    """

    __slots__ = ("source", "target", "image_of_generator", "_basis_images", "_pivots")

    def __init__(self, source, target, image_of_generator):
        self.source = source
        self.target = target
        self.image_of_generator = image_of_generator
        imgs = []
        acc = 1
        for _ in range(source.degree):
            imgs.append(acc)
            acc = target.mul_masks(acc, image_of_generator.mask)
        self._basis_images = imgs
        self._pivots = None

    def __call__(self, elem):
        if elem.field != self.source:
            raise FieldMismatchError(f"embedding expects elements of {self.source!r}")
        return FieldElement(self.target, self.image_mask(elem.mask))

    def image_mask(self, m):
        """The image of the source element with mask m, as a target mask."""
        out = 0
        i = 0
        while m:
            if m & 1:
                out ^= self._basis_images[i]
            m >>= 1
            i += 1
        return out

    def preimage(self, elem):
        """The source element mapping to elem, or None if elem is outside
        the image subfield."""
        if elem.field != self.target:
            raise FieldMismatchError("preimage of an element of the wrong field")
        if self._pivots is None:
            self._pivots = _echelon_gf2(self._basis_images)[0]
        combo = _reduce_gf2(self._pivots, elem.mask)
        if combo is None:
            return None
        return FieldElement(self.source, combo)

    def is_identity(self):
        return self.source == self.target and self(self.source.gen()) == self.source.gen()

    def __repr__(self):
        return f"GF(2^{self.source.degree})->GF(2^{self.target.degree})"


default_field = BinaryField  # the same constructor, under the name most callers use


_embed_cache = {}


def _roots_of_gf2_poly(modulus, target):
    """Ascending masks of the roots in `target` of `modulus`, a GF(2)
    polynomial that must be irreducible of degree a dividing b = target.degree:
    its roots lie in the subfield {0} u <g^((2^b-1)/(2^a-1))> (g the exp
    table's generator), whose 2^a elements are tried by Horner evaluation."""
    a = mask_degree(modulus)
    exp, _ = target.tables()
    step = (target.order - 1) // ((1 << a) - 1)
    out = []
    for z in [0] + exp[0:target.order - 1:step]:
        acc = 0
        for i in range(a, -1, -1):
            acc = target.mul_masks(acc, z) ^ (modulus >> i & 1)
        if acc == 0:
            out.append(z)
    return sorted(out)


def _default_tower_embedding(a, b):
    """The canonical coherent embedding default(a) -> default(b).

    Among the ascending roots of the degree-a default modulus in the
    degree-b default field, the first one compatible with the embeddings
    already fixed on every maximal proper subfield is chosen.  Processing
    subfields first makes the whole divisibility lattice commute, which is
    what keeps mixed-field curve arithmetic consistent.
    """
    src, tgt = default_field(a), default_field(b)
    if a == b:
        return FieldEmbedding(src, tgt, tgt.gen())
    constraints = []
    for p in _prime_factors(a):
        sub = a // p
        lower = embed(default_field(sub), src)
        upper = embed(default_field(sub), tgt)
        gen_sub = default_field(sub).gen()
        constraints.append((lower(gen_sub), upper(gen_sub)))
    for root_mask in _roots_of_gf2_poly(src.modulus, tgt):
        cand = FieldEmbedding(src, tgt, FieldElement(tgt, root_mask))
        if all(cand(via_src) == direct for via_src, direct in constraints):
            return cand
    raise EmbeddingError(
        f"no tower-compatible root of {hex(src.modulus)} in {tgt!r}"
    )


def embed(source, target):
    """The canonical embedding GF(2^a) -> GF(2^b) for a | b.

    The embeddings form a commuting system over the divisibility lattice
    (each is the smallest root of the source modulus compatible with all
    previously fixed subfield embeddings).  Built once per pair and cached.
    """
    if target.degree % source.degree:
        raise EmbeddingError(
            f"no embedding: {source.degree} does not divide {target.degree}"
        )
    key = (source.degree, source.modulus, target.degree, target.modulus)
    emb = _embed_cache.get(key)
    if emb is None:
        emb = _embed_cache[key] = _default_tower_embedding(source.degree, target.degree)
    return emb


def identity_embedding(field):
    return embed(field, field)


def join_fields(f1, f2):
    """Smallest common overfield with explicit embeddings.

    Returns (E, e1, e2) where E is f1 or f2 when one contains the other,
    and otherwise the default field of degree lcm(d1, d2).
    """
    if f1 == f2:
        e = identity_embedding(f1)
        return f1, e, e
    if f2.degree % f1.degree == 0:
        return f2, embed(f1, f2), identity_embedding(f2)
    if f1.degree % f2.degree == 0:
        return f1, identity_embedding(f1), embed(f2, f1)
    d1, d2 = f1.degree, f2.degree
    lcm = d1 * d2 // math.gcd(d1, d2)
    if lcm > DEGREE_CAP:
        raise DegreeCapError(f"compositum degree {lcm} exceeds cap {DEGREE_CAP}")
    e = default_field(lcm)
    return e, embed(f1, e), embed(f2, e)


def quadratic_extension(field):
    """The embedding of `field` into the default field of twice its degree."""
    if 2 * field.degree > DEGREE_CAP:
        raise DegreeCapError(f"quadratic extension of degree {2 * field.degree} exceeds cap")
    return embed(field, default_field(2 * field.degree))


# ---------------------------------------------------------------------------
# Artin-Schreier equations x^q - x = d (char 2: x^q + x = d).

def _echelon_gf2(cols):
    """(pivots, kernel_basis): leading bit -> (column, combination mask)."""
    kernel = []
    pivots = {}
    for i, v in enumerate(cols):
        c = 1 << i
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                pv, pc = pivots[top]
                v ^= pv
                c ^= pc
            else:
                pivots[top] = (v, c)
                break
        if v == 0:
            kernel.append(c)
    return pivots, kernel


def _reduce_gf2(pivots, rhs):
    """A combination mask hitting rhs, or None outside the column span."""
    v, c = rhs, 0
    while v:
        top = v.bit_length() - 1
        if top not in pivots:
            return None
        pv, pc = pivots[top]
        v ^= pv
        c ^= pc
    return c


def solve_gf2_linear(cols, rhs):
    """Solve sum_i x_i * cols[i] = rhs over GF(2) (columns are bit-masks):
    (particular, kernel_basis) as combination masks over the column indices,
    with particular None if unsolvable."""
    pivots, kernel = _echelon_gf2(cols)
    return _reduce_gf2(pivots, rhs), kernel


_as_cache = {}


def _as_solving_map(field, q):
    """Build and cache, under (degree, q), the solving map of x -> x^q + x
    on `field`: the operator's echelon (its columns are the images of the
    mask basis, so a combination mask is a preimage)."""
    k = q.bit_length() - 1
    if q != 1 << k or k < 1 or field.degree % k:
        raise ValueError(f"q={q} is not a power of 2 dividing the field order")
    bits = [1 << i for i in range(field.degree)]
    pivots = _echelon_gf2([field.pow_mask(b, q) ^ b for b in bits])[0]
    _as_cache[field.degree, q] = pivots
    return pivots


def artin_schreier_root_mask(field, q, rhs):
    """Mask of the smallest root of x^q + x = rhs (a mask) in `field`, or
    None when the GF(q)-trace of rhs obstructs.  The root read off the
    echelon combines pivot columns only, while each vector of the kernel
    GF(q) has its top bit at a column that is no pivot, so the root plus
    any nonzero kernel vector is larger."""
    pivots = _as_cache.get((field.degree, q))
    return _reduce_gf2(_as_solving_map(field, q) if pivots is None else pivots, rhs)


def quadratic_root_masks(field, b, c):
    """Masks y in `field` with y^2 + b y = c (b, c masks): the square root
    of c when b = 0, else b z, then b (z + 1), for the smallest root z of
    z^2 + z = c / b^2; [] when that equation has no root in `field`."""
    if b == 0:
        return [field.pow_mask(c, field.order >> 1)]
    inv = field.inv_mask(b)
    z = artin_schreier_root_mask(field, 2, field.mul_masks(c, field.mul_masks(inv, inv)))
    if z is None:
        return []
    return [field.mul_masks(b, z), field.mul_masks(b, z ^ 1)]


_trace_cache = {}


def trace_mask(field):
    """The absolute trace GF(2^d) -> GF(2) as a bit-mask: bit i is Tr(x^i),
    so by linearity Tr(r) is the parity of r & trace_mask(field).  Cached
    per degree, as `_as_cache` caches the solving maps."""
    tm = _trace_cache.get(field.degree)
    if tm is None:
        tm = sum(FieldElement(field, 1 << i).trace().mask << i for i in range(field.degree))
        _trace_cache[field.degree] = tm
    return tm


def trace_dual_mask(field, c):
    """The functional a -> Tr(c a) as a bit-mask, for a mask c: bit i is
    Tr(c x^i), so by linearity Tr(c a) is the parity of a & the mask.  It
    costs d table products; c = 1 gives `trace_mask(field)`."""
    tm = trace_mask(field)
    return sum(
        ((field.mul_masks(c, 1 << i) & tm).bit_count() & 1) << i for i in range(field.degree)
    )


def artin_schreier_root_in_field(field, q, d_elem):
    """Smallest root of x^q + x = d inside `field` (d an element of it),
    or None when the GF(q)-trace obstructs: `artin_schreier_root_mask` on
    d's mask, through the map for (field, q) built on the first call."""
    if d_elem.field != field:
        raise FieldMismatchError("d must be an element of the given field")
    z = artin_schreier_root_mask(field, q, d_elem.mask)
    return None if z is None else FieldElement(field, z)


def artin_schreier_solve(field, q, d_elem):
    """Solve x^q + x = d over `field`, extending by degree 2 if needed.

    Returns (root, multiplier): multiplier is 1 when the root lies in
    `field` (exactly when Tr_{field/GF(q)}(d) = 0) and 2 when it lies in
    the default quadratic extension.  The root is the smallest solution
    in mask order; the full solution set is root + GF(q).
    """
    root = artin_schreier_root_in_field(field, q, d_elem)
    if root is not None:
        return root, 1
    emb = quadratic_extension(field)
    root = artin_schreier_root_in_field(emb.target, q, emb(d_elem))
    if root is None:
        raise SearchExhaustedError("Artin-Schreier equation unsolvable in quadratic extension")
    return root, 2
