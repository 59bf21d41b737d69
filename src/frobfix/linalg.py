"""Reduced row echelon form and nullspaces over a field.

Matrices are plain lists of rows of FieldElement entries; a nonzero entry
is a unit, so every pivot is invertible.  The interpolation oracle in
`functions.interpolate_vanishing` is the only consumer.
"""


def rref(rows):
    """Reduced row echelon form of a nonempty matrix over a field; returns
    (rref_rows, pivot_cols)."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if rows[i][c].is_unit():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c].is_unit():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def nullspace(field, rows):
    """Basis of the right nullspace of a nonempty matrix over `field`."""
    nc = len(rows[0])
    rows, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    z, o = field.zero(), field.one()
    for fc in free:
        vec = [z] * nc
        vec[fc] = o
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis
