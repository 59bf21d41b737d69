"""Reduced row echelon form and nullspaces over a binary field.

Matrices are plain lists of rows of coefficient masks of one field, whose
exp/log tables the elimination indexes directly; a nonzero entry is a
unit, so every pivot is invertible.  The interpolation oracle in
`functions.interpolate_vanishing` is the only consumer.
"""


def rref(field, rows):
    """Reduced row echelon form of a nonempty matrix of masks over `field`;
    returns (rref_rows, pivot_cols).  Pivots are taken column by column,
    each from the first row at or below the current one that is nonzero
    there."""
    exp, log = field.tables()
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        l_inv = log[field.inv_mask(rows[r][c])]
        prow = rows[r] = [exp[log[a] + l_inv] if a else 0 for a in rows[r]]
        logs_p = [(j, log[b]) for j, b in enumerate(prow) if b]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                lf = log[f]
                row = rows[i]
                for j, lb in logs_p:
                    row[j] ^= exp[lf + lb]  # char 2: a - f b = a + f b
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def nullspace(field, rows):
    """Basis of the right nullspace of a nonempty matrix of masks over
    `field`, one vector (a list of masks) per free column, in column order:
    1 at the free column and the negated (in char 2, the same) entries of
    that column of the rref at the pivot columns."""
    nc = len(rows[0])
    rows, pivots = rref(field, rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * nc
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = rows[r][fc]
        basis.append(vec)
    return basis
