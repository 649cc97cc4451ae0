"""Reference elimination over ``Fraction``: the insert-based RREF.

Each row is reduced against the echelon and the remainder, scaled to a
leading 1, is back-substituted into every existing row at once.  Slow, but
simple enough to trust; the tests compare ``linalg.rref`` against it.
"""

from fractions import Fraction

from ramops.linalg import Echelon, SparseMatrix, vec_add_scaled


def insert(ech: Echelon, row) -> bool:
    """Reduce ``row`` against the echelon and absorb the remainder.

    Returns True when the row enlarged the row space.
    """
    work = dict(row)
    for piv, pos in ech._pivot_pos.items():
        coef = work.get(piv)
        if coef:
            vec_add_scaled(work, ech.rows[pos], -coef)
    if not work:
        return False
    lead = min(work)
    inv = Fraction(1) / work[lead]
    new_row = {c: v * inv for c, v in work.items()}
    # keep existing rows fully reduced (entries above the new pivot vanish)
    for existing in ech.rows:
        coef = existing.get(lead)
        if coef:
            vec_add_scaled(existing, new_row, -coef)
    ech.rows.append(new_row)
    ech.pivots.append(lead)
    ech._pivot_pos[lead] = len(ech.rows) - 1
    if len(ech.pivots) >= 2 and ech.pivots[-2] > lead:
        order = sorted(range(len(ech.pivots)), key=lambda k: ech.pivots[k])
        ech.pivots = [ech.pivots[k] for k in order]
        ech.rows = [ech.rows[k] for k in order]
        ech._pivot_pos = {p: k for k, p in enumerate(ech.pivots)}
    return True


def oracle_rref(m: SparseMatrix) -> Echelon:
    ech = Echelon(m.ncols)
    for row in m.rows:
        insert(ech, row)
    return ech


def oracle_reduce(ech: Echelon, v) -> dict:
    """Normal form of v: one subtraction per pivot, in increasing pivot order."""
    work = dict(v)
    for piv in ech.pivots:
        coef = work.get(piv)
        if coef:
            vec_add_scaled(work, ech.rows[ech._pivot_pos[piv]], -coef)
    return work
