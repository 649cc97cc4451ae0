"""Grafting by three walks, the oracle of ``operad.compose``.

``operad.compose`` grafts in one walk along the path to the place leaf and
swaps children only there.  The oracle takes the long way: it finds h of the
generators after the place leaf in preorder, replaces the leaf, and then
canonicalizes the whole grafted tree.
"""

from ramops.labels import STAR, atom_key
from ramops.operad import OperadElement, canonicalize, is_leaf, tree_h


def _h_after_place(t, place, gens):
    """(found, h of generators after the place leaf in preorder, h of t)."""
    if is_leaf(t):
        return (t == place, 0, 0)
    g, l, r = t
    fl, al, hl = _h_after_place(l, place, gens)
    fr, ar, hr = _h_after_place(r, place, gens)
    total = gens[g].bidegree[0] + hl + hr
    if fl:
        return True, al + hr, total
    if fr:
        return True, ar, total
    return False, 0, total


def _replace_leaf(t, place, sub):
    if is_leaf(t):
        return sub if t == place else t
    g, l, r = t
    return (g, _replace_leaf(l, place, sub), _replace_leaf(r, place, sub))


def oracle_compose(x, y, place=STAR):
    """Graft y into the ``place`` leaf of x, picking up
    ``(-1)**(h(y_term) * h(generators after the place leaf))`` per term."""
    if place not in x.labels:
        raise ValueError(f"place {place!r} not among labels {x.labels}")
    remaining = tuple(a for a in x.labels if a != place)
    overlap = set(remaining) & set(y.labels)
    if overlap:
        raise ValueError(f"label collision {sorted(overlap, key=atom_key)}")
    out = OperadElement(remaining + y.labels, x.gens)
    for ty, cy in y.terms.items():
        hy = tree_h(ty, x.gens)
        for tx, cx in x.terms.items():
            found, h_after, _ = _h_after_place(tx, place, x.gens)
            if not found:
                raise ValueError(f"place {place!r} missing from a term")
            coeff = cx * cy
            if (hy & 1) and (h_after & 1):
                coeff = -coeff
            sign, canon = canonicalize(_replace_leaf(tx, place, ty), x.gens)
            out._add_term(canon, coeff * sign)
    return out
