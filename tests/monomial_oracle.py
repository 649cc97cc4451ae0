"""The tuple form of graph monomials, the oracle of the colored masks.

Before a graph monomial was its colored mask everywhere in the engine, it
was a tuple (one entry per color) of sorted edge tuples, each edge
oriented (min, max), and ``multiply`` and ``differential`` below are the
products and differentials of that form, sign rules spelled out letter by
letter.  ``mask_of`` is the bit encoding the engine uses (``graphalg``),
and ``graphalg.monomials_of_masks`` is its inverse; the tests compare the
mask routes with these through them.
"""

from itertools import combinations

from ramops.labels import atom_key


def edge_key(e):
    return (atom_key(e[0]), atom_key(e[1]))


def letter_order(item):
    return (item[0],) + edge_key(item[1])


def has_cycle(edges) -> bool:
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def sort_key(m, pres):
    """(h, w, the edge keys per color)."""
    h = sum(pres.colors[ci].bidegree[0] * len(es) for ci, es in enumerate(m))
    w = sum(pres.colors[ci].bidegree[1] * len(es) for ci, es in enumerate(m))
    return (h, w, tuple(tuple(edge_key(e) for e in es) for es in m))


def mask_of(labels):
    """The colored mask of a tuple-form monomial on the label set: the
    letter of color ci on the pair p of ``combinations(labels, 2)`` is bit
    ci * P + p (P pairs)."""
    pair_index = {e: p for p, e in enumerate(combinations(labels, 2))}
    npairs = len(pair_index)

    def mask(m) -> int:
        colored = 0
        for ci, es in enumerate(m):
            for e in es:
                colored |= 1 << (ci * npairs + pair_index[e])
        return colored

    return mask


def multiply(m1, m2, pres, mode="forest"):
    """Product of tuple-form monomials: merged monomial with the Koszul
    sign, or None when an edge repeats or (forest mode) a cycle appears."""
    all_edges = []
    for es1, es2 in zip(m1, m2):
        all_edges.extend(es1)
        all_edges.extend(es2)
    if len(set(all_edges)) != len(all_edges):
        return None
    if mode == "forest" and has_cycle(all_edges):
        return None
    odd1 = [(ci, e) for ci in range(len(pres.colors)) if pres.is_odd(ci) for e in m1[ci]]
    odd2 = [(ci, e) for ci in range(len(pres.colors)) if pres.is_odd(ci) for e in m2[ci]]
    inv = 0
    for x in odd1:
        kx = letter_order(x)
        for y in odd2:
            if letter_order(y) < kx:
                inv += 1
    sign = -1 if inv % 2 else 1
    key = tuple(tuple(sorted(m1[ci] + m2[ci], key=edge_key)) for ci in range(len(pres.colors)))
    return sign, key


def differential(m, pres, which):
    """d of the tuple-form monomial m as {monomial: sign}: ``up`` moves an
    a-letter to b, ``down`` a b-letter to a, each with the sign
    (-1)**(number of b-letters before it) in the canonical word."""
    ca, cb = pres.color_index["a"], pres.color_index["b"]
    a_edges, b_edges = m[ca], m[cb]
    out = {}
    if which == "up":
        for e in a_edges:
            smaller = sum(1 for f in b_edges if edge_key(f) < edge_key(e))
            new_a = tuple(f for f in a_edges if f != e)
            new_b = tuple(sorted(b_edges + (e,), key=edge_key))
            out[_rebuild(m, ca, new_a, cb, new_b)] = -1 if smaller % 2 else 1
    else:
        for pos, e in enumerate(b_edges):
            new_b = tuple(f for f in b_edges if f != e)
            new_a = tuple(sorted(a_edges + (e,), key=edge_key))
            out[_rebuild(m, ca, new_a, cb, new_b)] = -1 if pos % 2 else 1
    return out


def _rebuild(m, ca, new_a, cb, new_b):
    parts = list(m)
    parts[ca] = new_a
    parts[cb] = new_b
    return tuple(parts)
