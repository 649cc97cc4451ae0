"""Free operads on binary generators, their quotients by quadratic relations.

A tree monomial is a full binary tree: internal vertices carry generator
names, leaves carry pairwise-distinct atoms.  Trees are nested tuples
``(gen, left, right)`` with bare atoms as leaves.  The canonical form puts
the subtree containing the smallest leaf on the left at every vertex; the
sign collected while swapping children is ``symmetry(g)`` times the Koszul
factor ``(-1)**(h(left)*h(right))``, where only the first degree ``h``
carries signs.

Composite expressions are read as tensor words in preorder (vertex before
left before right).  Grafting an element into a place-holder leaf therefore
picks up ``(-1)**(h(graft) * h(generators after the leaf))``, and the same
word order fixes the derivation and coproduct signs used downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .cache import ComponentStore
from .labels import (
    Atom,
    BiDegree,
    STAR,
    atom_key,
    check_label_set,
    ordered_splits,
    standard_labels,
)
from .linalg import Combination, SparseMatrix
from .quotient import QuotientComponent, load_component

Tree = object  # Atom | tuple[str, Tree, Tree]


@dataclass(frozen=True)
class GeneratorSpec:
    """A binary generator: bidegree (h, w) and symmetry +1/-1 under swap."""

    name: str
    bidegree: BiDegree
    symmetry: int
    arity: int = 2

    def __post_init__(self):
        if self.arity != 2:
            raise ValueError("only binary generators are supported")
        if self.symmetry not in (1, -1):
            raise ValueError("symmetry must be +1 or -1")


Signature = Mapping[str, GeneratorSpec]


def is_leaf(t: Tree) -> bool:
    return not isinstance(t, tuple)


def tree_leaves(t: Tree) -> Iterator[Atom]:
    if is_leaf(t):
        yield t
    else:
        yield from tree_leaves(t[1])
        yield from tree_leaves(t[2])


def tree_min_key(t: Tree):
    if is_leaf(t):
        return atom_key(t)
    return min(tree_min_key(t[1]), tree_min_key(t[2]))


def tree_bidegree(t: Tree, gens: Signature) -> BiDegree:
    if is_leaf(t):
        return (0, 0)
    g, l, r = t
    hl, wl = tree_bidegree(l, gens)
    hr, wr = tree_bidegree(r, gens)
    hg, wg = gens[g].bidegree
    return (hg + hl + hr, wg + wl + wr)


def tree_h(t: Tree, gens: Signature) -> int:
    return tree_bidegree(t, gens)[0]


def tree_sort_key(t: Tree):
    if is_leaf(t):
        return (0, atom_key(t))
    return (1, t[0], tree_sort_key(t[1]), tree_sort_key(t[2]))


def tree_to_json(t: Tree):
    if is_leaf(t):
        return t
    return [t[0], tree_to_json(t[1]), tree_to_json(t[2])]


def tree_from_json(data) -> Tree:
    if isinstance(data, list):
        return (data[0], tree_from_json(data[1]), tree_from_json(data[2]))
    return data


def canonicalize(t: Tree, gens: Signature) -> tuple[int, Tree]:
    """Canonical child order with the collected sign.

    Raises on duplicate leaf labels.
    """
    leaves = list(tree_leaves(t))
    if len(set(leaves)) != len(leaves):
        raise ValueError(f"duplicate leaf labels in {t!r}")
    sign, canon, _ = _canon(t, gens)
    return sign, canon


def _canon(t: Tree, gens: Signature) -> tuple[int, Tree, int]:
    if is_leaf(t):
        return 1, t, 0
    g, l, r = t
    sl, cl, hl = _canon(l, gens)
    sr, cr, hr = _canon(r, gens)
    sign = sl * sr
    spec = gens[g]
    if tree_min_key(cl) > tree_min_key(cr):
        sign *= spec.symmetry
        if (hl & 1) and (hr & 1):
            sign = -sign
        cl, cr, hl, hr = cr, cl, hr, hl
    return sign, (g, cl, cr), spec.bidegree[0] + hl + hr


def tree_str(t: Tree) -> str:
    if is_leaf(t):
        return str(t)
    return f"{t[0]}({tree_str(t[1])},{tree_str(t[2])})"


class OperadElement(Combination):
    """Sparse rational combination of canonical tree monomials on one label set."""

    __slots__ = ("gens",)
    sort_key = staticmethod(tree_sort_key)
    key_str = staticmethod(tree_str)

    def __init__(self, labels: Iterable[Atom], gens: Signature, terms: dict | None = None):
        self.labels = check_label_set(labels)
        self.gens = gens
        self.terms: dict[Tree, Fraction] = terms if terms is not None else {}

    def _like(self, terms: dict) -> "OperadElement":
        return OperadElement(self.labels, self.gens, terms)

    def key_bidegree(self, t: Tree) -> BiDegree:
        return tree_bidegree(t, self.gens)

    @classmethod
    def from_terms(
        cls, labels: Iterable[Atom], gens: Signature, items: Iterable[tuple[Tree, Fraction | int]]
    ) -> "OperadElement":
        el = cls(labels, gens)
        for raw, coeff in items:
            sign, canon = canonicalize(raw, gens)
            el._add_term(canon, Fraction(coeff) * sign)
        return el

    @classmethod
    def generator(cls, gens: Signature, name: str, a: Atom, b: Atom) -> "OperadElement":
        if name not in gens:
            raise KeyError(f"unknown generator {name!r}")
        return cls.from_terms((a, b), gens, [((name, a, b), 1)])


def _h_after_place(t: Tree, place: Atom, gens: Signature) -> tuple[bool, int, int]:
    """(found, h of generators after the place leaf in preorder, h of t)."""
    if is_leaf(t):
        return (t == place, 0, 0)
    g, l, r = t
    fl, al, hl = _h_after_place(l, place, gens)
    fr, ar, hr = _h_after_place(r, place, gens)
    hg = gens[g].bidegree[0]
    total = hg + hl + hr
    if fl:
        return True, al + hr, total
    if fr:
        return True, ar, total
    return False, 0, total


def _replace_leaf(t: Tree, place: Atom, sub: Tree) -> Tree:
    if is_leaf(t):
        return sub if t == place else t
    g, l, r = t
    return (g, _replace_leaf(l, place, sub), _replace_leaf(r, place, sub))


def compose(x: OperadElement, y: OperadElement, place: Atom = STAR) -> OperadElement:
    """Graft y into the ``place`` leaf of x; bidegrees add.

    The word-order convention makes the graft pick up
    ``(-1)**(h(y_term) * h(generators after the place leaf))`` per term.
    """
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


def relabel(x: OperadElement, phi: Mapping[Atom, Atom]) -> OperadElement:
    """Apply a bijection of label sets to every leaf, then recanonicalize."""
    image = [phi[a] for a in x.labels]
    if len(set(image)) != len(image):
        raise ValueError("relabeling map is not injective on the labels")
    out = OperadElement(image, x.gens)
    for t, c in x.terms.items():
        sign, canon = canonicalize(_map_tree(t, phi), x.gens)
        out._add_term(canon, c * sign)
    return out


def substitute(x: OperadElement, grafts: Mapping[Atom, OperadElement]) -> OperadElement:
    """Compose several elements into distinct place leaves, in atom order."""
    out = x
    for place in sorted(grafts, key=atom_key):
        out = compose(out, grafts[place], place)
    return out


def enumerate_tree_monomials(gens: Signature, labels: Iterable[Atom]) -> list[Tree]:
    """All canonical tree monomials on the label set, in serialization order."""
    labels = check_label_set(labels)
    names = sorted(gens)

    def rec(lbls: tuple[Atom, ...]) -> list[Tree]:
        if len(lbls) == 1:
            return [lbls[0]]
        first, rest = lbls[0], lbls[1:]
        out = []
        for k in range(len(rest)):
            for extra in combinations(rest, k):
                right = tuple(a for a in rest if a not in extra)
                left = (first,) + extra
                for tl in rec(left):
                    for tr in rec(right):
                        for g in names:
                            out.append((g, tl, tr))
        return out

    trees = rec(labels)
    trees.sort(key=tree_sort_key)
    return trees


class Presentation:
    """Binary generators plus quadratic relations on the abstract atoms 1,2,3."""

    def __init__(
        self,
        name: str,
        generators: Iterable[GeneratorSpec],
        relations: Iterable[OperadElement],
    ):
        self.name = name
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.gens: dict[str, GeneratorSpec] = {g.name: g for g in self.generators}
        for r in self.relations:
            if r.bidegree() is None:
                raise ValueError("relations must be bihomogeneous")
            for t in r.terms:
                if _node_count(t) != 2 or len(r.labels) != 3:
                    raise ValueError("relations must be quadratic (two-level trees)")
        self.hash = self._hash()

    def _hash(self) -> str:
        payload = {
            "generators": sorted(
                [g.name, g.bidegree[0], g.bidegree[1], g.symmetry] for g in self.generators
            ),
            "relations": sorted(
                json.dumps(
                    [[str(c), tree_to_json(t)] for t, c in r.sorted_terms()], sort_keys=True
                )
                for r in self.relations
            ),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Presentation({self.name!r}, {len(self.generators)} gens, {len(self.relations)} rels)"


def _node_count(t: Tree) -> int:
    if is_leaf(t):
        return 0
    return 1 + _node_count(t[1]) + _node_count(t[2])


def element_key(e: OperadElement) -> str:
    return json.dumps([[str(c), tree_to_json(t)] for t, c in e.sorted_terms()])


_SPAN_MEMO: dict[tuple[str, int], list[OperadElement]] = {}


def ideal_span(pres: Presentation, labels: Iterable[Atom]) -> list[OperadElement]:
    """Spanning set of the operadic ideal component on the label set.

    Recursively: relation instances with monomials grafted into their three
    inputs, plus every generator put on top of a lower-arity spanning
    element and a monomial.  Empty below arity 3.
    """
    labels = check_label_set(labels)
    n = len(labels)
    if n < 3:
        return []
    std = standard_labels(n)
    key = (pres.hash, n)
    if key not in _SPAN_MEMO:
        _SPAN_MEMO[key] = _span_standard(pres, n)
    base = _SPAN_MEMO[key]
    if labels == std:
        return list(base)
    phi = dict(zip(std, labels))
    return [relabel(e, phi) for e in base]


def _span_standard(pres: Presentation, n: int) -> list[OperadElement]:
    labels = standard_labels(n)
    seen: dict[str, OperadElement] = {}

    def emit(e: OperadElement) -> None:
        if e.is_zero():
            return
        lead_tree = min(e.terms, key=tree_sort_key)
        e = e.scaled(1 / e.terms[lead_tree])
        seen.setdefault(element_key(e), e)

    places = ("s1", "s2", "s3")
    for r in pres.relations:
        r_p = relabel(r, dict(zip((1, 2, 3), places)))
        for blocks in ordered_splits(labels, 3):
            for m1 in enumerate_tree_monomials(pres.gens, blocks[0]):
                e1 = OperadElement.from_terms(blocks[0], pres.gens, [(m1, 1)])
                for m2 in enumerate_tree_monomials(pres.gens, blocks[1]):
                    e2 = OperadElement.from_terms(blocks[1], pres.gens, [(m2, 1)])
                    for m3 in enumerate_tree_monomials(pres.gens, blocks[2]):
                        e3 = OperadElement.from_terms(blocks[2], pres.gens, [(m3, 1)])
                        emit(substitute(r_p, {"s1": e1, "s2": e2, "s3": e3}))

    for size_a in range(3, n):
        for sub_a in combinations(labels, size_a):
            rest = tuple(x for x in labels if x not in sub_a)
            span_a = ideal_span(pres, sub_a)
            monos_rest = enumerate_tree_monomials(pres.gens, rest)
            for g in sorted(pres.gens):
                top = OperadElement.generator(pres.gens, g, "s1", "s2")
                for r_a in span_a:
                    for m in monos_rest:
                        em = OperadElement.from_terms(rest, pres.gens, [(m, 1)])
                        emit(substitute(top, {"s1": r_a, "s2": em}))

    return [seen[k] for k in sorted(seen)]


class Component(QuotientComponent):
    """Quotient component of an operad presentation on a label set.

    Built once on the reference labels {1..n} and transported to any other
    label set along the order-preserving bijection.
    """

    family = "operad"
    # its own attribute, so that per-side instrumentation can wrap it
    coords = QuotientComponent.coords
    monomial_to_json = staticmethod(tree_to_json)
    monomial_from_json = staticmethod(tree_from_json)

    def transport(self, m: Tree, phi: Mapping[Atom, Atom]) -> Tree:
        return canonicalize(_map_tree(m, phi), self.pres.gens)[1]

    def element(self, terms: dict) -> OperadElement:
        return OperadElement(self.labels, self.pres.gens, terms)

    @staticmethod
    def bidegree(pres: Presentation, m: Tree) -> BiDegree:
        return tree_bidegree(m, pres.gens)

    @classmethod
    def ambient_and_span(cls, pres: Presentation, n: int) -> tuple[list[Tree], SparseMatrix]:
        labels = standard_labels(n)
        monomials = enumerate_tree_monomials(pres.gens, labels)
        index = {m: i for i, m in enumerate(monomials)}
        span = SparseMatrix(len(monomials))
        for e in ideal_span(pres, labels):
            span.add_row({index[t]: c for t, c in e.terms.items()})
        return monomials, span


def _map_tree(t: Tree, phi: Mapping[Atom, Atom]) -> Tree:
    if is_leaf(t):
        return phi[t]
    return (t[0], _map_tree(t[1], phi), _map_tree(t[2], phi))


def component_basis(
    pres: Presentation, labels: Iterable[Atom], store: ComponentStore | None = None
) -> Component:
    """Quotient component of the presentation on the label set (cached)."""
    return load_component(Component, pres, labels, store)
