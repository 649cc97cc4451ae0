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
picks up ``(-1)**(h(graft) * h(generators after the leaf))``: h(graft) times
h of the right child of each vertex on the path whose leaf lies in its left
child.  The same word order fixes the derivation and coproduct signs used
downstream.

Only ``OperadElement.from_terms`` and ``relabel`` (an arbitrary map of
labels), where trees enter from outside the engine, canonicalize.  A tree
built from canonical parts is canonical by construction: ``compose``
reorders children only on the path to the place leaf, the only vertices
whose smallest leaf can change; an order-preserving relabeling
(``Component.transport``) and replacing a generator (``ram.differential``)
reorder nothing.

A quotient component is its basis, the normal trees, and the rewriting nf
onto them, on {1..n} (``Component.build``); nothing is eliminated, stored
or transported to build it.  Both rewritings below make normality local: a
tree is normal when its children are and its root passes a rule, so
``_trees`` forms the normal trees on each block from those on smaller
blocks, and no build enumerates the ambient trees.  Slots follow the
enumeration order restricted to normal trees.  Each rewriting names every
normal form it makes once, by an int id, the basis first: a basis id is a
slot, and nf, the (id, coefficient) pairs in id order, a slot expansion.
The same rule counts the normal trees by bidegree with no tree formed
(``leading_rule``, ``ram.normal_dims``): that is how ``ram.operad_dims``
reaches any arity.

A presentation that is not Com o F (``lie``, ``sgriess``, ``liegriess``) is
rewritten by its relations as a quadratic Groebner basis (Dotsenko-Khoroshkin,
Duke Math. J. 153, 2010; Hoffbeck, Manuscripta Math. 131, 2010):

* canonical trees are the shuffle trees; the path-lexicographic order
  compares the words of generators on the root-to-leaf paths, leaf by leaf,
  longer words first, then lexicographically with generators ranked by
  bidegree (G > L);
* each relation's leading term must be a left comb g(g'(1, 2), 3); the rule
  at a root g(a, b) is that it is no leading divisor: a is no tree
  g'(x, y) with min(y) below min(b), for a leading g(g'(1, 2), 3);
* the normal trees are the basis, and nf rewrites a leading divisor
  g(g'(x, y), z) by its relation solved for the leading term.  x, y and z
  keep their smallest-leaf order in every term, so each substituted tree is
  canonical, and its sign is the ``compose`` sign of grafting x, y, z into
  the leaves 1, 2, 3, read from a table per term.

The order is admissible (Dotsenko-Khoroshkin): grafting b into the leaf i
of trees a < a', or a < a' into a leaf of b, keeps the order.  Words
compare longer first, then lexicographically, so u < v gives pur < pvr; a
graft keeps each part's leaf order and puts b's leaves after a's leaves
below i.  So two grafts first differ at the image of the first leaf j where
a and a' do, with words w_j(a), w_j(a') (j != i), w_i(a)u, w_i(a')u
(j = i), or pw_j(a), pw_j(a') (grafted into b's leaf of word p).  Equal
words, as for g(g'(1, 3), g'(2, 4)) and g(g'(1, 4), g'(2, 3)), need arity
4, and breaking such ties by the leaf permutation moves no leading term.
So each rewriting step lowers the tree, nf terminates, and the normal
trees are the shuffle trees that no leading term divides.

A presentation recognised as Com o F (see ``Presentation``) is the
composite of Com with F, read through F's Groebner rewriting on the same
labels:

* its basis is the left E-combs E(..E(f1, f2).., fk), one per set partition
  of the labels (blocks by smallest leaf) and choice of a normal tree fi of
  F on each block; the rule at a root E(a, b) is that b is E-free with min(b)
  above the smallest leaf of a's last factor, and at a root g(a, b) with g
  in F that a and b are E-free and g(a, b) is no leading divisor of F;
* nf(m) rewrites a tree m by the Leibniz rules g(a, E(b, c)) = E(g(a, b), c)
  + E(b, g(a, c)) until E sits above every generator of F, reduces each
  E-free factor by F's Groebner rewriting and orders the factors by
  smallest leaf;
* every step is a relation instance read as a word identity, so its sign is
  the Koszul sign of the permutation it makes of the factors' words, the
  rule ``compose`` follows (E has h = 0 and adds no sign).

Either basis is checked, not assumed, by one question: does nf kill every
instance of ``grafted_relations``?  In both rewritings nf(g(a, b)) is a
bilinear function of nf(a) and nf(b), so nf kills the ideal at arity n iff
it kills every root instance r(b1, b2, b3) with basis trees bi at every
arity 3..n (one on a subset is the order-preserving transport of one on
{1..k}).  Each rewriting step is a relation instance, so e_m - nf(m) lies
in the ideal, and nf kills it iff the basis is independent modulo it.
Weight 3 (arity 4) decides both at every arity: it holds every overlap of
two leading terms (the diamond lemma), and it decides a distributive law
(Markl 1996; Loday-Vallette, Algebraic Operads, Thm 8.6.5).  ``_certify``
asks it of the relations, ``ram.distributive_check`` of Ram; the tests
hold both to the grafted span.

The ideal verdicts read one-step rows e_t - nf(t) (``one_step_witness``):
t = g(b1, b2) with basis trees b1, b2 on complementary blocks, b1's holding
the smallest label, the candidates ``_trees`` forms at a root (every basis
tree of arity >= 2 is one).  This is exact for the coproduct, both
differentials and the comparison map rho:

* nf(g(x, y)) depends only on nf(x) and nf(y), so the row of a tree
  t = g(x, y) is g(x - nf(x), y) + g(nf(x), y - nf(y)), compositions with
  lower-arity elements of I, plus one-step rows of g(nf(x), nf(y)); the
  rows of all trees span I(n), so the one-step rows span it modulo such
  compositions;
* each map kills such a composition once it kills I(k), k < n: the
  coproduct and rho by their recursive definitions, linear in the images
  of the children, the differentials as derivations.

So a verdict at n reads the one-step rows at n, then n - 1 down to 3, and
means that the map kills I(k) for every 3 <= k <= n.  The row of a basis
tree whose slot expansion is its own slot, with coefficient 1, is zero
under any map, so the walk over one arity (``one_step_witness_at``) skips
it; it reads every other candidate, so a rewriting that moves a normal
tree is still caught.

The same fact evaluates the coproduct and the differentials of Ram in
basis coordinates (``ram.BasisImages``): (nf (x) nf)(Delta g(x, y)) is a
signed sum of nf(g'(x', y')) (x) nf(g''(x'', y'')) over the terms of
(nf (x) nf)(Delta x) and (nf (x) nf)(Delta y), with the Koszul sign
(-1)^(h(g'') h(x') + (h(g'') + h(x'')) h(y')), and nf(d g(x, y)) is
nf(d(g)(nf x, nf y)) + (-1)^h(g) nf(g(nf dx, nf y))
+ (-1)^(h(g) + h(x)) nf(g(nf x, nf dy)).  nf keeps bidegrees, so each sign
reads h off the normal forms as well as off the trees.  Both recursions
take their one-step normal forms from ``_Rewriting.root``: nf of
g(comb(kx), comb(ky)) for the ids of normal-form keys kx, ky, the step
``_Rewriting.normal_form`` takes at every vertex.

``ideal_span`` lists the rows e_m - nf(m) of the ambient trees m that are
not normal, a basis of I(n).  No verdict reads it, and the benchmark's
tracer wraps it; the tests' reference is the grafted span, in
``tests/span_oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Mapping

from .cache import ComponentStore
from .labels import (
    Atom,
    BiDegree,
    STAR,
    atom_key,
    check_label_set,
    ordered_splits,
    sort_atoms,
    standard_labels,
)
from .linalg import Combination, bump, exact, vec_add_scaled
from .quotient import QuotientComponent, clearable, load_component

Tree = object  # Atom | tuple[str, Tree, Tree]


@dataclass(frozen=True)
class GeneratorSpec:
    """A binary generator: bidegree (h, w) and symmetry +1/-1 under swap."""

    name: str
    bidegree: BiDegree
    symmetry: int

    def __post_init__(self):
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
    if not isinstance(t, tuple):
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
    if not isinstance(t, tuple):
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
        label_set = set(el.labels)
        for raw, coeff in items:
            if set(tree_leaves(raw)) != label_set:
                raise ValueError(f"the leaves of {raw!r} are not the label set {el.labels}")
            sign, canon = canonicalize(raw, gens)
            el._add_term(canon, exact(coeff) * sign)
        return el

    @classmethod
    def generator(cls, gens: Signature, name: str, a: Atom, b: Atom) -> "OperadElement":
        if name not in gens:
            raise KeyError(f"unknown generator {name!r}")
        return cls.from_terms((a, b), gens, [((name, a, b), 1)])


def compose(x: OperadElement, y: OperadElement, place: Atom = STAR) -> OperadElement:
    """Graft y into the ``place`` leaf of x; bidegrees add.

    The terms of x and y are canonical, as every element's are.  The
    word-order convention makes the graft pick up
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
        hy = tree_h(ty, x.gens) & 1
        for tx, cx in x.terms.items():
            grafted = _graft(tx, place, ty, hy, x.gens)
            if grafted is None:
                raise ValueError(f"place {place!r} missing from a term")
            sign, tree = grafted
            out._add_term(tree, cx * cy * sign)
    return out


def _graft(t: Tree, place: Atom, sub: Tree, h_sub: int, gens: Signature) -> tuple[int, Tree] | None:
    """The sign and the canonical tree of the canonical sub, of h parity
    h_sub, grafted into the ``place`` leaf of the canonical t; None when t
    has no such leaf.  Only the vertices on the path to the leaf change:
    there the graft sign is taken, and children swapped as ``canonicalize``
    does (see the module docstring)."""
    if not isinstance(t, tuple):
        return (1, sub) if t == place else None
    g, l, r = t
    grafted = _graft(l, place, sub, h_sub, gens)
    if grafted is not None:
        sign, l = grafted
        if h_sub and tree_h(r, gens) & 1:
            sign = -sign
    else:
        grafted = _graft(r, place, sub, h_sub, gens)
        if grafted is None:
            return None
        sign, r = grafted
    if atom_key(_first_leaf(l)) > atom_key(_first_leaf(r)):
        sign *= gens[g].symmetry
        if tree_h(l, gens) & tree_h(r, gens) & 1:
            sign = -sign
        l, r = r, l
    return sign, (g, l, r)


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
    """All canonical tree monomials on the label set, in enumeration order:
    the ambient trees, which no component build enumerates."""
    return _trees(gens, check_label_set(labels), lambda g, l, r: True)


def _first_leaf(t: Tree) -> Atom:
    while isinstance(t, tuple):
        t = t[1]
    return t


def _candidates(
    gens: Signature, labels: tuple[Atom, ...], trees_on: Callable[[tuple[Atom, ...]], list[Tree]]
) -> Iterator[tuple[str, Tree, Tree]]:
    """(g, l, r) for every generator g and trees l, r of ``trees_on`` on
    complementary blocks of the sorted labels, l's block holding the
    smallest label, in enumeration order: every canonical g(l, r)."""
    names = sorted(gens)
    first, rest = labels[0], labels[1:]
    for k in range(len(rest)):
        for extra in combinations(rest, k):
            rights = trees_on(tuple(a for a in rest if a not in extra))
            for tl in trees_on((first,) + extra):
                for g in names:
                    for tr in rights:
                        yield g, tl, tr


def _trees(
    gens: Signature, labels: tuple[Atom, ...], normal: Callable[[str, Tree, Tree], bool], memo: dict | None = None
) -> list[Tree]:
    """The canonical trees on the sorted labels each of whose vertices
    g(l, r) passes ``normal(g, l, r)``: the enumeration order restricted to
    them, as a tree is formed only from children that pass.  The recursion
    sees labels only through their order, so on any label set it gives the
    order-preserving relabeling of the trees on {1..n}, position by
    position.  ``memo`` receives the trees on every nonempty block of the
    labels, each block after its sub-blocks."""
    memo = {} if memo is None else memo

    def rec(lbls: tuple[Atom, ...]) -> list[Tree]:
        out = memo.get(lbls)
        if out is None:
            if len(lbls) == 1:
                out = [lbls[0]]
            else:
                out = [(g, l, r) for g, l, r in _candidates(gens, lbls, rec) if normal(g, l, r)]
            memo[lbls] = out
        return out

    return rec(labels)


def leading_rule(rules: Mapping, g: str, inner: str | None, y_min, z_min) -> list | None:
    """The rule of the leading divisor g(g'(x, y), z), g' = ``inner`` (None
    for a leaf), or None when the root is normal: (g, g') keys no rule, or
    min(y) lies above min(z).  The two mins may be given as any keys in
    their order: atom keys in ``_Groebner._rule``, which ``_trees`` applies,
    and ranks in ``ram.normal_dims``, which counts the same trees.

    The count: ``_trees`` sees labels only through their order, so the
    normal trees on a block are counted by its size.  A canonical g(l, r)
    on k labels has l on the block A of the smallest label, |A| = a, and r
    on the other b = k - a.  If p labels of A lie below min(r), the p + 1
    smallest labels are those p and min(r), and r's other labels are b - 1
    of the k - 1 - p above: C(k - 1 - p, b - 1) splits for each
    1 <= p <= a.  The rule reads l only through its class, the root
    generator g' and the rank q in A of its right child's smallest leaf
    ((None, 0) for a leaf): g(l, r) is normal unless (g, g') keys a rule and
    q <= p.  So the trees on k labels are counted by class and bidegree;
    g(l, r) is of class (g, p + 1), and r's class does not matter.  A
    composite Com o F has the E-combs of F's normal trees on the blocks of
    a set partition, E at (0, 0), and the block of the smallest label has a
    labels in C(n - 1, a - 1) ways: dims(n) = sum over a of C(n - 1, a - 1)
    F(a) * dims(n - a), dims(0) = 1 at (0, 0), * convolving bidegrees."""
    rule = rules.get((g, inner))
    if rule is None or y_min > z_min:
        return None
    return rule


class Presentation:
    """Binary generators plus quadratic relations on the abstract atoms 1,2,3.

    It is Com o F when a generator E is symmetric of bidegree (0, 0) and the
    relations that use E are, up to nonzero scalars, E's ``associativity``
    and a ``leibniz`` rule for each other generator.  Then ``product`` is E
    and ``factor`` is F: the other generators with the relations that use
    only them (``restricted``, named ``<name>/E``), whose Groebner rewriting
    reduces the E-free factors of the composite (see the module docstring).
    Otherwise both are None, and the relations are read as a quadratic
    Groebner basis, which ``_certify`` checks here, raising ``ValueError``;
    a factor, being a presentation, is checked too.  The name enters
    neither the hash nor the checks.
    """

    def __init__(self, name: str, generators: Iterable[GeneratorSpec], relations: Iterable[OperadElement]):
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
        self.product, self.factor = self._composite()
        if self.factor is None and self.relations:
            _certify(self)

    @cached_property
    def rules(self) -> dict[tuple[str, str], list[tuple[Tree, tuple]]]:
        """``_rewrite_rules`` of the relations, made once per hash on first use."""
        if self.hash not in _RULES:
            _RULES[self.hash] = _rewrite_rules(self)
        return _RULES[self.hash]

    def _composite(self) -> tuple[str | None, "Presentation | None"]:
        """The product E and the factor F when this is Com o F, else Nones."""
        for e in (g.name for g in self.generators if g.symmetry == 1 and g.bidegree == (0, 0)):
            others = [x for x in self.gens if x != e]
            laws = [associativity(self.gens, e)] + [leibniz(self.gens, e, x) for x in others]
            using = [r for r in self.relations if e in _uses(r)]
            if len(using) == len(laws) and all(any(_proportional(r, law) for r in using) for law in laws):
                return e, self.restricted(f"{self.name}/{e}", others)
        return None, None

    def restricted(self, name: str, keep: Iterable[str]) -> "Presentation":
        """The generators named in ``keep``, in this order, with the
        relations that use only them."""
        keep = set(keep)
        gens = {g.name: g for g in self.generators if g.name in keep}
        relations = [OperadElement(r.labels, gens, dict(r.terms)) for r in self.relations if _uses(r) <= keep]
        return Presentation(name, gens.values(), relations)

    def _hash(self) -> str:
        gens = sorted([g.name, *g.bidegree, g.symmetry] for g in self.generators)
        terms = ([[str(c), tree_to_json(t)] for t, c in r.sorted_terms()] for r in self.relations)
        rels = sorted(json.dumps(ts, sort_keys=True) for ts in terms)
        blob = json.dumps({"generators": gens, "relations": rels}, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Presentation({self.name!r}, {len(self.generators)} gens, {len(self.relations)} rels)"


def _uses(r: OperadElement) -> set[str]:
    """The generators of the quadratic relation r, on both levels."""
    return {v[0] for t in r.terms for v in (t, t[1], t[2]) if not is_leaf(v)}


def _proportional(r: OperadElement, law: OperadElement) -> bool:
    """Whether r is a nonzero multiple of ``law``."""
    t = next(iter(law.terms))
    return r.terms.keys() == law.terms.keys() and r == law.scaled(Fraction(r.terms[t]) / law.terms[t])


def _node_count(t: Tree) -> int:
    if is_leaf(t):
        return 0
    return 1 + _node_count(t[1]) + _node_count(t[2])


def grafted_relations(
    pres: Presentation, labels: tuple[Atom, ...], trees_on: Callable[[tuple[Atom, ...]], Iterable[Tree]]
) -> Iterator[OperadElement]:
    """Each relation r with trees b1, b2, b3 of ``trees_on`` on the blocks
    of an ordered split of the labels grafted into its inputs 1, 2, 3:
    r(b1, b2, b3), over relations, then splits, then trees.  Every
    relabelling of r is such a split."""

    def graft(x: OperadElement, block: tuple[Atom, ...], m: Tree) -> OperadElement:
        return x if is_leaf(m) else compose(x, OperadElement(block, pres.gens, {m: 1}), block[0])

    for r in pres.relations:
        # r relabelled by each order of its inputs, then moved in order onto
        # the blocks' smallest leaves, where a leaf is itself
        moved = {p: relabel(r, dict(zip((1, 2, 3), p))) for p in permutations((1, 2, 3))}
        for blocks in ordered_splits(labels, 3):
            mins = sort_atoms(b[0] for b in blocks)
            phi = dict(zip((1, 2, 3), mins))
            image = moved[tuple(mins.index(b[0]) + 1 for b in blocks)]
            x0 = OperadElement(mins, pres.gens, {_map_tree(t, phi): c for t, c in image.terms.items()})
            (b1, t1), (b2, t2), (b3, t3) = ((b, list(trees_on(b))) for b in blocks)
            for m1 in t1:
                x1 = graft(x0, b1, m1)
                for m2 in t2:
                    x2 = graft(x1, b2, m2)
                    for m3 in t3:
                        yield graft(x2, b3, m3)


class Component(QuotientComponent):
    """Quotient component of an operad presentation on a label set: the
    normal trees, which are its basis, and the rewriting nf onto them.

    Built once on the reference labels {1..n}, with no payload (see the
    module docstring); a relabeled component maps a tree back to {1..n}
    along ``_back``, where the rewriting and its memos live (see
    ``QuotientComponent``).  Its slots are the rewriting's ids, and a tree
    with an id or an nf term off the basis is refused with ``KeyError``.
    """

    family = "operad"
    # its own attribute, so that per-side instrumentation can wrap it
    coords = QuotientComponent.coords
    _back: dict | None = None  # the map of the labels onto {1..n}, once relabeled

    def __init__(self, pres: Presentation, labels: tuple[Atom, ...], rewriting: "_Groebner | _Rewriting"):
        super().__init__(pres, labels, rewriting.basis, rewriting.degrees)
        self.rewriting = rewriting

    def relabeled(self, labels: tuple[Atom, ...]) -> "Component":
        """The shared copy, with its basis moved to the labels and the map of
        its labels back onto {1..n}."""
        comp = super().relabeled(labels)
        # both label tuples are sorted, so phi preserves the atom order
        phi = dict(zip(self.labels, labels))
        comp.basis = [self.transport(b, phi) for b in self.basis]
        comp._back = dict(zip(labels, standard_labels(len(labels))))
        return comp

    def _on_reference(self, m: Tree) -> Tree:
        return m if self._back is None else _map_tree(m, self._back)

    def transport(self, m: Tree, phi: Mapping[Atom, Atom]) -> Tree:
        return _map_tree(m, phi)

    def element(self, terms: dict) -> OperadElement:
        return OperadElement(self.labels, self.pres.gens, terms)

    def slot(self, m: Tree) -> int:
        out = self.rewriting.ids[self._on_reference(m)]
        if out >= self.dim:  # a normal tree on a smaller block
            raise KeyError(m)
        return out

    def slot_expansion(self, m: Tree) -> tuple:
        out = self.rewriting.normal_form(self._on_reference(m))
        if out and out[-1][0] >= self.dim:  # a tree on a smaller block
            raise KeyError(m)
        return out

    @classmethod
    def build(cls, pres: Presentation, labels: tuple[int, ...], store: ComponentStore, prefix: str, fields: dict):
        """The component on {1..n}: the Groebner rewriting, or the composite
        one if the presentation is Com o F."""
        return cls(pres, labels, (_Groebner if pres.factor is None else _Rewriting)(pres, labels))


def one_step_witness(
    pres: Presentation, n: int, image: Callable[[Tree, Component], Mapping], store: ComponentStore | None = None
) -> Tree | None:
    """The first one-step tree t whose row e_t - nf(t) the linear map
    ``image`` does not kill, at arity n, then n - 1 down to 3, or None when
    the map kills I(k) for every 3 <= k <= n (see the module docstring).
    ``image(t, comp)`` is the map on a tree t of the component comp on
    {1..k}, as a dict of coefficients.  Each arity is one
    ``one_step_witness_at``."""
    for k in range(n, 2, -1):
        bad = one_step_witness_at(pres, k, image, store)
        if bad is not None:
            return bad
    return None


def one_step_witness_at(
    pres: Presentation, k: int, image: Callable[[Tree, Component], Mapping], store: ComponentStore | None = None
) -> Tree | None:
    """The first one-step tree t on {1..k} whose row e_t - nf(t) ``image``
    does not kill, or None; a basis tree whose slot expansion is exactly
    ((its slot, 1),) is skipped (see the module docstring)."""
    comp = component_basis(pres, standard_labels(k), store)
    basis_images = [image(b, comp) for b in comp.basis]
    for t in _candidates(pres.gens, comp.labels, comp.rewriting.normal_trees.__getitem__):
        slot = comp.rewriting.ids.get(t)
        expansion = comp.slot_expansion(t)
        if slot is not None and expansion == ((slot, 1),):
            continue
        row = dict(image(t, comp) if slot is None else basis_images[slot])
        for s, c in expansion:
            vec_add_scaled(row, basis_images[s], -c)
        if row:
            return t
    return None


def _path_lex_key(t: Tree, rank: Mapping[str, int]) -> tuple:
    """Per leaf in label order, the length and the generator ranks of its
    root-to-leaf word: the larger key is the larger tree in path-lex order."""
    words: dict[Atom, tuple[int, ...]] = {}

    def walk(t: Tree, word: tuple[int, ...]) -> None:
        if is_leaf(t):
            words[t] = word
        else:
            word += (rank[t[0]],)
            walk(t[1], word)
            walk(t[2], word)

    walk(t, ())
    return tuple((len(words[a]), words[a]) for a in sorted(words, key=atom_key))


def _preorder(t: Tree, gens: Signature) -> list[tuple[Atom | None, int]]:
    """The preorder word of t: (None, h) per generator, (atom, 0) per leaf."""
    if is_leaf(t):
        return [(t, 0)]
    return [(None, gens[t[0]].bidegree[0])] + _preorder(t[1], gens) + _preorder(t[2], gens)


def _graft_signs(t: Tree, gens: Signature) -> tuple[int, ...]:
    """The sign ``substitute`` gives the relation term t when x, y, z are
    grafted into its leaves 1, 2, 3, by the h-parities of x, y, z (index
    4 px + 2 py + pz): each graft counts h of t's generators after its leaf
    and of the earlier grafts into leaves after it."""
    word = _preorder(t, gens)
    leaves = [a for a, _ in word if a is not None]
    after = {
        a: sum(h for b, h in word[p + 1 :] if b is None) for p, (a, _) in enumerate(word) if a is not None
    }
    signs = []
    for parities in product((0, 1), repeat=3):
        par = dict(zip((1, 2, 3), parities))
        e = sum(par[a] * after[a] for a in leaves)
        e += sum(par[a] * par[b] for i, a in enumerate(leaves) for b in leaves[i + 1 :] if a > b)
        signs.append(-1 if e & 1 else 1)
    return tuple(signs)


# the rewrite rules by presentation hash: two objects of one hash (a name's
# presentation and another's factor) share one set
_RULES: dict[str, dict[tuple[str, str], list[tuple[Tree, tuple]]]] = clearable({})


def _rewrite_rules(pres: Presentation) -> dict[tuple[str, str], list[tuple[Tree, tuple]]]:
    """Each relation solved for its path-lex leading term g(g'(1, 2), 3),
    generators ranked by bidegree, then name: under (g, g'), the other terms,
    each with its coefficient in nf of g(g'(x, y), z) by the h-parities of
    x, y, z (the index of ``_graft_signs``)."""
    rank = {g: i for i, g in enumerate(sorted(pres.gens, key=lambda g: (pres.gens[g].bidegree, g)))}
    rules: dict[tuple[str, str], list[tuple[Tree, tuple]]] = {}
    for r in pres.relations:
        lead = max(r.terms, key=lambda t: _path_lex_key(t, rank))
        g, inner, _ = lead
        if r.labels != (1, 2, 3) or is_leaf(inner) or inner[1:] != (1, 2) or (g, inner[0]) in rules:
            raise ValueError(f"{pres.name}: no distinct leading term g(g'(1, 2), 3) in {r}")
        lead_signs, c0 = _graft_signs(lead, pres.gens), r.terms[lead]
        rules[g, inner[0]] = [
            (t, tuple(exact(Fraction(-c * s * s0) / c0) for s, s0 in zip(_graft_signs(t, pres.gens), lead_signs)))
            for t, c in r.sorted_terms()
            if t != lead
        ]
    return rules


class _NormalForms:
    """nf of the rewritings below, its (id, coefficient) pairs in id order,
    memoised per subtree in ``_forms``: a leaf's id, else the one step
    ``root(g, i, j)``, nf of g(a, b) for the normal forms a, b of ids i, j,
    summed over the terms of the children's."""

    def normal_form(self, t: Tree) -> tuple[tuple[int, Fraction | int], ...]:
        out = self._forms.get(t)
        if out is None:
            if is_leaf(t):
                out = ((self._leaf(t), 1),)
            else:
                out = self._product(t[0], self.normal_form(t[1]), self.normal_form(t[2]))
            self._forms[t] = out
        return out

    def _product(self, g: str, left: tuple, right: tuple) -> tuple[tuple[int, Fraction | int], ...]:
        """nf of g(a, b) summed over the terms a of left, b of right."""
        out: dict[int, Fraction | int] = {}
        for i, ci in left:
            for j, cj in right:
                for k, c in self.root(g, i, j).items():
                    bump(out, k, ci * cj * c)
        return tuple(sorted(out.items()))


class _Groebner(_NormalForms):
    """Normal forms nf(t) of the trees on labels 1..n by the relations as a
    quadratic Groebner basis (see the module docstring).  ``basis`` lists
    the normal trees in enumeration order and ``normal_trees[block]`` those
    on each nonempty block of the labels.  Every normal tree has an id, its
    position in ``trees``: the basis, then the other blocks' normal trees
    in ``normal_trees`` order, so that the id of a basis tree is its slot.
    ``ids`` maps a normal tree to its id, and ``mins``, ``bidegrees`` and
    ``odd`` hold each id's smallest leaf, bidegree and h-parity.

    nf of g(a, b) with a, b normal is memoised per root triple (g, id of a,
    id of b): only the root can be a leading divisor there.
    """

    def __init__(self, pres: Presentation, labels: tuple[Atom, ...]):
        self.gens = pres.gens
        self.rules = pres.rules
        self.normal_trees: dict[tuple[Atom, ...], list[Tree]] = {}
        self.basis = _trees(pres.gens, labels, lambda g, a, b: self._rule(g, a, b) is None, self.normal_trees)
        *smaller, _ = self.normal_trees.values()  # the labels' own block, the basis, comes last
        self.trees: list[Tree] = self.basis + [t for trees_on_block in smaller for t in trees_on_block]
        self.ids = {t: i for i, t in enumerate(self.trees)}
        self.mins = [_first_leaf(t) for t in self.trees]
        self.bidegrees = [tree_bidegree(t, self.gens) for t in self.trees]
        self.odd = [h & 1 for h, _ in self.bidegrees]
        self.degrees = self.bidegrees[: len(self.basis)]
        self._forms: dict[Tree, tuple[tuple[int, Fraction | int], ...]] = {}
        self._roots: dict[tuple[str, int, int], dict[int, Fraction | int]] = {}

    def _rule(self, g: str, a: Tree, b: Tree) -> list | None:
        """The rule of the leading divisor g(a, b) of normal trees a, b, or
        None when g(a, b) is normal."""
        if is_leaf(a):
            return None
        return leading_rule(self.rules, g, a[0], atom_key(_first_leaf(a[2])), atom_key(_first_leaf(b)))

    def _leaf(self, t: Atom) -> int:
        return self.ids[t]

    def root(self, g: str, i: int, j: int) -> dict[int, Fraction | int]:
        """nf of g(a, b) for the normal trees a, b of ids i, j, min(a) < min(b)."""
        out = self._roots.get((g, i, j))
        if out is None:
            a, b = self.trees[i], self.trees[j]
            rule = self._rule(g, a, b)
            if rule is None:
                out = {self.ids[g, a, b]: 1}
            else:
                # g(g'(x, y), z) is leading: the relation's other terms on x, y, z
                x, y, odd = self.ids[a[1]], self.ids[a[2]], self.odd
                at = 4 * odd[x] + 2 * odd[y] + odd[j]
                subs = {1: x, 2: y, 3: j}
                out = {}
                for term, coeffs in rule:
                    for k, c in self._graft(term, subs):
                        bump(out, k, coeffs[at] * c)
            self._roots[g, i, j] = out
        return out

    def _graft(self, t: Tree, subs: Mapping[Atom, int]) -> tuple[tuple[int, Fraction | int], ...]:
        """nf of the relation term t with the normal trees of ids subs in its leaves."""
        if is_leaf(t):
            return ((subs[t], 1),)
        return self._product(t[0], self._graft(t[1], subs), self._graft(t[2], subs))


_CERTIFIED: set[str] = clearable(set())


def _certify(pres: Presentation) -> None:
    """Raise ``ValueError``, naming the first relation instance nf does not
    reduce to 0, unless the relations, each solved for its leading term, are
    a quadratic Groebner basis: nf must kill every instance of
    ``grafted_relations`` with normal trees at arities 3 and 4 (see the
    module docstring).  Remembered by presentation hash."""
    if pres.hash in _CERTIFIED:
        return
    rw = _Groebner(pres, standard_labels(4))
    for n in (3, 4):
        for x in grafted_relations(pres, standard_labels(n), rw.normal_trees.__getitem__):
            nf: dict[int, Fraction | int] = {}
            for t, c in x.terms.items():
                for m, e in rw.normal_form(t):
                    bump(nf, m, c * e)
            if nf:
                raise ValueError(f"{pres.name}: the rewriting does not reduce the relation instance {x} to 0")
    _CERTIFIED.add(pres.hash)


def associativity(gens: Signature, e: str) -> OperadElement:
    """The associativity of the product e: e(1, e(2, 3)) - e(2, e(3, 1))."""
    gen = OperadElement.generator
    lhs = compose(gen(gens, e, 1, STAR), gen(gens, e, 2, 3))
    return lhs - compose(gen(gens, e, 2, STAR), gen(gens, e, 3, 1))


def leibniz(gens: Signature, e: str, x: str) -> OperadElement:
    """The Leibniz rule that moves the product e past x:
    x(1, e(2, 3)) - e(2, x(1, 3)) - e(3, x(1, 2))."""
    gen = OperadElement.generator
    lhs = compose(gen(gens, x, 1, STAR), gen(gens, e, 2, 3))
    r1 = compose(gen(gens, e, 2, STAR), gen(gens, x, 1, 3))
    r2 = compose(gen(gens, e, 3, STAR), gen(gens, x, 1, 2))
    return lhs - r1 - r2


class _Rewriting(_NormalForms):
    """Normal forms nf(t) in Com o F of the trees on labels 1..n (see the
    module docstring), onto the E-combs of normal trees of F, which
    ``basis`` and ``normal_trees`` hold as in ``_Groebner``.

    ``factor`` is F's Groebner rewriting on the same labels: its normal trees
    on each block are the factors of the basis, named by its ids, and it
    reduces each bracket of two factors.  A term is a key, a tuple of factor
    ids in smallest-leaf order; it stands for the left E-comb of its
    factors, whose preorder word, E having h = 0, is theirs in that order,
    and whose bidegree, E having (0, 0), is the sum of theirs.  Each key has
    an id on first use, its position in ``keys``, with its comb's h-parity
    in ``key_odd``; nf's terms are key ids, and ``ids`` maps each basis
    comb to its key id, its slot: the basis keys come first, in slot order.
    """

    def __init__(self, pres: Presentation, labels: tuple[Atom, ...]):
        self.pres = pres
        self.factor = _Groebner(pres.factor, labels)
        self.keys: list[tuple[int, ...]] = []
        self.key_odd: list[int] = []
        self.key_ids: dict[tuple[int, ...], int] = {}
        self._brackets: dict[tuple[str, int, int], list[tuple[int, Fraction | int]]] = {}
        self._forms: dict[Tree, tuple[tuple[int, Fraction | int], ...]] = {}
        e, rule = pres.product, self.factor._rule

        def free(t: Tree) -> bool:  # E-free: a factor
            return is_leaf(t) or t[0] != e

        def normal(g: str, a: Tree, b: Tree) -> bool:
            if g == e:  # b is the last factor of the comb
                return free(b) and (free(a) or atom_key(_first_leaf(a[2])) < atom_key(_first_leaf(b)))
            return free(a) and free(b) and rule(g, a, b) is None

        def factors(comb: Tree) -> list[Tree]:  # of a left E-comb, in order
            return [comb] if free(comb) else factors(comb[1]) + [comb[2]]

        self.normal_trees: dict[tuple[Atom, ...], list[Tree]] = {}
        self.basis = _trees(pres.gens, labels, normal, self.normal_trees)
        self.ids = {comb: self._key_id(tuple(self.factor.ids[f] for f in factors(comb))) for comb in self.basis}
        self.degrees: list[BiDegree] = []
        for key in self.keys:  # the basis keys, the only ones so far
            degs = [self.factor.bidegrees[f] for f in key]
            self.degrees.append((sum(h for h, _ in degs), sum(w for _, w in degs)))

    def _key_id(self, key: tuple[int, ...]) -> int:
        i = self.key_ids.get(key)
        if i is None:
            i = self.key_ids[key] = len(self.keys)
            self.keys.append(key)
            odd = self.factor.odd
            self.key_odd.append(sum(odd[f] for f in key) & 1)
        return i

    def koszul(self, word: tuple[int, ...]) -> int:
        """Sign of putting the factors of a word in smallest-leaf order: -1
        for each pair of odd factors that changes places."""
        mins = self.factor.mins
        odd = [mins[f] for f in word if self.factor.odd[f]]
        if len(odd) < 2:
            return 1
        swaps = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1 :])
        return -1 if swaps & 1 else 1

    def _ordered(self, word: tuple[int, ...]) -> tuple[int, int]:
        """The key id of a word's factors in smallest-leaf order, and its sign."""
        return self._key_id(tuple(sorted(word, key=self.factor.mins.__getitem__))), self.koszul(word)

    def bracket(self, g: str, p: int, q: int) -> list[tuple[int, Fraction | int]]:
        """g(p, q) reduced by F's rewriting, as factors."""
        key = (g, p, q)
        out = self._brackets.get(key)
        if out is None:
            if self.factor.mins[p] < self.factor.mins[q]:
                root, sign = self.factor.root(g, p, q), 1
            else:  # swapped children: g's symmetry and the Koszul sign of p, q
                root = self.factor.root(g, q, p)
                sign = self.pres.gens[g].symmetry * self.koszul((p, q))
            out = self._brackets[key] = [(f, sign * c) for f, c in root.items()]
        return out

    def _leaf(self, t: Atom) -> int:
        return self._key_id((self.factor.ids[t],))

    def root(self, g: str, i: int, j: int) -> dict[int, Fraction | int]:
        """nf(g(comb(keys[i]), comb(keys[j]))) for keys on disjoint blocks:
        the one step of nf at a root whose children are normal, which
        ``normal_form`` takes at every vertex."""
        ta, tb = self.keys[i], self.keys[j]
        word = ta + tb
        if g == self.pres.product:
            k, sign = self._ordered(word)
            return {k: sign}
        # Leibniz: g(prod ta, prod tb) is the sum over p in ta, q in tb of
        # g(p, q) times the rest, with the Koszul sign taking the word ta tb
        # to p q rest; koszul measures both words against smallest-leaf order
        out: dict[int, Fraction | int] = {}
        c = self.koszul(word)
        for a, p in enumerate(ta):
            rest_a = ta[:a] + ta[a + 1 :]
            for b, q in enumerate(tb):
                rest = rest_a + tb[:b] + tb[b + 1 :]
                cpq = c * self.koszul((p, q) + rest)
                for f, e in self.bracket(g, p, q):
                    k, sign = self._ordered((f,) + rest)
                    bump(out, k, sign * cpq * e)
        return out


def _map_tree(t: Tree, phi: Mapping[Atom, Atom]) -> Tree:
    if not isinstance(t, tuple):
        return phi[t]
    return (t[0], _map_tree(t[1], phi), _map_tree(t[2], phi))


def component_basis(
    pres: Presentation, labels: Iterable[Atom], store: ComponentStore | None = None
) -> Component:
    """Quotient component of the presentation on the label set (cached)."""
    return load_component(Component, pres, labels, store)


def ideal_span(pres: Presentation, labels: Iterable[Atom]) -> list[OperadElement]:
    """A basis of the operadic ideal component on the label set: the rows
    e_m - nf(m), sums of rewriting steps, of the ambient trees m that are
    not normal, in enumeration order.  m is the one tree of its row that is
    not normal, so the rows are independent, ambient - dim of them."""
    comp = component_basis(pres, labels)
    rows = []
    for m in enumerate_tree_monomials(pres.gens, comp.labels):
        row = {m: 1}
        for slot, c in comp.slot_expansion(m):
            bump(row, comp.basis[slot], -c)
        if row:
            rows.append(comp.element(row))
    return rows
