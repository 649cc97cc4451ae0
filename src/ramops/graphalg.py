"""Quotient algebras of signed colored-graph monomials on a finite vertex set.

A monomial is a simple graph on the vertex set with every edge colored; it
is stored as a tuple (one entry per color) of sorted edge tuples, each edge
oriented (min, max) with the orientation sign absorbed into coefficients.
The word order behind all Koszul signs lists colors in presentation order
and edges sorted within a color; only edges of odd first degree anticommute.

Two presentations are shipped: the two-color family with an even color
``a`` of bidegree (0,1) and an odd color ``b`` of (1,1), both antisymmetric
in their endpoints, cut out by the cyclic 3-term sum in a, the mixed 6-term
sum, cycle monomials carrying at most one ``a``, and two 12-term sums over
path orderings of four vertices; and the Arnold fixture with a single odd,
orientation-symmetric color subject to the classical 3-term relations.

In ``forest`` ambient mode, monomials whose edge union contains a cycle
are dropped at multiplication time (cycles lie in the ideal); ``full`` mode
keeps them and imposes the cycle monomials as relations, which serves as
the brute-force cross-check of the forest optimization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping, Sequence

from .cache import ComponentStore
from .labels import Atom, BiDegree, atom_key, check_label_set, standard_labels
from .linalg import Combination, SparseMatrix
from .quotient import QuotientComponent, load_component

Edge = tuple[Atom, Atom]
MonomialKey = tuple[tuple[Edge, ...], ...]  # edges per color, presentation order
Letter = tuple[str, Atom, Atom]
Word = tuple[Letter, ...]

MODES = ("forest", "full")


@dataclass(frozen=True)
class ColorSpec:
    name: str
    bidegree: BiDegree
    orientation: int  # -1: c[j,i] = -c[i,j]; +1: symmetric in the endpoints


class GraphPresentation:
    def __init__(self, name: str, colors: Sequence[ColorSpec], families: Sequence[str]):
        self.name = name
        self.colors = tuple(colors)
        self.families = tuple(families)
        self.color_index = {c.name: i for i, c in enumerate(self.colors)}
        blob = json.dumps(
            {
                "colors": [[c.name, c.bidegree[0], c.bidegree[1], c.orientation] for c in self.colors],
                "families": list(self.families),
            },
            sort_keys=True,
        ).encode()
        self.hash = hashlib.sha256(blob).hexdigest()[:16]

    def is_odd(self, color_idx: int) -> bool:
        return self.colors[color_idx].bidegree[0] % 2 == 1

    def __repr__(self) -> str:
        return f"GraphPresentation({self.name!r})"


R_PRESENTATION = GraphPresentation(
    "two-color-forests",
    (ColorSpec("a", (0, 1), -1), ColorSpec("b", (1, 1), -1)),
    ("a_square", "aa_sum", "ab_sum", "a_cycle", "b_cycle", "bab_sum", "bbb_sum"),
)

ARNOLD_PRESENTATION = GraphPresentation(
    "arnold",
    (ColorSpec("w", (1, 1), 1),),
    ("arnold_sum",),
)


def _edge_key(e: Edge):
    return (atom_key(e[0]), atom_key(e[1]))


def _letter_order(item: tuple[int, Edge]):
    return (item[0],) + _edge_key(item[1])


def _has_cycle(edges: Iterable[Edge]) -> bool:
    parent: dict[Atom, Atom] = {}

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


def _count_inversions(keys: list) -> int:
    inv = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[j] < keys[i]:
                inv += 1
    return inv


def monomial_from_word(
    pres: GraphPresentation, word: Iterable[Letter], mode: str = "forest"
) -> tuple[int, MonomialKey] | None:
    """Canonical signed monomial of a generator word, or None when it vanishes."""
    sign = 1
    letters: list[tuple[int, Edge]] = []
    for cname, i, j in word:
        ci = pres.color_index[cname]
        if i == j:
            raise ValueError(f"loop edge {cname}[{i},{j}]")
        if atom_key(i) > atom_key(j):
            i, j = j, i
            sign *= pres.colors[ci].orientation
        letters.append((ci, (i, j)))
    edges = [e for _, e in letters]
    if len(set(edges)) != len(edges):
        return None
    if mode == "forest" and _has_cycle(edges):
        return None
    odd_keys = [_letter_order(item) for item in letters if pres.is_odd(item[0])]
    if _count_inversions(odd_keys) % 2 == 1:
        sign = -sign
    per_color: list[list[Edge]] = [[] for _ in pres.colors]
    for ci, e in letters:
        per_color[ci].append(e)
    key = tuple(tuple(sorted(es, key=_edge_key)) for es in per_color)
    return sign, key


def multiply(
    m1: MonomialKey, m2: MonomialKey, pres: GraphPresentation, mode: str = "forest"
) -> tuple[int, MonomialKey] | None:
    """Product of canonical monomials: merged monomial with the Koszul sign,
    or None when an edge repeats or (forest mode) a cycle appears."""
    all_edges: list[Edge] = []
    for es1, es2 in zip(m1, m2):
        all_edges.extend(es1)
        all_edges.extend(es2)
    if len(set(all_edges)) != len(all_edges):
        return None
    if mode == "forest" and _has_cycle(all_edges):
        return None
    odd1 = [(ci, e) for ci in range(len(pres.colors)) if pres.is_odd(ci) for e in m1[ci]]
    odd2 = [(ci, e) for ci in range(len(pres.colors)) if pres.is_odd(ci) for e in m2[ci]]
    inv = 0
    for x in odd1:
        kx = _letter_order(x)
        for y in odd2:
            if _letter_order(y) < kx:
                inv += 1
    sign = -1 if inv % 2 else 1
    key = tuple(
        tuple(sorted(m1[ci] + m2[ci], key=_edge_key)) for ci in range(len(pres.colors))
    )
    return sign, key


def monomial_bidegree(m: MonomialKey, pres: GraphPresentation) -> BiDegree:
    h = w = 0
    for ci, edges in enumerate(m):
        ch, cw = pres.colors[ci].bidegree
        h += ch * len(edges)
        w += cw * len(edges)
    return (h, w)


def monomial_sort_key(m: MonomialKey, pres: GraphPresentation):
    h, w = monomial_bidegree(m, pres)
    return (h, w, tuple(tuple(_edge_key(e) for e in es) for es in m))


def monomial_str(m: MonomialKey, pres: GraphPresentation) -> str:
    bits = []
    for ci, edges in enumerate(m):
        for u, v in edges:
            bits.append(f"{pres.colors[ci].name}[{u},{v}]")
    return "".join(bits) if bits else "1"


def unit_monomial(pres: GraphPresentation) -> MonomialKey:
    return tuple(() for _ in pres.colors)


class AlgebraElement(Combination):
    """Sparse rational combination of canonical graph monomials on one vertex set."""

    __slots__ = ("pres",)

    def __init__(self, labels: Iterable[Atom], pres: GraphPresentation, terms: dict | None = None):
        self.labels = check_label_set(labels)
        self.pres = pres
        self.terms: dict[MonomialKey, Fraction] = terms if terms is not None else {}

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.labels, self.pres, terms)

    def sort_key(self, m: MonomialKey):
        return monomial_sort_key(m, self.pres)

    def key_str(self, m: MonomialKey) -> str:
        return monomial_str(m, self.pres)

    def key_bidegree(self, m: MonomialKey) -> BiDegree:
        return monomial_bidegree(m, self.pres)

    @classmethod
    def unit(cls, labels, pres) -> "AlgebraElement":
        return cls(labels, pres, {unit_monomial(pres): Fraction(1)})

    @classmethod
    def from_words(
        cls,
        labels,
        pres: GraphPresentation,
        items: Iterable[tuple[Fraction | int, Iterable[Letter]]],
        mode: str = "forest",
    ) -> "AlgebraElement":
        el = cls(labels, pres)
        label_set = set(el.labels)
        for coeff, word in items:
            word = tuple(word)
            for _, i, j in word:
                if i not in label_set or j not in label_set:
                    raise ValueError(f"edge endpoint {i!r}/{j!r} outside the vertex set")
            res = monomial_from_word(pres, word, mode)
            if res is not None:
                sign, key = res
                el._add_term(key, Fraction(coeff) * sign)
        return el


def element_multiply(x: AlgebraElement, y: AlgebraElement, mode: str = "forest") -> AlgebraElement:
    if x.labels != y.labels:
        raise ValueError("vertex sets differ")
    out = AlgebraElement(x.labels, x.pres)
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            res = multiply(k1, k2, x.pres, mode)
            if res is not None:
                sign, key = res
                out._add_term(key, c1 * c2 * sign)
    return out


def relabel_element(x: AlgebraElement, phi: Mapping[Atom, Atom]) -> AlgebraElement:
    image = [phi[a] for a in x.labels]
    out = AlgebraElement(image, x.pres)
    for key, coeff in x.terms.items():
        sign, new_key = _relabel_monomial(x.pres, key, phi)
        out._add_term(new_key, coeff * sign)
    return out


def _relabel_monomial(
    pres: GraphPresentation, m: MonomialKey, phi: Mapping[Atom, Atom]
) -> tuple[int, MonomialKey]:
    word = []
    for ci, edges in enumerate(m):
        cname = pres.colors[ci].name
        word.extend((cname, phi[u], phi[v]) for u, v in edges)
    # relabeling cannot create repeats or cycles, so the result is never None
    return monomial_from_word(pres, word, "full")


def enumerate_graph_monomials(
    pres: GraphPresentation, labels: Iterable[Atom], mode: str = "forest"
) -> list[MonomialKey]:
    """All canonical monomials on the vertex set, deterministic order."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    labels = check_label_set(labels)
    pairs = list(combinations(labels, 2))
    ncolors = len(pres.colors)
    out: list[MonomialKey] = []
    for size in range(len(pairs) + 1):
        for subset in combinations(pairs, size):
            if mode == "forest" and _has_cycle(subset):
                continue
            for assignment in product(range(ncolors), repeat=size):
                per_color: list[list[Edge]] = [[] for _ in range(ncolors)]
                for e, ci in zip(subset, assignment):
                    per_color[ci].append(e)
                out.append(tuple(tuple(sorted(es, key=_edge_key)) for es in per_color))
    out.sort(key=lambda m: monomial_sort_key(m, pres))
    return out


# --- relation families -------------------------------------------------------

# the twelve path orderings of four points, one per reversal pair
_PATH_ORDERINGS = (
    (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 1, 2), (0, 2, 3, 1), (0, 3, 2, 1),
    (1, 0, 2, 3), (1, 2, 0, 3), (1, 0, 3, 2), (1, 3, 0, 2), (2, 0, 1, 3), (2, 1, 0, 3),
)


def relation_words(
    pres: GraphPresentation, family: str, labels: Iterable[Atom]
) -> list[list[tuple[int, Word]]]:
    """Instances of a relation family as lists of (coefficient, generator word).

    Words are literal: no canonicalization, no vanishing rules.  The algebra
    side turns them into elements; the differential-form oracle evaluates
    them as written.
    """
    labels = check_label_set(labels)
    if family not in pres.families:
        raise ValueError(f"{family!r} is not a family of {pres.name}")
    out: list[list[tuple[int, Word]]] = []
    if family == "a_square":
        for i, j in combinations(labels, 2):
            out.append([(1, (("a", i, j), ("a", i, j)))])
    elif family == "aa_sum":
        for sub in combinations(labels, 3):
            i, j, k = sub
            out.append(
                [
                    (1, (("a", i, j), ("a", j, k))),
                    (1, (("a", j, k), ("a", k, i))),
                    (1, (("a", k, i), ("a", i, j))),
                ]
            )
    elif family == "ab_sum":
        for sub in combinations(labels, 3):
            i, j, k = sub
            out.append(
                [
                    (1, (("b", i, j), ("a", j, k))),
                    (1, (("b", j, k), ("a", k, i))),
                    (1, (("b", k, i), ("a", i, j))),
                    (1, (("a", i, j), ("b", j, k))),
                    (1, (("a", j, k), ("b", k, i))),
                    (1, (("a", k, i), ("b", i, j))),
                ]
            )
    elif family in ("a_cycle", "b_cycle"):
        lead = "a" if family == "a_cycle" else "b"
        for seq in _cycle_sequences(labels):
            m = len(seq)
            cyc = [(seq[t], seq[(t + 1) % m]) for t in range(m)]
            if lead == "b":
                out.append([(1, tuple(("b", u, v) for u, v in cyc))])
            else:
                # one word per choice of the a-colored edge around the cycle
                for t in range(m):
                    word = [("a", cyc[t][0], cyc[t][1])]
                    for s in range(1, m):
                        u, v = cyc[(t + s) % m]
                        word.append(("b", u, v))
                    out.append([(1, tuple(word))])
    elif family in ("bab_sum", "bbb_sum"):
        mid = "a" if family == "bab_sum" else "b"
        for sub in combinations(labels, 4):
            for assign in permutations(range(4)):
                terms = []
                for order in _PATH_ORDERINGS:
                    p, q, r, s = (sub[assign[t]] for t in order)
                    terms.append((1, (("b", p, q), (mid, q, r), ("b", r, s))))
                out.append(terms)
    elif family == "arnold_sum":
        for sub in combinations(labels, 3):
            i, j, k = sub
            out.append(
                [
                    (1, (("w", i, j), ("w", j, k))),
                    (1, (("w", j, k), ("w", k, i))),
                    (1, (("w", k, i), ("w", i, j))),
                ]
            )
    else:
        raise AssertionError(family)
    return out


def _cycle_sequences(labels: tuple[Atom, ...]) -> Iterator[tuple[Atom, ...]]:
    """Distinct undirected vertex cycles (length >= 2), anchored at the minimum."""
    for size in range(2, len(labels) + 1):
        for sub in combinations(labels, size):
            first, rest = sub[0], sub[1:]
            for perm in permutations(rest):
                if size > 2 and atom_key(perm[0]) > atom_key(perm[-1]):
                    continue  # one direction per undirected cycle
                yield (first,) + perm


def relation_instances(
    pres: GraphPresentation,
    labels: Iterable[Atom],
    mode: str = "forest",
    families: Iterable[str] | None = None,
) -> list[tuple[str, AlgebraElement]]:
    """Relation instances as algebra elements (zero instances dropped, deduped).

    Built once per (presentation, labels, mode, families); each call returns
    a fresh list of the shared elements.
    """
    labels = check_label_set(labels)
    chosen = tuple(families) if families is not None else pres.families
    key = (pres.hash, labels, mode, chosen)
    if key not in _INSTANCE_MEMO:
        _INSTANCE_MEMO[key] = _relation_instances(pres, labels, mode, chosen)
    return list(_INSTANCE_MEMO[key])


_INSTANCE_MEMO: dict[tuple, list[tuple[str, AlgebraElement]]] = {}


def _relation_instances(
    pres: GraphPresentation, labels: tuple[Atom, ...], mode: str, chosen: tuple[str, ...]
) -> list[tuple[str, AlgebraElement]]:
    seen: set = set()
    out: list[tuple[str, AlgebraElement]] = []
    for family in chosen:
        if family in ("a_cycle", "b_cycle") and mode == "forest":
            continue  # cycle monomials are not in the forest ambient
        for inst in relation_words(pres, family, labels):
            el = AlgebraElement.from_words(labels, pres, inst, mode)
            if el.is_zero():
                continue
            lead = min(el.terms, key=lambda m: monomial_sort_key(m, pres))
            el = el.scaled(1 / el.terms[lead])
            fixed = tuple((k, c) for k, c in el.sorted_terms())
            if fixed in seen:
                continue
            seen.add(fixed)
            out.append((family, el))
    return out


# --- quotient components ------------------------------------------------------


class GraphComponent(QuotientComponent):
    """Quotient of the monomial span by all relation instances, on one vertex set."""

    family = "graph"
    # its own attribute, so that per-side instrumentation can wrap it
    coords = QuotientComponent.coords

    def __init__(self, pres: GraphPresentation, labels: tuple[Atom, ...], std, mode: str):
        self.mode = mode
        super().__init__(pres, labels, std)

    def transport(self, m: MonomialKey, phi: Mapping[Atom, Atom]) -> MonomialKey:
        return _relabel_monomial(self.pres, m, phi)[1]

    def element(self, terms: dict) -> AlgebraElement:
        return AlgebraElement(self.labels, self.pres, terms)

    @staticmethod
    def monomial_to_json(m: MonomialKey):
        return [[[u, v] for u, v in edges] for edges in m]

    @staticmethod
    def monomial_from_json(data) -> MonomialKey:
        return tuple(tuple((u, v) for u, v in edges) for edges in data)

    @staticmethod
    def bidegree(pres: GraphPresentation, m: MonomialKey) -> BiDegree:
        return monomial_bidegree(m, pres)

    @classmethod
    def ambient_and_span(
        cls, pres: GraphPresentation, n: int, mode: str
    ) -> tuple[list[MonomialKey], SparseMatrix]:
        labels = standard_labels(n)
        monomials = enumerate_graph_monomials(pres, labels, mode)
        return monomials, _span_matrix(pres, labels, mode, monomials)


def algebra_basis(
    pres: GraphPresentation,
    labels: Iterable[Atom],
    mode: str = "forest",
    store: ComponentStore | None = None,
) -> GraphComponent:
    """Basis, reducer and bigraded dims of the quotient algebra (cached)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return load_component(GraphComponent, pres, labels, store, mode=mode)


def _span_matrix(
    pres: GraphPresentation,
    labels: tuple[Atom, ...],
    mode: str,
    monomials: list[MonomialKey],
    families: Iterable[str] | None = None,
) -> SparseMatrix:
    """Relation instances times all complementary monomials, as sparse rows.

    Only products that can survive are formed: a term and a multiplier that
    share an edge multiply to zero, and in forest mode so do a term and a
    multiplier with more than n - 1 edges between them, since a forest on n
    vertices has at most n - 1 edges.
    """
    index = {m: i for i, m in enumerate(monomials)}
    edge_sets = [frozenset(e for es in m for e in es) for m in monomials]
    forest_edges = len(labels) - 1
    span = SparseMatrix(len(monomials))
    seen_rows: set = set()
    for _, rel in relation_instances(pres, labels, mode, families):
        terms = [(k, c, frozenset(e for es in k for e in es)) for k, c in rel.terms.items()]
        spare = forest_edges - min(len(edges) for _, _, edges in terms)
        for mult, mult_edges in zip(monomials, edge_sets):
            if mode == "forest" and len(mult_edges) > spare:
                continue
            prod = AlgebraElement(rel.labels, pres)
            for k, c, edges in terms:
                if not edges.isdisjoint(mult_edges):
                    continue
                res = multiply(k, mult, pres, mode)
                if res is not None:
                    sign, key = res
                    prod._add_term(key, c * sign)
            if prod.is_zero():
                continue
            lead = min(prod.terms, key=lambda m: monomial_sort_key(m, pres))
            prod = prod.scaled(1 / prod.terms[lead])
            fingerprint = tuple(sorted((index[k], c) for k, c in prod.terms.items()))
            if fingerprint in seen_rows:
                continue
            seen_rows.add(fingerprint)
            span.add_row({index[k]: c for k, c in prod.terms.items()})
    return span


def ideal_rank_breakdown(
    pres: GraphPresentation, labels: Iterable[Atom], mode: str = "forest"
) -> dict:
    """Ideal span ranks with and without the two 12-term families.

    Informational: whether those families follow from the others at small
    sizes is not settled, so both ranks are reported side by side.
    """
    from .linalg import rank

    labels = check_label_set(labels)
    monomials = enumerate_graph_monomials(pres, labels, mode)
    full = rank(_span_matrix(pres, labels, mode, monomials))
    reduced_families = tuple(f for f in pres.families if f not in ("bab_sum", "bbb_sum"))
    without = rank(_span_matrix(pres, labels, mode, monomials, reduced_families))
    return {
        "n": len(labels),
        "mode": mode,
        "ambient": len(monomials),
        "rank_all_families": full,
        "rank_without_12term": without,
        "twelve_term_raise_rank": full > without,
    }


# --- differentials ------------------------------------------------------------


def differential_algebra(x: AlgebraElement, which: str) -> AlgebraElement:
    """Derivation ``up`` (a -> b, bidegree (+1,0)) or ``down`` (b -> a, (-1,0)).

    The sign at a letter is (-1)**(number of b-letters to its left) in the
    canonical word; requires the two-color presentation.
    """
    pres = x.pres
    if "a" not in pres.color_index or "b" not in pres.color_index:
        raise ValueError("differentials need the two-color presentation")
    ca, cb = pres.color_index["a"], pres.color_index["b"]
    if which not in ("up", "down"):
        raise ValueError(f"unknown differential {which!r}")
    out = AlgebraElement(x.labels, pres)
    for m, coeff in x.terms.items():
        a_edges, b_edges = m[ca], m[cb]
        if which == "up":
            for e in a_edges:
                smaller = sum(1 for f in b_edges if _edge_key(f) < _edge_key(e))
                sign = -1 if smaller % 2 else 1
                new_a = tuple(f for f in a_edges if f != e)
                new_b = tuple(sorted(b_edges + (e,), key=_edge_key))
                key = _rebuild(m, ca, new_a, cb, new_b)
                out._add_term(key, coeff * sign)
        else:
            for pos, e in enumerate(b_edges):
                sign = -1 if pos % 2 else 1
                new_b = tuple(f for f in b_edges if f != e)
                new_a = tuple(sorted(a_edges + (e,), key=_edge_key))
                key = _rebuild(m, ca, new_a, cb, new_b)
                out._add_term(key, coeff * sign)
    return out


def _rebuild(m: MonomialKey, ca: int, new_a, cb: int, new_b) -> MonomialKey:
    parts = list(m)
    parts[ca] = new_a
    parts[cb] = new_b
    return tuple(parts)


def path_permutation_sum(
    pres: GraphPresentation, labels: Iterable[Atom], colors: Sequence[str], mode: str = "forest"
) -> AlgebraElement:
    """Sum over all orderings of the labels of the colored path monomial.

    ``colors`` gives the edge colors along the path, e.g. ("a","a","b") on
    four vertices.
    """
    labels = check_label_set(labels)
    if len(colors) != len(labels) - 1:
        raise ValueError("need one color per path edge")
    items = []
    for perm in permutations(labels):
        word = tuple(
            (colors[t], perm[t], perm[t + 1]) for t in range(len(colors))
        )
        items.append((1, word))
    return AlgebraElement.from_words(labels, pres, items, mode)
