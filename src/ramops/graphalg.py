"""Quotient algebras of signed colored-graph monomials on a finite vertex set.

A monomial is a simple graph on the vertex set with every edge colored,
named by its colored mask, the one name the engine gives it: the vertex
pairs are numbered p in the order of ``combinations(labels, 2)``, and the
letter of color ci on pair p is bit ci * P + p (P pairs).  Bit order is the
word order behind all Koszul signs, colors in presentation order and edges
sorted within a color; only letters of odd first degree anticommute.  An
order-preserving relabeling keeps the pair numbers, and so the masks: a
monomial has one mask on every label set of a size.  Edge tuples appear at
the two edges of the engine only: words come in through
``monomial_from_word``, which orients each edge (min, max) and absorbs the
orientation sign into the coefficient, and text goes out through
``monomials_of_masks``.

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
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .cache import ComponentStore
from .labels import Atom, BiDegree, atom_key, check_label_set, standard_labels
from .linalg import ONE, Combination, SparseMatrix, exact, rank
from .quotient import QuotientComponent, clearable, load_component, payload_component

Edge = tuple[Atom, Atom]
MonomialKey = tuple[tuple[Edge, ...], ...]  # edges per color, presentation order: a decoded mask
Letter = tuple[str, Atom, Atom]
Word = tuple[Letter, ...]
Instance = list[tuple[int, Word]]  # (coefficient, generator word) terms

MODES = ("forest", "full")


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless mode is an ambient mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ColorSpec:
    name: str
    bidegree: BiDegree
    orientation: int  # -1: c[j,i] = -c[i,j]; +1: symmetric in the endpoints

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


class GraphPresentation:
    def __init__(self, name: str, colors: Sequence[ColorSpec], families: Sequence[str]):
        self.name = name
        self.colors = tuple(colors)
        self.families = tuple(families)
        self.color_index = {c.name: i for i, c in enumerate(self.colors)}
        unknown = [f for f in self.families if f not in RELATION_FAMILIES]
        if unknown:
            raise ValueError(f"unknown relation families {unknown}; choose from {tuple(RELATION_FAMILIES)}")
        for f in self.families:
            missing = [c for c in RELATION_FAMILIES[f].colors if c not in self.color_index]
            if missing:
                raise ValueError(f"relation family {f!r} uses colors {missing} that {name!r} lacks")
        # the enumeration orders the monomials of one bidegree by a key
        # that is exact only when (h, w) fixes each color's edge count,
        # that is when the colors' bidegrees are linearly independent
        degrees = [c.bidegree for c in self.colors]
        if not (
            len(degrees) == 1 and degrees[0] != (0, 0)
            or len(degrees) == 2 and degrees[0][0] * degrees[1][1] != degrees[0][1] * degrees[1][0]
        ):
            raise ValueError("the colors' bidegrees must be linearly independent")
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


# --- relation families -------------------------------------------------------

# the twelve path orderings of four points, one per reversal pair
_PATH_ORDERINGS = (
    (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 1, 2), (0, 2, 3, 1), (0, 3, 2, 1),
    (1, 0, 2, 3), (1, 2, 0, 3), (1, 0, 3, 2), (1, 3, 0, 2), (2, 0, 1, 3), (2, 1, 0, 3),
)


def _cycle_sequences(labels: tuple[Atom, ...]) -> Iterator[tuple[Atom, ...]]:
    """Distinct undirected vertex cycles (length >= 2), anchored at the minimum."""
    for size in range(2, len(labels) + 1):
        for sub in combinations(labels, size):
            first, rest = sub[0], sub[1:]
            for perm in permutations(rest):
                if size > 2 and atom_key(perm[0]) > atom_key(perm[-1]):
                    continue  # one direction per undirected cycle
                yield (first,) + perm


def _rotations(c1: str, c2: str, i: Atom, j: Atom, k: Atom) -> Instance:
    """c1[u,v] c2[v,w] over the rotations (u, v, w) of (i, j, k)."""
    return [(1, ((c1, u, v), (c2, v, w))) for u, v, w in ((i, j, k), (j, k, i), (k, i, j))]


def _paths(mid: str, sub: tuple[Atom, ...]) -> Instance:
    """b[p,q] mid[q,r] b[r,s] over the path orderings (p, q, r, s) of the
    four points: the sum over every ordering, each reversal pair once."""
    paths = ([sub[t] for t in order] for order in _PATH_ORDERINGS)
    return [(1, (("b", p, q), (mid, q, r), ("b", r, s))) for p, q, r, s in paths]


def _cycles(lead: str, seq: tuple[Atom, ...]) -> list[Instance]:
    """The b-colored cycle through seq, or (lead a) one word per choice of
    the a-colored edge around it."""
    m = len(seq)
    cyc = [(seq[t], seq[(t + 1) % m]) for t in range(m)]
    if lead == "b":
        return [[(1, tuple(("b", u, v) for u, v in cyc))]]
    rotations = (cyc[t:] + cyc[:t] for t in range(m))
    return [[(1, (("a",) + r[0],) + tuple(("b",) + e for e in r[1:]))] for r in rotations]


class RelationFamily(NamedTuple):
    colors: tuple[str, ...]  # the colors its words use
    size: int | None  # its vertex sets: the size-subsets in combinations order, or None: every cycle
    instances: Callable[[tuple[Atom, ...]], list[Instance]]  # its instances on one vertex set


# the relation families that ``relation_words`` spells out, in the order
# a presentation lists them
RELATION_FAMILIES = {
    "a_square": RelationFamily(("a",), 2, lambda s: [[(1, (("a",) + s, ("a",) + s))]]),
    "aa_sum": RelationFamily(("a",), 3, lambda s: [_rotations("a", "a", *s)]),
    "ab_sum": RelationFamily(("a", "b"), 3, lambda s: [_rotations("b", "a", *s) + _rotations("a", "b", *s)]),
    "a_cycle": RelationFamily(("a", "b"), None, lambda s: _cycles("a", s)),
    "b_cycle": RelationFamily(("b",), None, lambda s: _cycles("b", s)),
    "bab_sum": RelationFamily(("a", "b"), 4, lambda s: [_paths("a", s)]),
    "bbb_sum": RelationFamily(("b",), 4, lambda s: [_paths("b", s)]),
    "arnold_sum": RelationFamily(("w",), 3, lambda s: [_rotations("w", "w", *s)]),
}


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


def relation_words(pres: GraphPresentation, family: str, labels: Iterable[Atom]) -> list[Instance]:
    """Instances of a relation family as lists of (coefficient, generator word),
    those of each vertex set of its ``RELATION_FAMILIES`` entry in turn.

    Words are literal: no canonicalization, no vanishing rules.  The algebra
    side turns them into elements; the differential-form oracle evaluates
    them as written.
    """
    labels = check_label_set(labels)
    if family not in pres.families:
        raise ValueError(f"{family!r} is not a family of {pres.name}")
    entry = RELATION_FAMILIES[family]
    sets = _cycle_sequences(labels) if entry.size is None else combinations(labels, entry.size)
    return [inst for s in sets for inst in entry.instances(s)]


def _has_cycle(edges: int, n: int) -> bool:
    """Whether the edge mask (bit p for pair p) on n vertices holds a cycle."""
    ends = list(combinations(range(n), 2))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while edges:
        low = edges & -edges
        edges ^= low
        u, v = ends[low.bit_length() - 1]
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def _letters(pres: GraphPresentation, n: int) -> tuple[Callable[[int], int], int]:
    """Of colored masks on n labels: the function giving a mask's edge mask
    (the union of its colors' P-bit blocks), and the mask of the odd letters.

    A product of two masks with disjoint edge masks is their union, with the
    Koszul sign -1 to the parity of ``popcount(_koszul_mask(m1 & odd) & m2
    & odd)`` (``_koszul_mask``).
    """
    npairs = n * (n - 1) // 2
    every_pair = (1 << npairs) - 1
    shifts = [ci * npairs for ci in range(len(pres.colors))]
    odd = 0
    for ci, shift in enumerate(shifts):
        if pres.is_odd(ci):
            odd |= every_pair << shift

    def edges_of(colored: int) -> int:
        edges = 0
        for shift in shifts:
            edges |= colored >> shift & every_pair
        return edges

    return edges_of, odd


def _koszul_mask(odd_bits: int) -> int:
    """XOR of the masks (1 << x) - 1 over the bits x of ``odd_bits``.

    For odd letters y, the parity of ``popcount(y & mask)`` is the parity of
    the pairs (x, y) with y < x: the Koszul sign of moving the letters y
    past the letters x.
    """
    mask = 0
    while odd_bits:
        low = odd_bits & -odd_bits
        mask ^= low - 1
        odd_bits ^= low
    return mask


def monomial_from_word(
    pres: GraphPresentation, labels: tuple[Atom, ...], word: Iterable[Letter], mode: str = "forest"
) -> tuple[int, int] | None:
    """Canonical signed monomial of a generator word on the (checked) label
    set, as its colored mask, or None when it vanishes."""
    check_mode(mode)
    n = len(labels)
    at = {a: k for k, a in enumerate(labels)}
    sign = 1
    letters: list[tuple[int, int]] = []  # (color, pair number)
    for cname, i, j in word:
        if cname not in pres.color_index:
            raise ValueError(f"unknown color {cname!r} of {pres.name!r}")
        ci = pres.color_index[cname]
        if i == j:
            raise ValueError(f"loop edge {cname}[{i},{j}]")
        u, v = at.get(i), at.get(j)
        if u is None or v is None:
            raise ValueError(f"edge endpoint {i!r}/{j!r} outside the vertex set")
        if u > v:
            u, v = v, u
            sign *= pres.colors[ci].orientation
        letters.append((ci, u * (2 * n - u - 1) // 2 + v - u - 1))
    npairs = n * (n - 1) // 2
    edges = mask = odd_seen = 0
    for ci, p in letters:
        if edges >> p & 1:
            return None
        edges |= 1 << p
        bit = ci * npairs + p
        mask |= 1 << bit
        if pres.is_odd(ci):
            # past the odd letters before it in the word with a greater bit
            if (odd_seen >> bit).bit_count() & 1:
                sign = -sign
            odd_seen |= 1 << bit
    if mode == "forest" and _has_cycle(edges, n):
        return None
    return sign, mask


def multiply(m1: int, m2: int, pres: GraphPresentation, n: int, mode: str = "forest") -> tuple[int, int] | None:
    """Product of monomials on n labels: the union of the masks with the
    Koszul sign (``_letters``), or None when an edge repeats or (forest
    mode) a cycle appears."""
    check_mode(mode)
    edges_of, odd = _letters(pres, n)
    e1, e2 = edges_of(m1), edges_of(m2)
    if e1 & e2 or mode == "forest" and _has_cycle(e1 | e2, n):
        return None
    return -1 if (_koszul_mask(m1 & odd) & m2 & odd).bit_count() & 1 else 1, m1 | m2


def _bidegrees(pres: GraphPresentation, n: int, masks: list[int]) -> list[BiDegree]:
    """The bidegree of each colored mask on n labels, read color by color
    over all of them."""
    npairs = n * (n - 1) // 2
    every_pair = (1 << npairs) - 1
    degrees = [(0, 0)] * len(masks)
    for ci, color in enumerate(pres.colors):
        ch, cw = color.bidegree
        shift = ci * npairs
        counts = [(m >> shift & every_pair).bit_count() for m in masks]
        degrees = [(h + ch * k, w + cw * k) for (h, w), k in zip(degrees, counts)]
    return degrees


def monomial_bidegree(m: int, pres: GraphPresentation, n: int) -> BiDegree:
    return _bidegrees(pres, n, [m])[0]


def monomial_sort_key(m: int, pres: GraphPresentation, n: int):
    """(h, w, the bits of m in increasing order).  Within (h, w), which
    fixes each color's edge count, that orders the monomials by their edges
    per color, in color order, each color's edges compared as sorted
    tuples."""
    h, w = monomial_bidegree(m, pres, n)
    bits = []
    while m:
        low = m & -m
        bits.append(low.bit_length() - 1)
        m ^= low
    return (h, w, tuple(bits))


def monomial_str(m: int, pres: GraphPresentation, labels: tuple[Atom, ...]) -> str:
    (key,) = monomials_of_masks(pres, labels, [m])
    bits = [f"{pres.colors[ci].name}[{u},{v}]" for ci, edges in enumerate(key) for u, v in edges]
    return "".join(bits) if bits else "1"


class AlgebraElement(Combination):
    """Sparse rational combination of graph monomials, by their colored
    masks, on one vertex set."""

    __slots__ = ("pres",)

    def __init__(self, labels: Iterable[Atom], pres: GraphPresentation, terms: dict | None = None):
        self.labels = check_label_set(labels)
        self.pres = pres
        self.terms: dict[int, Fraction] = terms if terms is not None else {}

    def _like(self, terms: dict) -> "AlgebraElement":
        return AlgebraElement(self.labels, self.pres, terms)

    def sort_key(self, m: int):
        return monomial_sort_key(m, self.pres, len(self.labels))

    def key_str(self, m: int) -> str:
        return monomial_str(m, self.pres, self.labels)

    def key_bidegree(self, m: int) -> BiDegree:
        return monomial_bidegree(m, self.pres, len(self.labels))

    @classmethod
    def unit(cls, labels, pres) -> "AlgebraElement":
        return cls(labels, pres, {0: ONE})

    @classmethod
    def from_words(
        cls,
        labels,
        pres: GraphPresentation,
        items: Iterable[tuple[Fraction | int, Iterable[Letter]]],
        mode: str = "forest",
    ) -> "AlgebraElement":
        check_mode(mode)
        el = cls(labels, pres)
        for coeff, word in items:
            res = monomial_from_word(pres, el.labels, word, mode)
            if res is not None:
                sign, key = res
                el._add_term(key, exact(coeff) * sign)
        return el


def element_multiply(x: AlgebraElement, y: AlgebraElement, mode: str = "forest") -> AlgebraElement:
    check_mode(mode)
    if x.labels != y.labels:
        raise ValueError("vertex sets differ")
    out = AlgebraElement(x.labels, x.pres)
    n = len(x.labels)
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            res = multiply(k1, k2, x.pres, n, mode)
            if res is not None:
                sign, key = res
                out._add_term(key, c1 * c2 * sign)
    return out


def relabel_element(x: AlgebraElement, phi: Mapping[Atom, Atom]) -> AlgebraElement:
    out = AlgebraElement([phi[a] for a in x.labels], x.pres)
    for key, coeff in x.terms.items():
        sign, new_key = _relabel_monomial(x.pres, x.labels, key, phi, out.labels)
        out._add_term(new_key, coeff * sign)
    return out


def _relabel_monomial(
    pres: GraphPresentation, labels: tuple[Atom, ...], m: int, phi: Mapping[Atom, Atom], image: tuple[Atom, ...]
) -> tuple[int, int]:
    """The signed mask on ``image`` of the monomial m on ``labels`` with
    every label a moved to phi[a]."""
    (edges,) = monomials_of_masks(pres, labels, [m])
    word = [(pres.colors[ci].name, phi[u], phi[v]) for ci, es in enumerate(edges) for u, v in es]
    # relabeling cannot create repeats or cycles, so the result is never None
    return monomial_from_word(pres, image, word, "full")


def enumerate_graph_monomials(
    pres: GraphPresentation, labels: Iterable[Atom], mode: str = "forest"
) -> list[MonomialKey]:
    """All canonical monomials on the vertex set, in ``monomial_sort_key``
    order: those of ``enumerate_colored_masks``, decoded."""
    labels = check_label_set(labels)
    return monomials_of_masks(pres, labels, enumerate_colored_masks(pres, len(labels), mode))


def enumerate_colored_masks(pres: GraphPresentation, n: int, mode: str = "forest") -> list[int]:
    """The colored masks of all canonical monomials on n labels, in
    ``monomial_sort_key`` order.

    An edge set is an increasing tuple of pair numbers (``combinations(labels,
    2)`` order), grown by a later pair at a time; in forest mode only by one
    that joins two components, so no edge set with a cycle is formed.  The
    colorings of a grown set are those of its parent, the new pair taking
    each color in turn, so a mask doubles one edge at a time; they are kept
    apart by bidegree (h, w).  Within (h, w) the key's order is that of the
    increasing tuples of bits, which is the decreasing order of the mask
    with its bits reversed; each value carries that reversed mask above the
    mask, so one sort of ints orders a bidegree.
    """
    check_mode(mode)
    npairs = n * (n - 1) // 2
    width = len(pres.colors) * npairs
    ends = list(combinations(range(n), 2))
    # the letter of color ci on pair p as its bidegree and its bit in the
    # mask and in the reversed mask above it
    letters = [
        [(c.bidegree, 1 << (ci * npairs + p) | 1 << (2 * width - 1 - ci * npairs - p)) for ci, c in enumerate(pres.colors)]
        for p in range(npairs)
    ]
    by_degree: dict[BiDegree, list[int]] = {}
    grown = [(-1, tuple(range(n)), {(0, 0): [0]})]  # edge sets of one size: last pair, components, colorings
    while grown:
        for _, _, colorings in grown:
            for hw, values in colorings.items():
                by_degree.setdefault(hw, []).extend(values)
        parents, grown = grown, []
        for last, comp, colorings in parents:
            for p in range(last + 1, npairs):
                cu, cv = comp[ends[p][0]], comp[ends[p][1]]
                if cu == cv and mode == "forest":
                    continue
                doubled: dict[BiDegree, list[int]] = {}
                for (h, w), values in colorings.items():
                    for (dh, dw), letter in letters[p]:
                        doubled.setdefault((h + dh, w + dw), []).extend([v | letter for v in values])
                grown.append((p, tuple(cu if c == cv else c for c in comp), doubled))
    masks, every_letter = [], (1 << width) - 1
    for hw in sorted(by_degree):
        values = by_degree.pop(hw)
        values.sort(reverse=True)
        masks += [v & every_letter for v in values]
    return masks


def relation_instances(
    pres: GraphPresentation,
    labels: Iterable[Atom],
    mode: str = "forest",
    families: Iterable[str] | None = None,
) -> list[tuple[str, AlgebraElement]]:
    """Relation instances as algebra elements, zero instances dropped and each
    scaled to a leading coefficient 1.

    Built once per (presentation, labels, mode, families); each call returns
    a fresh list of the shared elements.
    """
    check_mode(mode)
    labels = check_label_set(labels)
    chosen = tuple(families) if families is not None else pres.families
    key = (pres.hash, labels, mode, chosen)
    if key not in _INSTANCE_MEMO:
        _INSTANCE_MEMO[key] = _relation_instances(pres, labels, mode, chosen)
    return list(_INSTANCE_MEMO[key])


_INSTANCE_MEMO: dict[tuple, list[tuple[str, AlgebraElement]]] = clearable({})


def _relation_instances(
    pres: GraphPresentation, labels: tuple[Atom, ...], mode: str, chosen: tuple[str, ...]
) -> list[tuple[str, AlgebraElement]]:
    out: list[tuple[str, AlgebraElement]] = []
    for family in chosen:
        if family in pres.families and RELATION_FAMILIES[family].size is None and mode == "forest":
            continue  # each word repeats a pair or closes a cycle: zero among the forests
        for inst in relation_words(pres, family, labels):  # refuses a family not of pres
            el = AlgebraElement.from_words(labels, pres, inst, mode)
            if not el.is_zero():
                lead = min(el.terms, key=el.sort_key)
                out.append((family, el.scaled(Fraction(1) / el.terms[lead])))
    return out


# --- quotient components ------------------------------------------------------


class GraphComponent(QuotientComponent):
    """Quotient of the monomial span by all relation instances, on one vertex
    set.  A monomial is its colored mask, the same on every label set of the
    size: ``masks[i]`` is that of ambient monomial i and ``index`` maps it
    back to i, and the basis lists the masks at ``basis_positions``, in slot
    order.  Those, the echelon ``reducer`` and the tables read from it
    (expansions, ``differentials``) are shared by every relabeled component,
    which differs from the one on {1..n} in its ``labels`` alone."""

    family = "graph"
    # its own attribute, so that per-side instrumentation can wrap it
    coords = QuotientComponent.coords

    def __init__(
        self, pres: GraphPresentation, labels: tuple[Atom, ...], masks: list[int], reducer, basis_positions, mode: str
    ):
        self.mode = mode
        self.masks = masks
        self.index = {c: i for i, c in enumerate(masks)}
        self.reducer = reducer
        self.basis_positions = basis_positions
        self._slot_of = {i: slot for slot, i in enumerate(basis_positions)}
        self._expansions: dict[int, tuple] = {}
        self._differentials: dict[str, list[tuple]] = {}
        basis = [masks[i] for i in basis_positions]
        super().__init__(pres, labels, basis, _bidegrees(pres, len(labels), basis))

    def position(self, m: int) -> int | None:
        """Position of m among the ambient monomials, None outside the ambient."""
        return self.index.get(m)

    def slot(self, m: int) -> int:
        return self._slot_of[self.index[m]]

    def slot_expansion(self, m: int) -> tuple:
        return self.expansion_at(self.index[m])

    def expansion_at(self, i: int) -> tuple:
        """``slot_expansion`` of the ambient monomial at position i, kept
        per position."""
        pairs = self._expansions.get(i)
        if pairs is None:
            reduced = self.reducer.reduce({i: ONE})
            slot_of = self._slot_of
            pairs = self._expansions[i] = tuple((slot_of[j], reduced[j]) for j in sorted(reduced))
        return pairs

    def differentials(self, which: str) -> list[tuple]:
        """For each basis slot, d of its basis monomial as (position,
        coefficient) pairs and as basis (slot, coefficient) pairs.

        Both are the same on every label set of the size: d reads masks
        only.  d keeps the edge set of a monomial, so every term stays in
        the ambient of either mode.
        """
        rows = self._differentials.get(which)
        if rows is None:
            rows = self._differentials[which] = []
            for b in self.basis:
                image = differential_algebra(self.monomial_element(b), which)
                positions = tuple((self.index[m], c) for m, c in image.terms.items())
                rows.append((positions, tuple(self.coords(image).items())))
        return rows

    def element(self, terms: dict) -> AlgebraElement:
        return AlgebraElement(self.labels, self.pres, terms)

    @staticmethod
    def ambient_from_json(pres: GraphPresentation, n: int, data: list) -> list[int]:
        """The masks of a payload, as they are.  Raises ``ValueError`` unless
        they are distinct ints naming no letter beyond the colors' P pairs."""
        if set(map(type, data)) - {int} or len(set(data)) != len(data):
            raise ValueError("masks must be distinct ints")
        if min(data) < 0 or max(data) >> (len(pres.colors) * n * (n - 1) // 2):
            raise ValueError("a mask names a letter beyond the colors' pairs")
        return data

    # the component on {1..n}: decoded from the store's payload, else
    # eliminated from the relation span and written to the store
    build = classmethod(payload_component)

    @classmethod
    def ambient_and_span(cls, pres: GraphPresentation, n: int, mode: str) -> tuple[list[int], SparseMatrix]:
        """The ambient masks on {1..n} and the span."""
        masks = enumerate_colored_masks(pres, n, mode)
        return masks, _span_matrix(pres, standard_labels(n), mode, masks)


def algebra_basis(
    pres: GraphPresentation,
    labels: Iterable[Atom],
    mode: str = "forest",
    store: ComponentStore | None = None,
) -> GraphComponent:
    """Basis, reducer and bigraded dims of the quotient algebra (cached)."""
    check_mode(mode)
    return load_component(GraphComponent, pres, labels, store, mode=mode)


def monomials_of_masks(pres: GraphPresentation, labels: tuple[Atom, ...], masks: list[int]) -> list[MonomialKey]:
    """The monomial of each colored mask on the label set as edge tuples:
    its edges of color ci are the pairs p of its bits ci * P + p, in
    increasing order."""
    pairs = list(combinations(labels, 2))
    npairs = len(pairs)
    every_pair = (1 << npairs) - 1
    by_color = [[m >> ci * npairs & every_pair for m in masks] for ci in range(len(pres.colors))]
    edges_of = {c: tuple(pairs[p] for p in range(npairs) if c >> p & 1) for c in set().union(*by_color)}
    return list(zip(*(map(edges_of.__getitem__, chunks) for chunks in by_color)))


def _span_matrix(
    pres: GraphPresentation,
    labels: tuple[Atom, ...],
    mode: str,
    masks: list[int],
    families: Iterable[str] | None = None,
) -> SparseMatrix:
    """Relation instances times the complementary ambient monomials, given by
    their colored masks in position order, as sparse rows.

    A term and a multiplier that share an edge (``_letters``) multiply to
    zero; otherwise their product is the union of their colored masks, with
    the sign of ``multiply``: the ``_koszul_mask`` of each term's odd
    letters is taken once, against the odd letters of every multiplier.

    In forest mode the ambient holds every colored forest, so a union
    missing from it is exactly one with a cycle, and that product vanishes;
    in full mode a missing union raises.  A forest on n vertices has at
    most n - 1 edges, so in forest mode an instance visits only the
    multipliers with room for a term: those of at most ``spare`` edges,
    n - 1 less the fewest edges of a term, listed once for each spare that
    occurs and kept in position order.  In full mode a product vanishes
    only on a shared edge, which depends on the multiplier's edges on the
    support of the terms alone, so an instance visits only the multipliers
    with a live term: found once for each set of term edge masks that
    occurs (instances of several colorings share one), per multiplier edge
    mask on the support, and kept in position order.  Neither filter drops
    a row or changes the order of the rows.

    Whether a product vanishes depends on the multiplier's edge mask alone:
    a shared edge, or in forest mode a cycle in the union, whatever the
    colors.  So per instance the terms with a nonzero product are kept for
    each edge mask met, found once, and a multiplier whose product with
    every term vanishes costs one lookup and forms no row.  Rows go to
    ``rref`` as formed, neither scaled nor deduplicated: the reduced
    row-echelon form of a row space is unique, and a repeated row
    eliminates to zero, so the payload is the same either way.  They are
    appended to the matrix directly, not through ``add_row``: each is
    nonzero, with its columns in range, by construction.
    """
    edges_of, odd = _letters(pres, len(labels))
    encoded = [(colored, edges_of(colored)) for colored in masks]
    by_mask = {colored: i for i, colored in enumerate(masks)}
    forest = mode == "forest"
    forest_edges = len(labels) - 1
    span = SparseMatrix(len(masks))
    append = span.rows.append
    roomy: dict[int, list[tuple[int, int]]] = {}  # the multipliers of at most spare edges, by spare
    alive: dict[frozenset, list[tuple[int, int]]] = {}  # the multipliers with a live term, by term edge masks
    for _, rel in relation_instances(pres, labels, mode, families):
        terms = [(colored, edges_of(colored), _koszul_mask(colored & odd), c, -c) for colored, c in rel.terms.items()]
        if forest:
            spare = forest_edges - min(edges.bit_count() for _, edges, *_ in terms)
            if spare not in roomy:
                roomy[spare] = [m for m in encoded if m[1].bit_count() <= spare]
            multipliers = roomy[spare]
        else:
            term_edges = frozenset(edges for _, edges, *_ in terms)
            multipliers = alive.get(term_edges)
            if multipliers is None:
                support = 0
                for edges in term_edges:
                    support |= edges
                dead: dict[int, bool] = {}  # by the multiplier's edges on the support
                multipliers = alive[term_edges] = []
                for m in encoded:
                    on = m[1] & support
                    gone = dead.get(on)
                    if gone is None:
                        gone = dead[on] = all(edges & on for edges in term_edges)
                    if not gone:
                        multipliers.append(m)
        live: dict[int, list[tuple]] = {}  # by edge mask, the terms with a nonzero product
        for mult, mult_edges in multipliers:
            kept = live.get(mult_edges)
            if kept is None:
                kept = [t for t in terms if not t[1] & mult_edges]
                if forest:  # a union missing from the forests has a cycle
                    kept = [t for t in kept if t[0] | mult in by_mask]
                live[mult_edges] = kept
            if not kept:
                continue
            mult_odd = mult & odd
            row = {}
            # distinct terms have distinct unions with one multiplier, so
            # no two products land on one position
            for colored, _, koszul, c, neg in kept:
                pos = by_mask.get(colored | mult)
                if pos is None:
                    raise ValueError("a product of the span is missing from the full ambient")
                row[pos] = neg if (koszul & mult_odd).bit_count() & 1 else c
            append(row)
    return span


def ideal_rank_breakdown(
    pres: GraphPresentation, labels: Iterable[Atom], mode: str = "forest", store: ComponentStore | None = None
) -> dict:
    """Ideal span ranks with and without the two 12-term families.

    The rank with every family is that of the component's echelon, and the
    ambient its masks, both read from ``algebra_basis``;
    only the span without the two families is built, on {1..n}.
    Informational: whether those families follow from the others at small
    sizes is not settled, so both ranks are reported side by side.
    """
    comp = algebra_basis(pres, labels, mode, store)
    full = comp.reducer.rank
    reduced_families = tuple(f for f in pres.families if f not in ("bab_sum", "bbb_sum"))
    without = rank(_span_matrix(pres, standard_labels(len(comp.labels)), mode, comp.masks, reduced_families))
    return {
        "n": len(comp.labels),
        "mode": mode,
        "ambient": len(comp.masks),
        "rank_all_families": full,
        "rank_without_12term": without,
        "twelve_term_raise_rank": full > without,
    }


# --- differentials ------------------------------------------------------------


def differential_algebra(x: AlgebraElement, which: str) -> AlgebraElement:
    """Derivation ``up`` (a -> b, bidegree (+1,0)) or ``down`` (b -> a, (-1,0)).

    Each letter of the source color moves to the other color on its pair,
    with the sign (-1)**(number of b-letters before that pair) in the
    canonical word; requires the two-color presentation.
    """
    pres = x.pres
    if "a" not in pres.color_index or "b" not in pres.color_index:
        raise ValueError("differentials need the two-color presentation")
    if which not in ("up", "down"):
        raise ValueError(f"unknown differential {which!r}")
    n = len(x.labels)
    npairs = n * (n - 1) // 2
    every_pair = (1 << npairs) - 1
    shift_a, shift_b = pres.color_index["a"] * npairs, pres.color_index["b"] * npairs
    source, target = (shift_a, shift_b) if which == "up" else (shift_b, shift_a)
    out = AlgebraElement(x.labels, pres)
    for m, coeff in x.terms.items():
        b_pairs = m >> shift_b & every_pair
        pairs = m >> source & every_pair
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            flip = (b_pairs & low - 1).bit_count() & 1
            out._add_term(m ^ low << source ^ low << target, -coeff if flip else coeff)
    return out


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
