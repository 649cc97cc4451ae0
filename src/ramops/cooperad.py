"""Cocomposition on the forest algebras and the cooperad axiom checks.

The cocomposition for the split I | J sends an edge with both ends in I to
the left tensor factor, both ends in J to the right factor, and a
straddling edge to the left factor rerouted into the place-holder leaf.
Extended multiplicatively with Koszul interleaving signs and reduced to the
quotient on each side, this is a morphism of bidifferential algebras; the
checks below exercise that claim plus both coassociativity equations.

Normalised cocomposition is read from one record per store and per
(presentation, pattern): the split table, the row cache and the transpose.
The pattern of a split I | J with place-holder p is the word over I, J, P
read along sort_atoms(I + J + (p,)).  Row i holds the normalised image of
the ambient monomial at position i of the union component as (left slot,
right slot, coefficient) triples.

A row is computed from bits alone.  A monomial is its colored mask (see
``graphalg``: bit ci * P + p is the letter of color ci on vertex pair p),
so its bit order is the letter order of the Koszul signs.
The split table of a pattern, built once from the pattern string, has one
entry per letter bit of the union: side, target bit, target pair bit, sign
factor and parity.  An edge inside I keeps its pair on the left, an edge
inside J goes to the right renumbered by position, and a straddling edge
goes to the left as (I end, place-holder).  Its factor is the color's
orientation when the J end comes first, times the orientation again when
the I end sorts after the place-holder.  The row's sign is the product of
the factors of its letters times two parities: the pairs of an odd right
letter before an odd left letter, and the inversions among the target bits
of the odd left letters, counted by ``popcount``.  Right letters keep their
order, since J is renumbered in order.  The row is zero when two left
letters share a pair (a double edge), or when the left or the right mask is
missing from its forest ambient (a cycle).  Otherwise the masks name an
ambient position on each side, through the side component's ``index``,
and the row is the product of the two positions' slot expansions.  One
loop over the split table (``Cocomposition._split``) gives the two
positions and the sign; the rows and the transpose both read it.  The
word-by-word split that this reads in bits is kept as the test oracle
(``tests/cooperad_oracle.raw_theta``).

One row serves every label set with the same pattern, exactly: the table
depends on the pattern alone, and a component transports with no sign,
position i, basis slot s and their masks naming the same monomial on every
label set of a size (see ``quotient``).  ``row_at`` keeps a row on first
use, on whichever label set asks, and is the only writer of the row cache.
``theta`` never reduces its input first, so that ``theta_relation_kill``
sees the relation itself.  A term's mask with a position in the union
component reads the row there, and one outside the forest ambient (a
full-mode cycle) is split through the same table, without being stored.  ``dual_compose`` in ``dual`` reads the
transpose of the basis rows (``Cocomposition.transposed``: per left slot
and right slot, the union slots and coefficients), built once per pattern
straight from the split table, each product of expansions appended in
place with no row formed, so that it sums over the supports of two forms;
dual composition leaves the row cache empty.

The basis-by-basis checks read the rows too, with no tensor elements.  A
basis slot s of one split's factor component names the same monomial as
position ``basis_positions[s]`` of the union of the next split, so a
composite of two cocompositions on a basis element is the contraction of its
row with the rows of its slots: ``cooperad_axiom_check`` keeps both sides of
each coassociativity equation as {(slot, slot, slot): coefficient} over the
same three components and reads h-parities from the components.
``theta_intertwines_differentials`` compares theta of d(b) with the row of b
contracted against the basis coordinates of d on each factor
(``GraphComponent.differentials``); the normal form of a tensor is
multilinear, so this is the normal form of the raw right-hand side.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from . import quotient
from .cache import ComponentStore, default_store
from .graphalg import (
    AlgebraElement,
    GraphComponent,
    GraphPresentation,
    algebra_basis,
    monomial_str,
    relation_instances,
)
from .labels import Atom, STAR, HASH, check_label_set, sort_atoms
from .linalg import bump
from .reports import verdict


# per store: {(presentation hash, pattern): (split table, rows, transpose)}
# and {(presentation hash, I, J, place): Cocomposition}; rows[i] is None until
# ``row_at(i)`` first asks for the ambient monomial at position i of the union
# component, and the transpose is empty until dual composition first asks for it
_TABLES = quotient.per_store_memo()
_SPLITS = quotient.per_store_memo()


def _split_table(pres: GraphPresentation, pattern: str) -> list[tuple]:
    """Per letter bit of the union: (side, target bit, target pair bit, flip,
    odd), from the pattern alone, whose positions stand for the labels (see
    the module doc).  Side 1 is the right; ``flip`` is 1 where the letter's
    sign factor is -1.  A right letter's pair bit is 0: J is renumbered in
    order, so no two right letters share a pair.
    """
    left = [k for k, c in enumerate(pattern) if c != "J"]
    right = [k for k, c in enumerate(pattern) if c == "J"]
    place = pattern.index("P")
    left_pair = {e: q for q, e in enumerate(combinations(left, 2))}
    right_pair = {e: q for q, e in enumerate(combinations(right, 2))}
    union_pairs = list(combinations([k for k, c in enumerate(pattern) if c != "P"], 2))
    table = []
    for ci, color in enumerate(pres.colors):
        odd, reverses = pres.is_odd(ci), color.orientation < 0
        for u, v in union_pairs:
            if pattern[u] == pattern[v] == "J":
                table.append((1, 1 << (ci * len(right_pair) + right_pair[u, v]), 0, 0, odd))
                continue
            flip = 0
            if pattern[u] != pattern[v]:
                end = v if pattern[v] == "I" else u
                flip = reverses and (end == v) ^ (end > place)
                u, v = sorted((end, place))
            q = left_pair[u, v]
            table.append((0, 1 << (ci * len(left_pair) + q), 1 << q, int(flip), odd))
    return table


def _checked_split(I, J, place: Atom) -> tuple[tuple, tuple]:
    I = check_label_set(I)
    J = check_label_set(J)
    if set(I) & set(J):
        raise ValueError("I and J must be disjoint")
    if place in I or place in J:
        raise ValueError("the place-holder must be fresh")
    return I, J


class Cocomposition:
    """The split I | J, place-holder on the I side, on concrete labels: its
    three forest components and the record its pattern shares."""

    __slots__ = ("union", "left", "right", "rows", "by_left", "bits")

    def __init__(
        self, pres: GraphPresentation, I: tuple, J: tuple, place: Atom, store: ComponentStore
    ):
        self.union = algebra_basis(pres, I + J, "forest", store)
        self.left = algebra_basis(pres, I + (place,), "forest", store)
        self.right = algebra_basis(pres, J, "forest", store)
        iset, jset = frozenset(I), frozenset(J)
        pattern = "".join(
            "I" if a in iset else "J" if a in jset else "P" for a in sort_atoms(I + J + (place,))
        )
        tables = _TABLES.setdefault(store, {})
        key = (pres.hash, pattern)
        record = tables.get(key)
        if record is None:
            record = tables[key] = (_split_table(pres, pattern), [None] * len(self.union.masks), [])
        self.bits, self.rows, self.by_left = record

    def row_at(self, i: int) -> tuple:
        """Row of the ambient monomial at position i, computed on first use."""
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = self._row(self.union.masks[i])
        return row

    def transposed(self) -> list[dict[int, list]]:
        """The rows of the union's basis monomials, transposed: per left
        slot, {right slot: [(union slot, coefficient)]}.  Built on first
        use, from the split table and not from the row cache, and shared
        by the pattern."""
        by_left = self.by_left
        if not by_left:  # a left component holds at least the unit
            by_left.extend({} for _ in range(self.left.dim))
            masks = self.union.masks
            left_at, right_at = self.left.expansion_at, self.right.expansion_at
            for x, pos in enumerate(self.union.basis_positions):
                split = self._split(masks[pos])
                if split is None:
                    continue
                lpos, rpos, sign = split
                right_pairs = right_at(rpos)
                for ls, cl in left_at(lpos):
                    row, c = by_left[ls], sign * cl
                    for rs, cr in right_pairs:
                        terms = row.get(rs)
                        if terms is None:
                            row[rs] = [(x, c * cr)]
                        else:
                            terms.append((x, c * cr))
        return by_left

    def _row(self, mask: int) -> tuple:
        """The normalised row of the union monomial with the colored mask:
        the product of the slot expansions of its split's two positions."""
        split = self._split(mask)
        if split is None:
            return ()
        lpos, rpos, sign = split
        right_pairs = self.right.expansion_at(rpos)
        # distinct slot pairs, nonzero products: no sums to collect
        return tuple(
            (ls, rs, sign * cl * cr) for ls, cl in self.left.expansion_at(lpos) for rs, cr in right_pairs
        )

    def _split(self, mask: int) -> tuple[int, int, int] | None:
        """(left position, right position, sign) of the union monomial with
        the colored mask, read letter by letter from the split table (see
        the module doc); None for a double edge or a cycle."""
        bits = self.bits
        left = right = pairs = odd_left = odd_right = neg = 0
        while mask:
            low = mask & -mask
            mask ^= low
            side, bit, pair, flip, odd = bits[low.bit_length() - 1]
            neg ^= flip
            if side:
                right |= bit
                if odd:
                    odd_right ^= 1
            else:
                if pairs & pair:
                    return None  # a double edge
                pairs |= pair
                left |= bit
                if odd:
                    # past the odd right letters so far, and the odd left
                    # letters so far with a greater target bit
                    neg ^= odd_right ^ ((odd_left & -bit).bit_count() & 1)
                    odd_left |= bit
        lpos = self.left.index.get(left)
        rpos = self.right.index.get(right)
        if lpos is None or rpos is None:
            return None  # a cycle
        return lpos, rpos, -1 if neg else 1


def cocomposition(
    pres: GraphPresentation, I: tuple, J: tuple, place: Atom, store: ComponentStore
) -> Cocomposition:
    """The checked split I | J with its components and rows, kept per store."""
    splits = _SPLITS.setdefault(store, {})
    key = (pres.hash, I, J, place)
    cocomp = splits.get(key)
    if cocomp is None:
        cocomp = splits[key] = Cocomposition(pres, *_checked_split(I, J, place), place, store)
    return cocomp


def theta(
    pres: GraphPresentation,
    I: Iterable[Atom],
    J: Iterable[Atom],
    x: AlgebraElement,
    place: Atom = STAR,
    store: ComponentStore | None = None,
) -> quotient.Tensor:
    """Cocomposition of x along the split I | J, place-holder on the I side.

    Each side is reduced to its quotient normal form, so the terms of the
    ``quotient.Tensor`` pair basis monomials; those are read from the
    normalised rows the split's pattern shares.
    """
    cocomp = cocomposition(pres, tuple(I), tuple(J), place, store or default_store())
    union, left, right = cocomp.union, cocomp.left, cocomp.right
    if x.labels != union.labels:
        raise ValueError("element labels must be exactly I + J")
    by_slot: dict = {}
    for m, coeff in x.terms.items():
        i = union.index.get(m)
        row = cocomp._row(m) if i is None else cocomp.row_at(i)
        for ls, rs, c in row:
            bump(by_slot, (ls, rs), c if coeff == 1 else coeff * c)
    basis_left, basis_right = left.basis, right.basis
    terms = {(basis_left[ls], basis_right[rs]): c for (ls, rs), c in by_slot.items()}
    return quotient.Tensor((left.element({}), right.element({})), terms)


def tensor_normal_form(
    t: quotient.Tensor, comp_left: GraphComponent, comp_right: GraphComponent
) -> quotient.Tensor:
    """Reduce each tensor factor to the basis of its component."""
    return t._like(quotient.tensor_normal_form(t.terms, (comp_left, comp_right)))


def theta_relation_kill(
    pres: GraphPresentation,
    I: Iterable[Atom],
    J: Iterable[Atom],
    store: ComponentStore | None = None,
) -> list[dict]:
    """Cocomposition sends every defining relation instance to zero."""
    I = check_label_set(I)
    J = check_label_set(J)
    labels = sort_atoms(I + J)
    store = store or default_store()
    verdicts = []
    for family, rel in relation_instances(pres, labels, "full"):
        image = theta(pres, I, J, rel, STAR, store)
        ok = image.is_zero()
        verdicts.append(
            verdict(
                "theta_kills_relation",
                ok,
                witness=None if ok else {"family": family, "relation": repr(rel)},
                family=family,
                I=list(I),
                J=list(J),
            )
        )
    return verdicts


def cooperad_axiom_check(
    pres: GraphPresentation,
    I: Iterable[Atom],
    J: Iterable[Atom],
    K: Iterable[Atom],
    store: ComponentStore | None = None,
) -> list[dict]:
    """Both coassociativity equations on every basis element of the union
    component, contracted slot by slot through the rows of seven splits."""
    I = check_label_set(I)
    J = check_label_set(J)
    K = check_label_set(K)
    store = store or default_store()
    ij = sort_atoms(I + J)
    # nested: (I | J#) o (IJ | K) = (J | K) o (I | JK); swapped: (I# | J) o
    # (IJ | K) = (I* | K) o (IK | J) with the Koszul sign of the J and K factors
    first = cocomposition(pres, ij, K, HASH, store)
    nested_left = cocomposition(pres, I, sort_atoms(J + (HASH,)), STAR, store)
    swapped_left = cocomposition(pres, sort_atoms(I + (HASH,)), J, STAR, store)
    outer = cocomposition(pres, I, sort_atoms(J + K), STAR, store)
    inner = cocomposition(pres, J, K, HASH, store)
    swapped = cocomposition(pres, sort_atoms(I + K), J, STAR, store)
    swapped_inner = cocomposition(pres, sort_atoms(I + (STAR,)), K, HASH, store)
    odd_j = swapped.right.odd
    odd_k = swapped_inner.right.odd
    # a basis slot of one split's factor is a position of the next split's union
    at_ij = first.left.basis_positions
    at_jk = outer.right.basis_positions
    at_ik = swapped.left.basis_positions

    bad_nested = None
    bad_swapped = None
    comp = first.union
    for b, pos in zip(comp.basis, comp.basis_positions):
        lhs: dict = {}
        lhs2: dict = {}
        for s, k, c in first.row_at(pos):
            for a, j, c2 in nested_left.row_at(at_ij[s]):
                bump(lhs, (a, j, k), c * c2)
            for a, j, c2 in swapped_left.row_at(at_ij[s]):
                bump(lhs2, (a, j, k), c * c2)

        rhs: dict = {}
        for a, s, c in outer.row_at(pos):
            for j, k, c2 in inner.row_at(at_jk[s]):
                bump(rhs, (a, j, k), c * c2)
        if lhs != rhs and bad_nested is None:
            bad_nested = {"basis_monomial": monomial_str(b, pres, comp.labels)}

        rhs2: dict = {}
        for s, j, c in swapped.row_at(pos):
            for a, k, c2 in swapped_inner.row_at(at_ik[s]):
                bump(rhs2, (a, j, k), -c * c2 if odd_j[j] and odd_k[k] else c * c2)
        if lhs2 != rhs2 and bad_swapped is None:
            bad_swapped = {"basis_monomial": monomial_str(b, pres, comp.labels)}

    split = {"I": list(I), "J": list(J), "K": list(K)}
    verdicts = [
        verdict("cooperad_nested_coassociativity", bad_nested is None, bad_nested, **split),
        verdict("cooperad_swapped_coassociativity", bad_swapped is None, bad_swapped, **split),
    ]
    return verdicts


def theta_intertwines_differentials(
    pres: GraphPresentation,
    I: Iterable[Atom],
    J: Iterable[Atom],
    store: ComponentStore | None = None,
) -> list[dict]:
    """theta o d = (d (x) id + (-1)**h id (x) d) o theta for both differentials.

    Both sides are taken in slots: the left side is theta of the terms of
    d(b), the right side applies the basis coordinates of d on each factor
    of theta(b), which is the normal form of the raw right side because the
    normal form of a tensor is multilinear.
    """
    I = check_label_set(I)
    J = check_label_set(J)
    store = store or default_store()
    cocomp = cocomposition(pres, I, J, STAR, store)
    union = cocomp.union
    left_odd = cocomp.left.odd
    verdicts = []
    for which in ("up", "down"):
        d_union = union.differentials(which)
        d_left = cocomp.left.differentials(which)
        d_right = cocomp.right.differentials(which)
        bad = None
        for slot, pos in enumerate(union.basis_positions):
            lhs: dict = {}
            for i, coeff in d_union[slot][0]:
                for ls, rs, c in cocomp.row_at(i):
                    bump(lhs, (ls, rs), coeff * c)
            rhs: dict = {}
            for ls, rs, c in cocomp.row_at(pos):
                for ld, cl in d_left[ls][1]:
                    bump(rhs, (ld, rs), c * cl)
                c_signed = -c if left_odd[ls] else c
                for rd, cr in d_right[rs][1]:
                    bump(rhs, (ls, rd), c_signed * cr)
            if lhs != rhs:
                bad = {"basis_monomial": monomial_str(union.basis[slot], pres, union.labels), "differential": which}
                break
        verdicts.append(
            verdict(
                f"theta_intertwines_{which}",
                bad is None,
                bad,
                I=list(I),
                J=list(J),
            )
        )
    return verdicts
