"""Cocomposition on the forest algebras and the cooperad axiom checks.

The cocomposition for the split I | J sends an edge with both ends in I to
the left tensor factor, both ends in J to the right factor, and a
straddling edge to the left factor rerouted into the place-holder leaf.
Extended multiplicatively with Koszul interleaving signs and reduced to the
quotient on each side, this is a morphism of bidifferential algebras; the
checks below exercise that claim plus both coassociativity equations.

Normalised cocomposition is read from a list of rows, one list per store
and per (presentation, pattern).  The pattern of a split I | J with
place-holder p is the word over I, J, P read along sort_atoms(I + J + (p,)).
Row i holds the normalised image of the ambient monomial at position i of
the union component as (left slot, right slot, coefficient) triples.  One
row serves every label set with the same pattern, exactly: the split, the
canonical form of a word and both quotient reducers compare atoms only
through ``atom_key``, so an order-preserving relabeling commutes with each
of them, and a component transports with no sign, position i and basis
slot s naming the same monomial on every label set of a size (see
``quotient``).  A row is computed on first use, on whichever label set asks,
from the raw split of its ambient monomial.  ``theta`` never reduces its
input first, so that ``theta_relation_kill`` sees the relation itself; a
monomial outside the forest ambient (a full-mode cycle) is split and
normalised without being stored.  ``dual_compose`` in ``dual`` contracts
forms against the same rows.

The basis-by-basis checks read the rows too, with no tensor elements.  A
basis slot s of one split's factor component names the same monomial as
position ``basis_positions[s]`` of the union of the next split, so a
composite of two cocompositions on a basis element is the contraction of its
row with the rows of its slots: ``cooperad_axiom_check`` keeps both sides of
each coassociativity equation as {(slot, slot, slot): coefficient} over the
same three components and reads h-parities from the components.
``theta_intertwines_differentials`` compares theta of d(b) with the row of b
contracted against the basis coordinates of d on each factor; the normal
form of a tensor is multilinear, so this is the normal form of the raw
right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import quotient
from .cache import ComponentStore, default_store
from .graphalg import (
    AlgebraElement,
    GraphComponent,
    GraphPresentation,
    MonomialKey,
    algebra_basis,
    differential_algebra,
    monomial_from_word,
    monomial_sort_key,
    monomial_str,
    relation_instances,
)
from .labels import Atom, STAR, HASH, check_label_set, sort_atoms
from .linalg import Combination, bump
from .reports import verdict


class TensorAlgebraElement(Combination):
    """Sparse combination of monomial pairs from two algebra components;
    ``labels`` is the pair (left labels, right labels)."""

    __slots__ = ("pres",)

    def __init__(self, labels_left, labels_right, pres: GraphPresentation, terms=None):
        self.labels = (check_label_set(labels_left), check_label_set(labels_right))
        self.pres = pres
        self.terms: dict[tuple[MonomialKey, MonomialKey], Fraction] = (
            terms if terms is not None else {}
        )

    def _like(self, terms: dict) -> "TensorAlgebraElement":
        return TensorAlgebraElement(*self.labels, self.pres, terms)

    def sort_key(self, key: tuple[MonomialKey, MonomialKey]):
        return monomial_sort_key(key[0], self.pres), monomial_sort_key(key[1], self.pres)

    def key_str(self, key: tuple[MonomialKey, MonomialKey]) -> str:
        return f"{monomial_str(key[0], self.pres)}(x){monomial_str(key[1], self.pres)}"

    def add_term(self, ml: MonomialKey, mr: MonomialKey, coeff: Fraction) -> None:
        self._add_term((ml, mr), coeff)


def _split(pres: GraphPresentation, iset, jset, place: Atom, m: MonomialKey):
    """(sign, left monomial, right monomial) of the raw cocomposition of m,
    or None when a side vanishes."""
    sign = 1
    left_word: list = []
    right_word: list = []
    seen_right_odd = 0
    for ci, edges in enumerate(m):
        cname = pres.colors[ci].name
        odd = pres.is_odd(ci)
        orientation = pres.colors[ci].orientation
        for u, v in edges:
            if u in iset and v in iset:
                side, letter, extra = 0, (cname, u, v), 1
            elif u in jset and v in jset:
                side, letter, extra = 1, (cname, u, v), 1
            elif u in iset:
                side, letter, extra = 0, (cname, u, place), 1
            elif v in iset:
                side, letter, extra = 0, (cname, v, place), orientation
            else:
                raise ValueError(f"edge endpoint outside I + J in {m}")
            sign *= extra
            if side == 0:
                if odd and (seen_right_odd & 1):
                    sign = -sign
                left_word.append(letter)
            else:
                if odd:
                    seen_right_odd += 1
                right_word.append(letter)
    lres = monomial_from_word(pres, left_word, "forest")
    if lres is None:
        return None
    rres = monomial_from_word(pres, right_word, "forest")
    if rres is None:
        return None
    return sign * lres[0] * rres[0], lres[1], rres[1]


# per store: {(presentation hash, pattern): rows} and
# {(presentation hash, I, J, place): Cocomposition}; rows[i] is None until the
# ambient monomial at position i of the union component is first asked for
_TABLES = quotient.per_store_memo()
_SPLITS = quotient.per_store_memo()


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
    three forest components and the rows its pattern shares."""

    __slots__ = ("pres", "iset", "jset", "place", "union", "left", "right", "rows")

    def __init__(
        self, pres: GraphPresentation, I: tuple, J: tuple, place: Atom, store: ComponentStore
    ):
        self.pres = pres
        self.iset, self.jset, self.place = frozenset(I), frozenset(J), place
        self.union = algebra_basis(pres, I + J, "forest", store)
        self.left = algebra_basis(pres, I + (place,), "forest", store)
        self.right = algebra_basis(pres, J, "forest", store)
        pattern = "".join(
            "I" if a in self.iset else "J" if a in self.jset else "P"
            for a in sort_atoms(I + J + (place,))
        )
        tables = _TABLES.setdefault(store, {})
        key = (pres.hash, pattern)
        self.rows = tables.get(key)
        if self.rows is None:
            self.rows = tables[key] = [None] * len(self.union.monomials)

    def row_at(self, i: int) -> tuple:
        """Row of the ambient monomial at position i, computed on first use."""
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = self.normalised(self.union.monomials[i])
        return row

    def normalised(self, m: MonomialKey) -> tuple:
        """(left slot, right slot, coefficient) triples of theta(m), reduced."""
        split = _split(self.pres, self.iset, self.jset, self.place, m)
        if split is None:
            return ()
        sign, ml, mr = split
        right = self.right.slot_expansion(mr)
        # distinct slot pairs, nonzero products: no sums to collect
        return tuple(
            (ls, rs, sign * cl * cr) for ls, cl in self.left.slot_expansion(ml) for rs, cr in right
        )


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
) -> TensorAlgebraElement:
    """Cocomposition of x along the split I | J, place-holder on the I side.

    Each side is reduced to its quotient normal form, so the terms of the
    result pair basis monomials; those are read from the normalised rows
    the split's pattern shares.
    """
    cocomp = cocomposition(pres, tuple(I), tuple(J), place, store or default_store())
    union, left, right = cocomp.union, cocomp.left, cocomp.right
    if x.labels != union.labels:
        raise ValueError("element labels must be exactly I + J")
    by_slot: dict = {}
    for m, coeff in x.terms.items():
        i = union.position(m)
        row = cocomp.normalised(m) if i is None else cocomp.row_at(i)
        for ls, rs, c in row:
            bump(by_slot, (ls, rs), c if coeff == 1 else coeff * c)
    basis_left, basis_right = left.basis, right.basis
    terms = {(basis_left[ls], basis_right[rs]): c for (ls, rs), c in by_slot.items()}
    return TensorAlgebraElement(left.labels, right.labels, pres, terms)


def tensor_normal_form(
    t: TensorAlgebraElement, comp_left: GraphComponent, comp_right: GraphComponent
) -> TensorAlgebraElement:
    """Reduce each tensor factor to the basis of its component."""
    terms = quotient.tensor_normal_form(t.terms, (comp_left, comp_right))
    return TensorAlgebraElement(*t.labels, t.pres, terms)


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
            bad_nested = {"basis_monomial": monomial_str(b, pres)}

        rhs2: dict = {}
        for s, j, c in swapped.row_at(pos):
            for a, k, c2 in swapped_inner.row_at(at_ik[s]):
                bump(rhs2, (a, j, k), -c * c2 if odd_j[j] and odd_k[k] else c * c2)
        if lhs2 != rhs2 and bad_swapped is None:
            bad_swapped = {"basis_monomial": monomial_str(b, pres)}

    split = {"I": list(I), "J": list(J), "K": list(K)}
    verdicts = [
        verdict("cooperad_nested_coassociativity", bad_nested is None, bad_nested, **split),
        verdict("cooperad_swapped_coassociativity", bad_swapped is None, bad_swapped, **split),
    ]
    return verdicts


# per store: {(presentation hash, size, differential): [(d(b) by position, d(b) by slot)]}
_DIFFERENTIALS = quotient.per_store_memo()


def _differentials(comp: GraphComponent, which: str, store: ComponentStore) -> list[tuple]:
    """For each basis slot of the forest component, d of its basis monomial as
    (position, coefficient) pairs and as basis (slot, coefficient) pairs.

    Both are the same on every label set of the size: d compares atoms only
    through ``atom_key``, as the canonical forms do, so it commutes with an
    order-preserving relabeling.  d keeps the edge set of a forest, so every
    term stays in the ambient.
    """
    memo = _DIFFERENTIALS.setdefault(store, {})
    key = (comp.pres.hash, len(comp.labels), which)
    rows = memo.get(key)
    if rows is None:
        rows = memo[key] = []
        for b in comp.basis:
            image = differential_algebra(comp.monomial_element(b), which)
            positions = tuple((comp.position(m), c) for m, c in image.terms.items())
            rows.append((positions, tuple(comp.coords(image).items())))
    return rows


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
        d_union = _differentials(union, which, store)
        d_left = _differentials(cocomp.left, which, store)
        d_right = _differentials(cocomp.right, which, store)
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
                bad = {"basis_monomial": monomial_str(union.basis[slot], pres), "differential": which}
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
