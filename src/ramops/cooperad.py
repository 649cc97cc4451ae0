"""Cocomposition on the forest algebras and the cooperad axiom checks.

The cocomposition for the split I | J sends an edge with both ends in I to
the left tensor factor, both ends in J to the right factor, and a
straddling edge to the left factor rerouted into the place-holder leaf.
Extended multiplicatively with Koszul interleaving signs and reduced to the
quotient on each side, this is a morphism of bidifferential algebras; the
checks below exercise that claim plus both coassociativity equations.

Normalised cocomposition is read from a table of rows, one table per store
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
    monomial_bidegree,
    monomial_from_word,
    monomial_sort_key,
    monomial_str,
    relation_instances,
)
from .labels import Atom, STAR, HASH, check_label_set, sort_atoms
from .linalg import ONE, bump
from .reports import verdict


class TensorAlgebraElement:
    """Sparse combination of monomial pairs from two algebra components."""

    __slots__ = ("labels_left", "labels_right", "pres", "terms")

    def __init__(self, labels_left, labels_right, pres: GraphPresentation, terms=None):
        self.labels_left = check_label_set(labels_left)
        self.labels_right = check_label_set(labels_right)
        self.pres = pres
        self.terms: dict[tuple[MonomialKey, MonomialKey], Fraction] = (
            terms if terms is not None else {}
        )

    def add_term(self, ml: MonomialKey, mr: MonomialKey, coeff: Fraction) -> None:
        bump(self.terms, (ml, mr), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorAlgebraElement)
            and self.labels_left == other.labels_left
            and self.labels_right == other.labels_right
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.labels_left, self.labels_right, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (
                monomial_sort_key(kv[0][0], self.pres),
                monomial_sort_key(kv[0][1], self.pres),
            ),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c}*{monomial_str(l, self.pres)}(x){monomial_str(r, self.pres)}"
            for (l, r), c in self.sorted_terms()
        ).replace("+ -", "- ")


def tensor_multiply(
    x: TensorAlgebraElement, y: TensorAlgebraElement, mode: str = "forest"
) -> TensorAlgebraElement:
    """(u(x)v)(u'(x)v') = (-1)**(h(v)h(u')) uu' (x) vv'."""
    from .graphalg import multiply

    out = TensorAlgebraElement(x.labels_left, x.labels_right, x.pres)
    for (u, v), c1 in x.terms.items():
        hv = monomial_bidegree(v, x.pres)[0]
        for (u2, v2), c2 in y.terms.items():
            hu2 = monomial_bidegree(u2, x.pres)[0]
            left = multiply(u, u2, x.pres, mode)
            if left is None:
                continue
            right = multiply(v, v2, x.pres, mode)
            if right is None:
                continue
            sign = -1 if (hv & 1) and (hu2 & 1) else 1
            out.add_term(left[1], right[1], c1 * c2 * sign * left[0] * right[0])
    return out


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


class SlotTable:
    """Normalised cocomposition rows of one (presentation, pattern).

    ``rows[i]`` is None until the ambient monomial at position i of the union
    component is first asked for.  ``left_odd[s]`` is the parity of h on
    left basis slot s; ``slots_by_degree`` lists the union basis slots of
    each bidegree.  All three are the same on every label set of the pattern.
    """

    __slots__ = ("rows", "left_odd", "slots_by_degree")

    def __init__(self, pres: GraphPresentation, union: GraphComponent, left: GraphComponent):
        self.rows: list[tuple | None] = [None] * len(union.monomials)
        self.left_odd = [monomial_bidegree(m, pres)[0] & 1 for m in left.basis]
        self.slots_by_degree: dict = {}
        for slot, m in enumerate(union.basis):
            self.slots_by_degree.setdefault(monomial_bidegree(m, pres), []).append(slot)


# per store: {(presentation hash, pattern): SlotTable} and
# {(presentation hash, I, J, place): Cocomposition}
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
    three forest components and the table its pattern shares."""

    __slots__ = ("pres", "iset", "jset", "place", "union", "left", "right", "table")

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
        self.table = tables.get(key)
        if self.table is None:
            self.table = tables[key] = SlotTable(pres, self.union, self.left)

    def row_at(self, i: int) -> tuple:
        """Row of the ambient monomial at position i, computed on first use."""
        row = self.table.rows[i]
        if row is None:
            row = self.table.rows[i] = self.normalised(self.union.monomials[i])
        return row

    def normalised(self, m: MonomialKey) -> tuple:
        """(left slot, right slot, coefficient) triples of theta(m), reduced."""
        split = _split(self.pres, self.iset, self.jset, self.place, m)
        if split is None:
            return ()
        sign, ml, mr = split
        left, right = self.left, self.right
        terms = quotient.tensor_normal_form({(ml, mr): Fraction(sign)}, (left, right))
        return tuple((left.slot(bl), right.slot(br), c) for (bl, br), c in terms.items())


def cocomposition(
    pres: GraphPresentation, I: tuple, J: tuple, place: Atom, store: ComponentStore
) -> Cocomposition:
    """The checked split I | J with its components and table, kept per store."""
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
    normalize: bool = True,
) -> TensorAlgebraElement:
    """Cocomposition of x along the split I | J, place-holder on the I side.

    Each side is reduced to its quotient normal form when ``normalize`` is
    set, so the terms of the result pair basis monomials; those are read
    from the rows of the split's ``SlotTable``.
    """
    I, J = tuple(I), tuple(J)
    if not normalize:
        I, J = _checked_split(I, J, place)
        if x.labels != sort_atoms(I + J):
            raise ValueError("element labels must be exactly I + J")
        iset, jset = set(I), set(J)
        out = TensorAlgebraElement(sort_atoms(I + (place,)), J, pres)
        for m, coeff in x.terms.items():
            split = _split(pres, iset, jset, place, m)
            if split is not None:
                out.add_term(split[1], split[2], coeff * split[0])
        return out
    cocomp = cocomposition(pres, I, J, place, store or default_store())
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
    return TensorAlgebraElement(t.labels_left, t.labels_right, t.pres, terms)


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
    component, plus the intertwining of both differentials with theta."""
    I = check_label_set(I)
    J = check_label_set(J)
    K = check_label_set(K)
    store = store or default_store()
    labels = sort_atoms(I + J + K)
    comp = algebra_basis(pres, labels, "forest", store)
    ij = sort_atoms(I + J)
    jk = sort_atoms(J + K)
    ik = sort_atoms(I + K)
    j_hash = sort_atoms(J + (HASH,))
    i_hash = sort_atoms(I + (HASH,))
    i_star = sort_atoms(I + (STAR,))

    ij_hash = sort_atoms(ij + (HASH,))
    ik_star = sort_atoms(ik + (STAR,))

    bad_nested = None
    bad_swapped = None
    for b in comp.basis:
        el = comp.monomial_element(b)
        # theta(ij, K) starts both the nested and the swapped left-hand side
        first = theta(pres, ij, K, el, HASH, store).terms

        lhs: dict = {}
        lhs2: dict = {}
        for (ml, mk), c in first.items():
            el_l = AlgebraElement(ij_hash, pres, {ml: ONE})
            for (m1, m2), c2 in theta(pres, I, j_hash, el_l, STAR, store).terms.items():
                bump(lhs, (m1, m2, mk), c * c2)
            for (m1, mj), c2 in theta(pres, i_hash, J, el_l, STAR, store).terms.items():
                bump(lhs2, (m1, mj, mk), c * c2)

        rhs: dict = {}
        for (m1, mjk), c in theta(pres, I, jk, el, STAR, store).terms.items():
            el_r = AlgebraElement(jk, pres, {mjk: ONE})
            for (m2, m3), c2 in theta(pres, J, K, el_r, HASH, store).terms.items():
                bump(rhs, (m1, m2, m3), c * c2)
        if lhs != rhs and bad_nested is None:
            bad_nested = {"basis_monomial": monomial_str(b, pres)}

        rhs2: dict = {}
        for (ml, mj), c in theta(pres, ik, J, el, STAR, store).terms.items():
            el_l = AlgebraElement(ik_star, pres, {ml: ONE})
            hj = monomial_bidegree(mj, pres)[0]
            for (m1, mk), c2 in theta(pres, i_star, K, el_l, HASH, store).terms.items():
                hk = monomial_bidegree(mk, pres)[0]
                sign = -1 if (hj & 1) and (hk & 1) else 1
                bump(rhs2, (m1, mj, mk), c * c2 * sign)
        if lhs2 != rhs2 and bad_swapped is None:
            bad_swapped = {"basis_monomial": monomial_str(b, pres)}

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
    """theta o d = (d (x) id + (-1)**h id (x) d) o theta for both differentials."""
    I = check_label_set(I)
    J = check_label_set(J)
    labels = sort_atoms(I + J)
    store = store or default_store()
    comp = algebra_basis(pres, labels, "forest", store)
    left_labels = sort_atoms(I + (STAR,))
    comp_left = algebra_basis(pres, left_labels, "forest", store)
    comp_right = algebra_basis(pres, J, "forest", store)
    verdicts = []
    for which in ("up", "down"):
        bad = None
        for b in comp.basis:
            el = comp.monomial_element(b)
            lhs = theta(pres, I, J, differential_algebra(el, which), STAR, store)
            rhs = TensorAlgebraElement(left_labels, J, pres)
            for (ml, mr), c in theta(pres, I, J, el, STAR, store).terms.items():
                d_left = differential_algebra(
                    AlgebraElement(left_labels, pres, {ml: Fraction(1)}), which
                )
                for mld, cl in d_left.terms.items():
                    rhs.add_term(mld, mr, c * cl)
                hl = monomial_bidegree(ml, pres)[0]
                sgn = -1 if hl & 1 else 1
                d_right = differential_algebra(
                    AlgebraElement(J, pres, {mr: Fraction(1)}), which
                )
                for mrd, cr in d_right.terms.items():
                    rhs.add_term(ml, mrd, c * cr * sgn)
            if tensor_normal_form(rhs, comp_left, comp_right).terms != lhs.terms:
                bad = {"basis_monomial": monomial_str(b, pres), "differential": which}
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
