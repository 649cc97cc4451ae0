"""The product routes to the quotient spans, the oracles of the components.

``product_span_matrix`` is the relation span of a graph algebra as
``graphalg._span_matrix`` built it before monomials were bitmasks: every
product formed by the tuple form's ``multiply`` (``monomial_oracle``) and
summed term by term, each row kept as formed, as the span now keeps it.
The bitmask route must give its rows exactly.

The grafted-span route to an operad component (``grafted_ideal_span``)
is the oracle of the composite components, of the relation-instance
checks (``operad._certify``, ``ram.distributive_check``), of the ideal
verdicts, which read the rewriting's one-step rows, and of
``operad.ideal_span``, which lists the rewriting's rows e_m - nf(m).

Before operad components were rewritings, every one of them was built
from ``grafted_span``: each relation grafted into every monomial, and every
generator put on top of a lower-arity span element, brought to reduced
row-echelon form.  The composite Com o F must be a change of basis of that
quotient: same dims per bidegree, every ambient tree congruent to its
expansion on the combs, and the combs independent.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from monomial_oracle import multiply

from ramops.graphalg import monomials_of_masks, relation_instances
from ramops.labels import check_label_set, standard_labels
from ramops.linalg import Echelon, SparseMatrix, bump, quotient_basis, rref
from ramops.operad import (
    OperadElement,
    _map_tree,
    enumerate_tree_monomials,
    grafted_relations,
    substitute,
    tree_bidegree,
    tree_sort_key,
)


def product_span_matrix(pres, labels, mode, monomials, families=None) -> SparseMatrix:
    """Relation instances times all complementary monomials, the tuple forms
    of ``monomials`` on the labels, one ``multiply`` per product, each row as
    formed (not scaled, repeats kept); in forest mode a term and a
    multiplier with more than n - 1 edges between them are skipped."""
    index = {m: i for i, m in enumerate(monomials)}
    edge_sets = [frozenset(e for es in m for e in es) for m in monomials]
    forest_edges = len(labels) - 1
    span = SparseMatrix(len(monomials))
    for _, rel in relation_instances(pres, labels, mode, families):
        keys = monomials_of_masks(pres, labels, list(rel.terms))
        terms = [(k, c, frozenset(e for es in k for e in es)) for k, c in zip(keys, rel.terms.values())]
        spare = forest_edges - min(len(edges) for _, _, edges in terms)
        for mult, mult_edges in zip(monomials, edge_sets):
            if mode == "forest" and len(mult_edges) > spare:
                continue
            prod: dict = {}
            for k, c, edges in terms:
                if not edges.isdisjoint(mult_edges):
                    continue
                res = multiply(k, mult, pres, mode)
                if res is not None:
                    sign, key = res
                    bump(prod, key, c * sign)
            span.add_row({index[k]: c for k, c in prod.items()})
    return span


def span_echelon(pres, n: int) -> tuple[list, Echelon]:
    """The ambient trees on {1..n} and the RREF of the grafted span."""
    monomials, span = grafted_span(pres, n)
    return monomials, rref(span)


def grafted_span(pres, n: int) -> tuple[list, SparseMatrix]:
    """The ambient trees on {1..n} and the rows of ``grafted_ideal_span`` on them."""
    return span_matrix(pres, standard_labels(n), grafted_ideal_span)


def span_matrix(pres, labels, span) -> tuple[list, SparseMatrix]:
    """The ambient trees on the labels and the elements ``span(pres,
    labels)`` as rows on them."""
    monomials = enumerate_tree_monomials(pres.gens, labels)
    index = {m: i for i, m in enumerate(monomials)}
    matrix = SparseMatrix(len(monomials))
    for e in span(pres, labels):
        matrix.add_row({index[t]: c for t, c in e.terms.items()})
    return monomials, matrix


# the grafted span on {1..n} by (presentation hash, n)
_SPAN_MEMO: dict[tuple[str, int], list] = {}


def grafted_ideal_span(pres, labels) -> list:
    """Spanning set of the operadic ideal component on the label set.

    Recursively: relation instances with monomials grafted into their three
    inputs, plus every generator put on top of a lower-arity spanning
    element and a monomial, each scaled to a leading coefficient 1 and
    kept once.  Empty below arity 3.
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
    phi = dict(zip(std, labels))  # order-preserving: the trees stay canonical
    return [OperadElement(labels, pres.gens, {_map_tree(t, phi): c for t, c in e.terms.items()}) for e in base]


def _span_standard(pres, n: int) -> list:
    labels = standard_labels(n)
    seen: dict[frozenset, OperadElement] = {}

    def emit(e: OperadElement) -> None:
        if e.is_zero():
            return
        lead_tree = min(e.terms, key=tree_sort_key)
        e = e.scaled(Fraction(1) / e.terms[lead_tree])
        seen.setdefault(frozenset(e.terms.items()), e)

    for e in grafted_relations(pres, labels, lambda block: enumerate_tree_monomials(pres.gens, block)):
        emit(e)

    for size_a in range(3, n):
        for sub_a in combinations(labels, size_a):
            rest = tuple(x for x in labels if x not in sub_a)
            span_a = grafted_ideal_span(pres, sub_a)
            monos_rest = enumerate_tree_monomials(pres.gens, rest)
            for g in sorted(pres.gens):
                top = OperadElement.generator(pres.gens, g, "s1", "s2")
                for r_a in span_a:
                    for m in monos_rest:
                        em = OperadElement(rest, pres.gens, {m: 1})
                        emit(substitute(top, {"s1": r_a, "s2": em}))

    return list(seen.values())


def grafted_dims(pres, n: int) -> dict:
    """The dims per bidegree of the quotient by the grafted span on {1..n}."""
    monomials, span = grafted_span(pres, n)
    basis, _ = quotient_basis(span, len(monomials))
    return dict(Counter(tree_bidegree(monomials[i], pres.gens) for i in basis))
