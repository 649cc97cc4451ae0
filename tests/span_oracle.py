"""The product routes to the quotient spans, the oracles of the components.

``product_span_matrix`` is the relation span of a graph algebra as
``graphalg._span_matrix`` built it before monomials were bitmasks: every
product formed by the tuple form's ``multiply`` (``monomial_oracle``) and
summed term by term, each row kept as formed, as the span now keeps it.
The bitmask route must give its rows exactly.

The grafted-span route to an operad component is the oracle of the
composite components and of the relation-instance checks
(``operad._certify``, ``ram.distributive_check``).

Before operad components were rewritings, every one of them was built
from ``grafted_span``: each relation grafted into every monomial, and every
generator put on top of a lower-arity span element, brought to reduced
row-echelon form.  The composite Com o F must be a change of basis of that
quotient: same dims per bidegree, every ambient tree congruent to its
expansion on the combs, and the combs independent.
"""

from collections import Counter

from monomial_oracle import multiply

from ramops.graphalg import monomials_of_masks, relation_instances
from ramops.labels import standard_labels
from ramops.linalg import Echelon, SparseMatrix, bump, quotient_basis, rref
from ramops.operad import enumerate_tree_monomials, ideal_span, tree_bidegree


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
    """The ambient trees on {1..n} and the rows of ``ideal_span`` on them."""
    labels = standard_labels(n)
    monomials = enumerate_tree_monomials(pres.gens, labels)
    index = {m: i for i, m in enumerate(monomials)}
    span = SparseMatrix(len(monomials))
    for e in ideal_span(pres, labels):
        span.add_row({index[t]: c for t, c in e.terms.items()})
    return monomials, span


def grafted_dims(pres, n: int) -> dict:
    """The dims per bidegree of the quotient by the grafted span on {1..n}."""
    monomials, span = grafted_span(pres, n)
    basis, _ = quotient_basis(span, len(monomials))
    return dict(Counter(tree_bidegree(monomials[i], pres.gens) for i in basis))
