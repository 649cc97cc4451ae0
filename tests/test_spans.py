"""Every quotient span at n <= 4 against the reference constructions.

``rref`` must give the echelon of the insert-based oracle, and the pruned
relation products of ``graphalg._span_matrix`` the rows of the plain product
of every relation instance with every ambient monomial.  The rewriting route
of the presentations with a factor must give the payload of the grafted
relation span, at n <= 5 (``ram`` at n <= 4).
"""

import pytest
from echelon_oracle import oracle_rref
from span_oracle import payload, span_payload

from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    MODES,
    R_PRESENTATION,
    AlgebraElement,
    GraphComponent,
    _span_matrix,
    enumerate_graph_monomials,
    monomial_sort_key,
    multiply,
    relation_instances,
)
from ramops.labels import standard_labels
from ramops.linalg import SparseMatrix, rref
from ramops.operad import Component, _Rewriting
from ramops.ram import presentation

ARITIES = (1, 2, 3, 4)
GRAPH_PRESENTATIONS = {"R": R_PRESENTATION, "arnold": ARNOLD_PRESENTATION}


def unpruned_span_matrix(pres, labels, mode, monomials, families=None) -> SparseMatrix:
    """Every relation instance times every ambient monomial, normalised and deduplicated."""
    index = {m: i for i, m in enumerate(monomials)}
    span = SparseMatrix(len(monomials))
    seen_rows: set = set()
    for _, rel in relation_instances(pres, labels, mode, families):
        for mult in monomials:
            prod = AlgebraElement(rel.labels, pres)
            for k, c in rel.terms.items():
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


def assert_same_echelon(span: SparseMatrix) -> None:
    e, oracle = rref(span), oracle_rref(span)
    assert e.pivots == oracle.pivots
    assert e.rows == oracle.rows


@pytest.mark.parametrize("n", ARITIES)
@pytest.mark.parametrize("name", ["poisson", "bessel", "liegriess", "ram"])
def test_operad_span_echelon_matches_oracle(name, n):
    _, span = Component.ambient_and_span(presentation(name), n)
    assert_same_echelon(span)


@pytest.mark.parametrize("n", ARITIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(GRAPH_PRESENTATIONS))
def test_graph_span_echelon_matches_oracle(name, mode, n):
    _, span = GraphComponent.ambient_and_span(GRAPH_PRESENTATIONS[name], n, mode)
    assert_same_echelon(span)


@pytest.mark.parametrize("n", ARITIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(GRAPH_PRESENTATIONS))
def test_pruned_span_matches_unpruned(name, mode, n):
    pres = GRAPH_PRESENTATIONS[name]
    labels = standard_labels(n)
    monomials = enumerate_graph_monomials(pres, labels, mode)
    pruned = _span_matrix(pres, labels, mode, monomials)
    assert pruned.rows == unpruned_span_matrix(pres, labels, mode, monomials).rows


@pytest.mark.parametrize("mode", MODES)
def test_pruned_span_matches_unpruned_for_chosen_families(mode):
    labels = standard_labels(4)
    monomials = enumerate_graph_monomials(R_PRESENTATION, labels, mode)
    families = tuple(f for f in R_PRESENTATION.families if f not in ("bab_sum", "bbb_sum"))
    pruned = _span_matrix(R_PRESENTATION, labels, mode, monomials, families)
    reference = unpruned_span_matrix(R_PRESENTATION, labels, mode, monomials, families)
    assert pruned.rows and pruned.rows == reference.rows


def rewriting_payload(name, n):
    pres = presentation(name)
    return payload(pres, n, *Component.ambient_and_span(pres, n))


# ram at n = 5 takes 12 s (the grafted span alone 6 s), too long for this suite
ROUTE_CASES = [(name, n) for name in ("com", "poisson", "bessel") for n in (1, 2, 3, 4, 5)]
ROUTE_CASES += [("ram", n) for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("name,n", ROUTE_CASES)
def test_rewriting_payload_matches_span_oracle(name, n):
    assert rewriting_payload(name, n) == span_payload(presentation(name), n)


@pytest.mark.parametrize("name", ["bessel", "ram"])
def test_rewriting_without_koszul_signs_differs_from_oracle(name, monkeypatch):
    # G is odd: dropping the Koszul sign of reordering odd factors must show
    monkeypatch.setattr(_Rewriting, "koszul", lambda self, word: 1)
    assert rewriting_payload(name, 4) != span_payload(presentation(name), 4)
