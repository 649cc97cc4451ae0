"""Every quotient span at n <= 4 against the reference constructions.

``rref`` must give the echelon of the insert-based oracle, and the pruned
relation products of ``graphalg._span_matrix`` the rows of the plain product
of every relation instance with every ambient monomial; at n = 5 its
bitmask products must give the rows of the tuple form's ``multiply``
(``monomial_oracle``) exactly, and at R forest n = 6 the rows recorded in
``tests/data/span_r6_forest.json``.
Both routes keep each row as formed, neither scaled nor deduplicated, as
the span hands it to ``rref``.
Every operad component is a rewriting, and must be a change of basis of the
quotient by the grafted relation span, at n <= 5 (``ram`` at n <= 4): the
Groebner rewriting of ``lie``, ``sgriess`` and ``liegriess`` and the
composites.
"""

import hashlib
import json
import os
from collections import Counter
from fractions import Fraction

import pytest
from echelon_oracle import oracle_reduce, oracle_rref
from enumeration_oracle import colored_masks
from monomial_oracle import multiply
from span_oracle import grafted_ideal_span, grafted_span, product_span_matrix, span_echelon, span_matrix

from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    MODES,
    R_PRESENTATION,
    GraphComponent,
    _span_matrix,
    enumerate_graph_monomials,
    monomials_of_masks,
    relation_instances,
)
from ramops.cache import ComponentStore
from ramops.labels import standard_labels
from ramops.linalg import SparseMatrix, bump, rank, rref
from ramops import graphalg, ideal_span, operad, ram
from ramops.operad import (
    GeneratorSpec,
    OperadElement,
    Presentation,
    _Groebner,
    _Rewriting,
    _rewrite_rules,
    component_basis,
    tree_bidegree,
)
from ramops.ram import PRESENTATION_NAMES, presentation

ARITIES = (1, 2, 3, 4)
GRAPH_PRESENTATIONS = {"R": R_PRESENTATION, "arnold": ARNOLD_PRESENTATION}


def unpruned_span_matrix(pres, labels, mode, monomials, families=None) -> SparseMatrix:
    """Every relation instance times every ambient monomial, each row as
    formed, all in the tuple form (``monomial_oracle``)."""
    index = {m: i for i, m in enumerate(monomials)}
    span = SparseMatrix(len(monomials))
    for _, rel in relation_instances(pres, labels, mode, families):
        terms = list(zip(monomials_of_masks(pres, labels, list(rel.terms)), rel.terms.values()))
        for mult in monomials:
            prod: dict = {}
            for k, c in terms:
                res = multiply(k, mult, pres, mode)
                if res is not None:
                    sign, key = res
                    bump(prod, key, c * sign)
            span.add_row({index[k]: c for k, c in prod.items()})
    return span


def assert_same_echelon(span: SparseMatrix) -> None:
    oracle, e = oracle_rref(span), rref(span)
    assert e.pivots == oracle.pivots
    assert e.rows == oracle.rows


@pytest.mark.parametrize("n", ARITIES)
@pytest.mark.parametrize("name", ["poisson", "bessel", "liegriess", "ram"])
def test_operad_span_echelon_matches_oracle(name, n):
    _, span = grafted_span(presentation(name), n)
    assert_same_echelon(span)


@pytest.mark.parametrize(
    "labels", [standard_labels(n) for n in ARITIES] + [(2, 5, 9), (1, "*", "#")], ids=repr
)
@pytest.mark.parametrize("name", PRESENTATION_NAMES)
def test_ideal_span_is_a_basis_of_the_grafted_span(name, labels):
    # the rewriting's rows e_m - nf(m) span what the grafted span does, and
    # no row depends on the others
    pres = presentation(name)
    _, rows = span_matrix(pres, labels, ideal_span)
    _, grafted = span_matrix(pres, labels, grafted_ideal_span)
    ech, oracle = rref(rows), rref(grafted)
    assert (ech.pivots, ech.rows) == (oracle.pivots, oracle.rows)
    assert len(rows.rows) == ech.rank


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
    pruned = _span_matrix(pres, labels, mode, colored_masks(labels, monomials))
    assert pruned.rows == unpruned_span_matrix(pres, labels, mode, monomials).rows


@pytest.mark.parametrize("mode", MODES)
def test_pruned_span_matches_unpruned_for_chosen_families(mode):
    labels = standard_labels(4)
    monomials = enumerate_graph_monomials(R_PRESENTATION, labels, mode)
    families = tuple(f for f in R_PRESENTATION.families if f not in ("bab_sum", "bbb_sum"))
    pruned = _span_matrix(R_PRESENTATION, labels, mode, colored_masks(labels, monomials), families)
    reference = unpruned_span_matrix(R_PRESENTATION, labels, mode, monomials, families)
    assert pruned.rows and pruned.rows == reference.rows


TWELVE_TERM_FREE = tuple(f for f in R_PRESENTATION.families if f not in ("bab_sum", "bbb_sum"))


@pytest.mark.parametrize(
    "name,mode,families",
    [("R", "forest", None), ("R", "forest", TWELVE_TERM_FREE), ("arnold", "forest", None), ("arnold", "full", None)],
)
def test_bitmask_span_matches_product_oracle_at_five(name, mode, families):
    pres = GRAPH_PRESENTATIONS[name]
    labels = standard_labels(5)
    monomials = enumerate_graph_monomials(pres, labels, mode)
    rows = _span_matrix(pres, labels, mode, colored_masks(labels, monomials), families).rows
    reference = product_span_matrix(pres, labels, mode, monomials, families).rows
    assert rows and rows == reference
    # the same entries in the same order, not only equal dicts
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in reference]


SPAN_R6 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "span_r6_forest.json")


def test_r6_forest_span_as_formed_matches_the_recorded_digest():
    # the rows and their order, recorded from a span that tried every
    # multiplier: each row's (column, numerator, denominator) triples in
    # entry order, one repr line per row
    with open(SPAN_R6, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert R_PRESENTATION.name == recorded["presentation"]
    _, span = GraphComponent.ambient_and_span(R_PRESENTATION, recorded["n"], recorded["mode"])
    digest = hashlib.sha256()
    for row in span.rows:
        digest.update(repr([(c, v.numerator, v.denominator) for c, v in row.items()]).encode() + b"\n")
    assert len(span.rows) == recorded["rows"]
    assert digest.hexdigest() == recorded["sha256"]


# Rows are compared as formed: a fault that flips every term of a row
# together, such as reversing the order that the sign counts or
# complementing the mask (relations are homogeneous), changes the row as
# formed though not the row space.  These two faults flip terms apart.
KOSZUL_MASK = graphalg._koszul_mask
KOSZUL_FAULTS = {
    "dropped": lambda odd_bits: 0,
    "first_letter_uncounted": lambda odd_bits: KOSZUL_MASK(odd_bits & (odd_bits - 1)),
}


@pytest.mark.parametrize("fault", sorted(KOSZUL_FAULTS))
@pytest.mark.parametrize("name,mode", [("R", "forest"), ("arnold", "forest"), ("arnold", "full")])
def test_bitmask_span_with_a_wrong_koszul_parity_differs_from_oracle(name, mode, fault, monkeypatch):
    pres = GRAPH_PRESENTATIONS[name]
    labels = standard_labels(4)
    monomials = enumerate_graph_monomials(pres, labels, mode)
    reference = product_span_matrix(pres, labels, mode, monomials).rows
    monkeypatch.setattr(graphalg, "_koszul_mask", KOSZUL_FAULTS[fault])
    assert _span_matrix(pres, labels, mode, colored_masks(labels, monomials)).rows != reference


@pytest.mark.parametrize("name", sorted(GRAPH_PRESENTATIONS))
@pytest.mark.parametrize("missing", ["relation_term", "top"])
def test_full_span_raises_on_a_product_missing_from_the_ambient(name, missing):
    # a term of a relation is its product with the unit; the complete
    # graph is a product of a relation with the edges it lacks
    pres = GRAPH_PRESENTATIONS[name]
    labels = standard_labels(3)
    masks = colored_masks(labels, enumerate_graph_monomials(pres, labels, "full"))
    if missing == "top":
        masks.pop()
    else:
        _, rel = relation_instances(pres, labels, "full")[0]
        masks.remove(next(iter(rel.terms)))
    with pytest.raises(ValueError, match="missing from the full ambient"):
        _span_matrix(pres, labels, "full", masks)


def certificate(name, n):
    """The three facts that make the composite's comb basis and expansions a
    change of basis of the quotient by the grafted span, each as a bool."""
    pres = presentation(name)
    monomials, ech = span_echelon(pres, n)
    comp = component_basis(pres, standard_labels(n), ComponentStore())
    index = {m: i for i, m in enumerate(monomials)}
    basis_positions = [index[b] for b in comp.basis]
    assert basis_positions == sorted(basis_positions)  # slots in enumeration order
    pivots = set(ech.pivots)
    oracle_dims = Counter(tree_bidegree(m, pres.gens) for i, m in enumerate(monomials) if i not in pivots)
    expansions_hold = True
    for i, m in enumerate(monomials):
        row = {i: Fraction(1)}
        for slot, c in comp.slot_expansion(m):
            bump(row, basis_positions[slot], -c)
        if oracle_reduce(ech, row):
            expansions_hold = False
            break
    basis_coords = SparseMatrix(len(monomials))
    for i in basis_positions:
        basis_coords.add_row(oracle_reduce(ech, {i: Fraction(1)}))
    return {
        "dims": comp.dims == oracle_dims,
        "expansions": expansions_hold,
        "rank": rank(basis_coords) == comp.dim,
    }


# ram at n = 5 takes about 14 s, too long for this suite
UP_TO_FIVE = ("com", "poisson", "bessel", "lie", "sgriess", "liegriess")
CERTIFICATE_CASES = [(name, n) for name in UP_TO_FIVE for n in (1, 2, 3, 4, 5)]
CERTIFICATE_CASES += [("ram", n) for n in (1, 2, 3, 4)]


# The two tests below kept their ids from when the rewriting wrote a payload
# and was compared byte for byte with the grafted span's; the span's RREF is
# still the oracle, now through the certificate.


@pytest.mark.parametrize("name,n", CERTIFICATE_CASES)
def test_rewriting_payload_matches_span_oracle(name, n):
    assert certificate(name, n) == {"dims": True, "expansions": True, "rank": True}


@pytest.mark.parametrize("name", ["bessel", "ram"])
def test_rewriting_without_koszul_signs_differs_from_oracle(name, monkeypatch):
    # G is odd: dropping the Koszul sign of reordering odd factors must show
    monkeypatch.setattr(_Rewriting, "koszul", lambda self, word: 1)
    assert not all(certificate(name, 4).values())


@pytest.mark.parametrize("name,leading", [("lie", {("L", "L")}), ("liegriess", {("L", "L"), ("G", "L")})])
def test_normal_trees_certify_a_quadratic_groebner_basis(name, leading):
    """The path-lexicographic order compares the words of generators on the
    root-to-leaf paths, leaf by leaf, longer words first, then
    lexicographically with generators ranked by bidegree, G > L.  Its leading
    terms are L(L(1,2),3) for Jacobi and G(L(1,2),3) for the mixed relation,
    and they form a quadratic Groebner basis exactly when the normal trees
    at arity 4 number the quotient by the grafted span in every bidegree
    (Dotsenko-Khoroshkin, Duke Math. J. 153, 2010; Hoffbeck, Manuscripta
    Math. 131, 2010)."""
    pres = presentation(name)
    rules = _rewrite_rules(pres)
    assert set(rules) == leading
    monomials, ech = span_echelon(pres, 4)
    pivots = set(ech.pivots)
    quotient_dims = Counter(tree_bidegree(m, pres.gens) for i, m in enumerate(monomials) if i not in pivots)
    trees = _Groebner(pres, standard_labels(4)).basis
    assert Counter(tree_bidegree(t, pres.gens) for t in trees) == quotient_dims


def test_rewriting_with_a_flipped_sign_differs_from_oracle(monkeypatch):
    # one term of the Jacobi rewrite with the wrong sign: the counts still
    # match, the expansions must not
    lie = presentation("lie")  # built, and its rules certified, before the fault
    flipped = _rewrite_rules(lie)
    (term, coeffs), *rest = flipped["L", "L"]
    flipped["L", "L"] = [(term, tuple(-c for c in coeffs))] + rest
    monkeypatch.setattr(lie, "rules", flipped)
    assert certificate("lie", 3) == {"dims": True, "expansions": False, "rank": True}


def test_rewriting_without_graft_signs_differs_from_oracle(monkeypatch):
    # G is odd: grafting odd trees into a rewritten relation must be signed
    lg = presentation("liegriess")  # built, and its rules certified, before the fault
    monkeypatch.setattr(operad, "_graft_signs", lambda term, gens: (1,) * 8)
    monkeypatch.setattr(lg, "rules", _rewrite_rules(lg))
    assert certificate("liegriess", 4) == {"dims": True, "expansions": False, "rank": True}


def test_certificate_rejects_unsigned_grafts(monkeypatch):
    # the arity-4 instances graft G(1, 2), of odd h, into both relations
    lg = presentation("liegriess")
    monkeypatch.setattr(operad, "_CERTIFIED", set())
    monkeypatch.setattr(operad, "_RULES", {})  # the rules are remembered by hash too
    monkeypatch.setattr(operad, "_graft_signs", lambda term, gens: (1,) * 8)
    with pytest.raises(ValueError, match="relation instance"):
        Presentation("liegriess", lg.generators, lg.relations)


def _counterexamples() -> dict:
    """Four presentations whose rules are no Groebner basis, as (generators,
    relations): each silently gave wrong dims before presentations were
    certified."""
    lie, lg = presentation("lie"), presentation("liegriess")
    (jacobi,) = lie.relations
    skewed = OperadElement(jacobi.labels, jacobi.gens, dict(jacobi.terms))
    skewed.terms["L", ("L", 1, 2), 3] *= 2
    odd = {"L": GeneratorSpec("L", (1, 1), -1)}
    lone = OperadElement.from_terms((1, 2, 3), lie.gens, [(("L", ("L", 1, 2), 3), 1)])
    jacobi_lg, mixed = lg.relations
    halved = {t: Fraction(c, 2) if t[0] == "L" else c for t, c in mixed.terms.items()}
    return {
        "lie_skewed": (lie.generators, [skewed]),
        "odd_jacobi": (tuple(odd.values()), [ram._jacobi(odd)]),
        "lone": (lie.generators, [lone]),
        "liegriess_halved": (lg.generators, [jacobi_lg, OperadElement(mixed.labels, mixed.gens, halved)]),
    }


def test_certificate_accepts_exactly_what_the_grafted_span_confirms(monkeypatch):
    """A presentation is accepted exactly when its basis counts (the normal
    trees, or a composite's combs) equal the dims of the quotient by the
    grafted span at n = 3 and 4."""
    cases = {name: (presentation(name).generators, presentation(name).relations) for name in PRESENTATION_NAMES}
    cases.update(_counterexamples())
    accepted = {}
    for name, (gens, relations) in cases.items():
        try:
            Presentation(name, gens, relations)
            accepted[name] = True
        except ValueError:
            accepted[name] = False
    assert accepted == {name: name in PRESENTATION_NAMES for name in cases}
    monkeypatch.setattr(operad, "_certify", lambda pres: None)
    agrees = {}
    for name, (gens, relations) in cases.items():
        pres = Presentation(name, gens, relations)
        counts = []
        for n in (3, 4):
            monomials, ech = span_echelon(pres, n)
            pivots = set(ech.pivots)
            quotient_dims = Counter(tree_bidegree(m, pres.gens) for i, m in enumerate(monomials) if i not in pivots)
            if pres.factor is None:
                trees = _Groebner(pres, standard_labels(n)).basis
                basis_dims = Counter(tree_bidegree(t, pres.gens) for t in trees)
            else:
                basis_dims = Counter(component_basis(pres, standard_labels(n), ComponentStore()).dims)
            counts.append(basis_dims == quotient_dims)
        agrees[name] = all(counts)
    assert agrees == accepted
