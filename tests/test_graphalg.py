import random
from fractions import Fraction

import pytest

from ramops import graphalg
from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    AlgebraElement,
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    element_multiply,
    enumerate_graph_monomials,
    ideal_rank_breakdown,
    monomial_bidegree,
    monomial_from_word,
    multiply,
    path_permutation_sum,
    relabel_element,
    relation_instances,
    relation_words,
)
from ramops.labels import standard_labels
from ramops.ram import ram_dims

P = R_PRESENTATION


def from_word(word, mode="forest"):
    return monomial_from_word(P, word, mode)


def el(labels, items, mode="forest"):
    return AlgebraElement.from_words(labels, P, items, mode)


def key(a_edges=(), b_edges=()):
    return (tuple(a_edges), tuple(b_edges))


def test_multiply_vanishing_examples():
    a12 = key(a_edges=[(1, 2)])
    b12 = key(b_edges=[(1, 2)])
    assert multiply(a12, a12, P) is None
    assert multiply(b12, b12, P) is None
    assert multiply(a12, b12, P) is None  # repeated pair across colors


def test_multiply_koszul_sign():
    b13 = key(b_edges=[(1, 3)])
    b12 = key(b_edges=[(1, 2)])
    assert multiply(b13, b12, P) == (-1, key(b_edges=[(1, 2), (1, 3)]))
    assert multiply(b12, b13, P) == (1, key(b_edges=[(1, 2), (1, 3)]))
    a12 = key(a_edges=[(1, 2)])
    b23 = key(b_edges=[(2, 3)])
    assert multiply(a12, b23, P) == (1, (((1, 2),), ((2, 3),)))
    assert multiply(b23, a12, P) == (1, (((1, 2),), ((2, 3),)))


def test_multiply_forest_vs_full():
    # the third triangle edge closes a cycle
    two = key(a_edges=[(1, 2), (2, 3)])
    third = key(a_edges=[(1, 3)])
    assert multiply(two, third, P, "forest") is None
    assert multiply(two, third, P, "full") == (1, key(a_edges=[(1, 2), (1, 3), (2, 3)]))


def test_orientation_flip_absorbed_into_sign():
    assert from_word((("a", 2, 1),)) == (-1, key(a_edges=[(1, 2)]))
    assert from_word((("b", 3, 1),)) == (-1, key(b_edges=[(1, 3)]))
    # the Arnold color is orientation symmetric
    assert monomial_from_word(ARNOLD_PRESENTATION, (("w", 2, 1),)) == (1, (((1, 2),),))


def test_enumerate_counts():
    assert enumerate_graph_monomials(P, (1, 2)) == [key(), key(a_edges=[(1, 2)]), key(b_edges=[(1, 2)])]
    full = enumerate_graph_monomials(P, (1, 2, 3), "full")
    forest = enumerate_graph_monomials(P, (1, 2, 3), "forest")
    assert sum(1 for m in forest if monomial_bidegree(m, P) == (1, 2)) == 6
    assert len(full) > len(forest)
    triangle = key(b_edges=[(1, 2), (1, 3), (2, 3)])
    assert triangle in full and triangle not in forest
    # simple count: forests on three vertices have at most two of three edges
    assert len(forest) == 1 + 3 * 2 + 3 * 4  # empty, one edge, two edges
    assert len(full) == len(forest) + 8  # plus the two-colored triangles


def test_algebra_basis_small_tables():
    c2 = algebra_basis(P, (1, 2), "forest")
    assert c2.dims == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert c2.basis == [key(), key(a_edges=[(1, 2)]), key(b_edges=[(1, 2)])]
    c3 = algebra_basis(P, (1, 2, 3), "forest")
    assert c3.dims == {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 1): 3, (1, 2): 5, (2, 2): 3}
    assert c3.dim == 17


def test_algebra_dims_match_operad_dims():
    for n in (1, 2, 3, 4):
        comp = algebra_basis(P, standard_labels(n), "forest")
        assert dict(comp.dims) == ram_dims(n)


def test_reduce_examples():
    c3 = algebra_basis(P, (1, 2, 3), "forest")
    cyc = el(
        (1, 2, 3),
        [
            (1, (("a", 1, 2), ("a", 2, 3))),
            (1, (("a", 2, 3), ("a", 3, 1))),
            (1, (("a", 3, 1), ("a", 1, 2))),
        ],
    )
    assert c3.coords(cyc) == {}
    for slot, b in enumerate(c3.basis):
        assert c3.coords(c3.monomial_element(b)) == {slot: Fraction(1)}


def test_permutation_sums_vanish_on_four_points():
    labels = standard_labels(4)
    comp = algebra_basis(P, labels, "forest")
    aab = path_permutation_sum(P, labels, ("a", "a", "b"))
    assert comp.coords(aab) == {}
    abb = path_permutation_sum(P, labels, ("a", "b", "b"))
    assert comp.coords(abb) == {}


def test_differential_examples():
    d_a = differential_algebra(el((1, 2), [(1, (("a", 1, 2),))]), "up")
    assert d_a.terms == {key(b_edges=[(1, 2)]): Fraction(1)}
    b_down = differential_algebra(el((1, 2), [(1, (("b", 1, 2),))]), "down")
    assert b_down.terms == {key(a_edges=[(1, 2)]): Fraction(1)}
    # Leibniz with even letters: both terms positive
    x = el((1, 2, 3), [(1, (("a", 1, 2), ("a", 1, 3)))])
    dx = differential_algebra(x, "up")
    assert dx.terms == {
        (((1, 3),), ((1, 2),)): Fraction(1),
        (((1, 2),), ((1, 3),)): Fraction(1),
    }
    # Leibniz with odd letters: the second term passes one odd letter
    y = el((1, 2, 3), [(1, (("b", 1, 2), ("b", 1, 3)))])
    dy = differential_algebra(y, "down")
    assert dy.terms == {
        (((1, 2),), ((1, 3),)): Fraction(1),
        (((1, 3),), ((1, 2),)): Fraction(-1),
    }


def test_differentials_square_to_zero():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for m in enumerate_graph_monomials(P, labels, "forest"):
            x = AlgebraElement(labels, P, {m: Fraction(1)})
            assert differential_algebra(differential_algebra(x, "up"), "up").is_zero()
            assert differential_algebra(differential_algebra(x, "down"), "down").is_zero()


def test_laplacian_acts_by_weight():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for m in enumerate_graph_monomials(P, labels, "forest"):
            x = AlgebraElement(labels, P, {m: Fraction(1)})
            w = monomial_bidegree(m, P)[1]
            anti = differential_algebra(
                differential_algebra(x, "up"), "down"
            ) + differential_algebra(differential_algebra(x, "down"), "up")
            assert anti == x.scaled(w)


def test_differentials_preserve_ideal_both_modes():
    for n in (3, 4):
        labels = standard_labels(n)
        for mode in ("forest", "full"):
            comp = algebra_basis(P, labels, mode)
            for family, rel in relation_instances(P, labels, mode):
                for which in ("up", "down"):
                    img = differential_algebra(rel, which)
                    assert comp.normal_form(img).is_zero(), (family, which, mode)


@pytest.mark.parametrize("families", (None, ["bab_sum", "ab_sum"]))
@pytest.mark.parametrize("mode", ("forest", "full"))
def test_relation_instances_memo(mode, families):
    labels = (1, 2, "*", "#")
    chosen = tuple(families) if families else P.families
    cold = graphalg._relation_instances(P, labels, mode, chosen)
    assert cold
    first = relation_instances(P, labels, mode, families)
    assert first == cold
    first.clear()
    again = relation_instances(P, labels, mode, families)
    assert again == cold and again is not first


def test_forest_dims_equal_full_dims():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        assert algebra_basis(P, labels, "forest").dims == algebra_basis(P, labels, "full").dims


def test_second_degree_bound():
    for n in (2, 3, 4, 5):
        comp = algebra_basis(P, standard_labels(n), "forest")
        assert max(w for (_, w) in comp.dims) <= n - 1


def test_arnold_fixture_hilbert_series():
    # the classical product formula, degree by degree
    def poincare(n):
        coeffs = {0: 1}
        for m in range(1, n):
            nxt = {}
            for e, c in coeffs.items():
                nxt[e] = nxt.get(e, 0) + c
                nxt[e + 1] = nxt.get(e + 1, 0) + c * m
            coeffs = nxt
        return coeffs

    for n in range(2, 6):
        comp = algebra_basis(ARNOLD_PRESENTATION, standard_labels(n), "forest")
        got = {w: d for (h, w), d in comp.dims.items()}
        assert got == poincare(n)
        if n <= 5:
            full = algebra_basis(ARNOLD_PRESENTATION, standard_labels(n), "full")
            assert full.dims == comp.dims


def test_arnold_three_points_explicit():
    comp = algebra_basis(ARNOLD_PRESENTATION, (1, 2, 3), "forest")
    assert comp.dims == {(0, 0): 1, (1, 1): 3, (2, 2): 2}


def test_multiplication_associative_and_koszul_commutative():
    rng = random.Random(41)
    labels = standard_labels(4)
    monos = enumerate_graph_monomials(P, labels, "forest")
    for _ in range(60):
        x = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        y = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        z = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        assert element_multiply(element_multiply(x, y), z) == element_multiply(
            x, element_multiply(y, z)
        )
        hx = monomial_bidegree(next(iter(x.terms)), P)[0]
        hy = monomial_bidegree(next(iter(y.terms)), P)[0]
        sign = -1 if (hx & 1) and (hy & 1) else 1
        assert element_multiply(x, y) == element_multiply(y, x).scaled(sign)


def test_unit_element():
    labels = (1, 2, 3)
    one = AlgebraElement.unit(labels, P)
    x = el(labels, [(1, (("a", 1, 2), ("b", 2, 3)))])
    assert element_multiply(one, x) == x
    assert element_multiply(x, one) == x


def test_relabel_element_transport():
    x = el((1, 2, 3), [(1, (("b", 1, 2), ("a", 2, 3)))])
    y = relabel_element(x, {1: 3, 2: 2, 3: 1})
    # b[3,2] a[2,1] = (-b[2,3]) (-a[1,2]) = a[1,2] b[2,3]
    assert y == el((1, 2, 3), [(1, (("a", 1, 2), ("b", 2, 3)))])


def test_relation_words_inventory():
    labels = standard_labels(4)
    fams = {f: relation_words(P, f, labels) for f in P.families}
    assert all(len(w[0][1]) == 2 for w in fams["a_square"])
    assert all(len(inst) == 3 for inst in fams["aa_sum"])
    assert all(len(inst) == 6 for inst in fams["ab_sum"])
    assert all(len(inst) == 12 for inst in fams["bab_sum"])
    assert all(len(inst) == 12 for inst in fams["bbb_sum"])
    # cycles of length two through four on four points
    lengths = {len(inst[0][1]) for inst in fams["b_cycle"]}
    assert lengths == {2, 3, 4}


def test_twelve_term_words_are_reversal_reduced():
    (inst,) = relation_words(P, "bbb_sum", (1, 2, 3, 4))[:1]
    paths = set()
    for _, word in inst:
        seq = (word[0][1], word[0][2], word[1][2], word[2][2])
        paths.add(seq)
        assert tuple(reversed(seq)) not in paths or seq == tuple(reversed(seq))
    assert len(paths) == 12


def test_vertex_guard():
    with pytest.raises(ValueError):
        el((1, 2), [(1, (("a", 1, 3),))])


def test_ideal_rank_breakdown_reports():
    rep = ideal_rank_breakdown(P, standard_labels(4), "forest")
    assert rep["ambient"] == 201
    assert rep["rank_all_families"] == 201 - 147
    assert rep["rank_without_12term"] <= rep["rank_all_families"]
