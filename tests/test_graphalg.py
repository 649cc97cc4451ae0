import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from enumeration_oracle import colored_masks, oracle_enumerate
import monomial_oracle
from monomial_oracle import mask_of

from ramops import graphalg
from ramops.cache import ComponentStore
from ramops.forms import eval_element, random_sample_point
from ramops.graphalg import (
    MODES,
    ARNOLD_PRESENTATION,
    AlgebraElement,
    ColorSpec,
    GraphComponent,
    GraphPresentation,
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    element_multiply,
    enumerate_colored_masks,
    enumerate_graph_monomials,
    ideal_rank_breakdown,
    monomial_bidegree,
    monomial_from_word,
    monomials_of_masks,
    multiply,
    path_permutation_sum,
    relabel_element,
    relation_instances,
    relation_words,
    _PATH_ORDERINGS,
)
from ramops.labels import standard_labels
from ramops.ram import ram_dims

P = R_PRESENTATION


def from_word(word, mode="forest", labels=(1, 2, 3)):
    return monomial_from_word(P, labels, word, mode)


def el(labels, items, mode="forest"):
    return AlgebraElement.from_words(labels, P, items, mode)


def key(a_edges=(), b_edges=()):
    """A monomial of R in the tuple form, per color its edges."""
    return (tuple(a_edges), tuple(b_edges))


def mask(a_edges=(), b_edges=(), labels=(1, 2, 3)):
    """The colored mask of ``key(a_edges, b_edges)`` on the labels."""
    return mask_of(labels)(key(a_edges, b_edges))


def test_multiply_vanishing_examples():
    a12 = mask(a_edges=[(1, 2)])
    b12 = mask(b_edges=[(1, 2)])
    assert multiply(a12, a12, P, 3) is None
    assert multiply(b12, b12, P, 3) is None
    assert multiply(a12, b12, P, 3) is None  # repeated pair across colors


def test_multiply_koszul_sign():
    b13 = mask(b_edges=[(1, 3)])
    b12 = mask(b_edges=[(1, 2)])
    assert multiply(b13, b12, P, 3) == (-1, mask(b_edges=[(1, 2), (1, 3)]))
    assert multiply(b12, b13, P, 3) == (1, mask(b_edges=[(1, 2), (1, 3)]))
    a12 = mask(a_edges=[(1, 2)])
    b23 = mask(b_edges=[(2, 3)])
    assert multiply(a12, b23, P, 3) == (1, mask(a_edges=[(1, 2)], b_edges=[(2, 3)]))
    assert multiply(b23, a12, P, 3) == (1, mask(a_edges=[(1, 2)], b_edges=[(2, 3)]))


def test_multiply_forest_vs_full():
    # the third triangle edge closes a cycle
    two = mask(a_edges=[(1, 2), (2, 3)])
    third = mask(a_edges=[(1, 3)])
    assert multiply(two, third, P, 3, "forest") is None
    assert multiply(two, third, P, 3, "full") == (1, mask(a_edges=[(1, 2), (1, 3), (2, 3)]))


def test_orientation_flip_absorbed_into_sign():
    assert from_word((("a", 2, 1),)) == (-1, mask(a_edges=[(1, 2)]))
    assert from_word((("b", 3, 1),)) == (-1, mask(b_edges=[(1, 3)]))
    # the Arnold color is orientation symmetric
    assert monomial_from_word(ARNOLD_PRESENTATION, (1, 2), (("w", 2, 1),)) == (1, mask_of((1, 2))((((1, 2),),)))


def test_enumerate_counts():
    assert enumerate_graph_monomials(P, (1, 2)) == [key(), key(a_edges=[(1, 2)]), key(b_edges=[(1, 2)])]
    full = enumerate_graph_monomials(P, (1, 2, 3), "full")
    forest = enumerate_graph_monomials(P, (1, 2, 3), "forest")
    assert sum(1 for m in colored_masks((1, 2, 3), forest) if monomial_bidegree(m, P, 3) == (1, 2)) == 6
    assert len(full) > len(forest)
    triangle = key(b_edges=[(1, 2), (1, 3), (2, 3)])
    assert triangle in full and triangle not in forest
    # simple count: forests on three vertices have at most two of three edges
    assert len(forest) == 1 + 3 * 2 + 3 * 4  # empty, one edge, two edges
    assert len(full) == len(forest) + 8  # plus the two-colored triangles


@pytest.mark.parametrize(
    "pres,mode,top",
    [(P, "forest", 5), (P, "full", 4), (ARNOLD_PRESENTATION, "forest", 5), (ARNOLD_PRESENTATION, "full", 5)],
)
def test_enumeration_matches_subset_filter_oracle(pres, mode, top):
    # forests grown edge by edge and sorted by reversed masks: the same
    # list, in the same order, as filtering every edge subset and sorting
    # by monomial_sort_key; a component's masks are those of {1..n}, on
    # any labels of the size
    for labels in [standard_labels(n) for n in range(1, top + 1)] + [(3, 7, "*", "x")]:
        reference = oracle_enumerate(pres, labels, mode)
        assert enumerate_graph_monomials(pres, labels, mode) == reference
        masks, _ = GraphComponent.ambient_and_span(pres, len(labels), mode)
        assert masks == colored_masks(labels, reference)


def test_forest_masks_at_six_match_subset_filter_oracle():
    labels = standard_labels(6)
    masks, _ = GraphComponent.ambient_and_span(P, 6, "forest")
    assert masks == colored_masks(labels, oracle_enumerate(P, labels, "forest"))


def test_presentation_colors_need_independent_bidegrees():
    # the enumeration's key is exact only when (h, w) fixes each color's
    # edge count
    for degrees in [((0, 0),), ((0, 1), (0, 2)), ((1, 1), (1, 1)), ((0, 1), (1, 1), (1, 0))]:
        colors = [ColorSpec(f"c{i}", d, -1) for i, d in enumerate(degrees)]
        with pytest.raises(ValueError, match="linearly independent"):
            GraphPresentation("dependent", colors, ())
    assert GraphPresentation("even", [ColorSpec("w", (0, 1), 1)], ()).colors


def test_algebra_basis_small_tables():
    c2 = algebra_basis(P, (1, 2), "forest")
    assert c2.dims == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    # on one pair, bit 0 is its a-letter and bit 1 its b-letter
    assert c2.basis == [0, 1, 2]
    assert c2.basis == [mask(labels=(1, 2)), mask([(1, 2)], labels=(1, 2)), mask(b_edges=[(1, 2)], labels=(1, 2))]
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
    assert d_a.terms == {mask(b_edges=[(1, 2)], labels=(1, 2)): Fraction(1)}
    b_down = differential_algebra(el((1, 2), [(1, (("b", 1, 2),))]), "down")
    assert b_down.terms == {mask(a_edges=[(1, 2)], labels=(1, 2)): Fraction(1)}
    # Leibniz with even letters: both terms positive
    x = el((1, 2, 3), [(1, (("a", 1, 2), ("a", 1, 3)))])
    dx = differential_algebra(x, "up")
    assert dx.terms == {
        mask([(1, 3)], [(1, 2)]): Fraction(1),
        mask([(1, 2)], [(1, 3)]): Fraction(1),
    }
    # Leibniz with odd letters: the second term passes one odd letter
    y = el((1, 2, 3), [(1, (("b", 1, 2), ("b", 1, 3)))])
    dy = differential_algebra(y, "down")
    assert dy.terms == {
        mask([(1, 2)], [(1, 3)]): Fraction(1),
        mask([(1, 3)], [(1, 2)]): Fraction(-1),
    }


def test_differentials_square_to_zero():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for m in enumerate_colored_masks(P, n, "forest"):
            x = AlgebraElement(labels, P, {m: Fraction(1)})
            assert differential_algebra(differential_algebra(x, "up"), "up").is_zero()
            assert differential_algebra(differential_algebra(x, "down"), "down").is_zero()


def test_laplacian_acts_by_weight():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for m in enumerate_colored_masks(P, n, "forest"):
            x = AlgebraElement(labels, P, {m: Fraction(1)})
            w = monomial_bidegree(m, P, n)[1]
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
    monos = enumerate_colored_masks(P, 4, "forest")
    for _ in range(60):
        x = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        y = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        z = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        assert element_multiply(element_multiply(x, y), z) == element_multiply(
            x, element_multiply(y, z)
        )
        hx = monomial_bidegree(next(iter(x.terms)), P, 4)[0]
        hy = monomial_bidegree(next(iter(y.terms)), P, 4)[0]
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


def test_ideal_rank_breakdown_reads_the_component(tmp_path, monkeypatch):
    # the rank with every family and the ambient come from the component
    # in the store, so nothing enumerates the ambient again
    store = ComponentStore(str(tmp_path))
    comp = algebra_basis(P, standard_labels(4), "full", store)

    def refuse(*args, **kwargs):
        raise AssertionError("the ambient was enumerated again")

    monkeypatch.setattr(graphalg, "enumerate_graph_monomials", refuse)
    monkeypatch.setattr(graphalg, "enumerate_colored_masks", refuse)
    rep = ideal_rank_breakdown(P, standard_labels(4), "full", store)
    assert rep["rank_all_families"] == comp.reducer.rank
    assert rep["ambient"] == len(comp.masks)


@pytest.mark.parametrize("family", ("bab_sum", "bbb_sum"))
def test_twelve_term_sum_is_one_instance_per_four_points(family):
    # the sum runs over every path ordering of the four points, so each
    # order of them gives the same element, and the same form
    labels = standard_labels(5)
    mid = "a" if family == "bab_sum" else "b"
    instances = relation_words(P, family, labels)
    assert len(instances) == 5
    point = random_sample_point(labels, random.Random(7))
    for inst, sub in zip(instances, combinations(labels, 4)):
        value = eval_element(inst, point)
        elements = {mode: AlgebraElement.from_words(labels, P, inst, mode) for mode in MODES}
        for order in permutations(sub):
            words = [
                (1, (("b", order[p], order[q]), (mid, order[q], order[r]), ("b", order[r], order[s])))
                for p, q, r, s in _PATH_ORDERINGS
            ]
            assert eval_element(words, point) == value
            for mode in MODES:
                assert AlgebraElement.from_words(labels, P, words, mode) == elements[mode]


@pytest.mark.parametrize("pres", (P, ARNOLD_PRESENTATION))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_mask_products_match_the_tuple_oracle(pres, n):
    # every pair of forest monomials, multiplied in both modes: the mask
    # product and its sign are those of the tuple form
    labels = standard_labels(n)
    masks = enumerate_colored_masks(pres, n, "forest")
    decoded = dict(zip(masks, monomials_of_masks(pres, labels, masks)))
    encode = mask_of(labels)
    for mode in MODES:
        for m1, k1 in decoded.items():
            for m2, k2 in decoded.items():
                expected = monomial_oracle.multiply(k1, k2, pres, mode)
                if expected is not None:
                    expected = (expected[0], encode(expected[1]))
                assert multiply(m1, m2, pres, n, mode) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_mask_differentials_match_the_tuple_oracle(mode, n):
    # both derivations on every monomial of the ambient, and the
    # component's tables of d on its basis read from them
    labels = standard_labels(n)
    masks = enumerate_colored_masks(P, n, mode)
    encode = mask_of(labels)
    for which in ("up", "down"):
        for m, k in zip(masks, monomials_of_masks(P, labels, masks)):
            expected = {encode(t): c for t, c in monomial_oracle.differential(k, P, which).items()}
            assert differential_algebra(AlgebraElement(labels, P, {m: 1}), which).terms == expected
        if n <= 4 or mode == "forest":
            comp = algebra_basis(P, labels, mode)
            for b, (positions, _) in zip(comp.basis, comp.differentials(which)):
                expected = monomial_oracle.differential(monomials_of_masks(P, labels, [b])[0], P, which)
                assert {comp.masks[i]: c for i, c in positions} == {encode(t): c for t, c in expected.items()}


def test_a_presentation_is_checked_when_made():
    colors = (ColorSpec("a", (0, 1), -1), ColorSpec("b", (1, 1), -1))
    with pytest.raises(ValueError, match="unknown relation families"):
        GraphPresentation("typo", colors, ("a_square", "aa_summ"))
    for orientation in (0, 2, -2):
        with pytest.raises(ValueError, match="orientation"):
            ColorSpec("a", (0, 1), orientation)
    # the check changes no presentation hash, so no cache key
    assert P.hash == "c55cd594ad1bd498" and ARNOLD_PRESENTATION.hash == "84fdb8c1ce467445"
    assert GraphPresentation("copy", colors, P.families).hash == P.hash


def test_a_family_needs_the_colors_its_words_use():
    w = (ColorSpec("w", (1, 1), 1),)
    with pytest.raises(ValueError, match=r"'a_square' uses colors \['a'\] that 'x' lacks"):
        GraphPresentation("x", w, ("a_square",))
    with pytest.raises(ValueError, match=r"'arnold_sum' uses colors \['w'\]"):
        GraphPresentation("y", P.colors, P.families + ("arnold_sum",))
    with pytest.raises(ValueError, match=r"'ab_sum' uses colors \['b'\]"):
        GraphPresentation("z", (ColorSpec("a", (0, 1), -1),), ("aa_sum", "ab_sum"))
    # the table names exactly the colors of the words each family spells out
    for pres in (P, ARNOLD_PRESENTATION):
        for family in pres.families:
            used = {c for inst in relation_words(pres, family, range(1, 5)) for _, word in inst for c, _, _ in word}
            assert used == set(graphalg.RELATION_FAMILIES[family].colors), family


@pytest.mark.parametrize(
    "families,name", ((["nope"], "nope"), ("aa_sum", "a"), (["arnold_sum"], "arnold_sum"), (["aa_sum", "nope"], "nope"))
)
def test_relation_instances_refuse_a_family_not_of_the_presentation(families, name):
    # an unknown name, a bare string read as its letters and another
    # presentation's family meet one error, before any table lookup
    with pytest.raises(ValueError, match=f"'{name}' is not a family of two-color-forests"):
        relation_instances(P, (1, 2, 3), "forest", families)
    with pytest.raises(ValueError, match=f"'{name}' is not a family of two-color-forests"):
        relation_words(P, name, (1, 2, 3))


# sha256 of the words of every family of R and Arnold on {1..n}, n = 2..6,
# and of the normalised instances in both modes on {1..n}, n = 1..5, as
# written by the if/elif chain that the family table replaced: they pin the
# order of the instances, of their terms and of the letters in each word
RELATION_WORDS_SHA256 = "cc437bd963fb5d47f2476c2b3733e4ce50d24f02a25788af902c525e83028498"
RELATION_INSTANCES_SHA256 = "59045af03281162936cf964c25bcdc43f1638b76c4944e47e99073950ff86cee"


def test_relation_words_and_instances_match_their_digests():
    words = [
        [pres.name, family, n, relation_words(pres, family, range(1, n + 1))]
        for pres in (P, ARNOLD_PRESENTATION)
        for n in range(2, 7)
        for family in pres.families
    ]
    assert hashlib.sha256(json.dumps(words).encode()).hexdigest() == RELATION_WORDS_SHA256
    instances = [
        [pres.name, mode, n, [[f, [[m, str(c)] for m, c in rel.sorted_terms()]] for f, rel in rels]]
        for pres in (P, ARNOLD_PRESENTATION)
        for mode in MODES
        for n in range(1, 6)
        for rels in [relation_instances(pres, standard_labels(n), mode)]
    ]
    assert hashlib.sha256(json.dumps(instances).encode()).hexdigest() == RELATION_INSTANCES_SHA256


@pytest.mark.parametrize("n", range(2, 7))
def test_cycle_families_vanish_among_the_forests(n):
    # the premise of skipping the families indexed by cycles in forest mode:
    # each of their words repeats a pair or closes a cycle
    labels = standard_labels(n)
    cyclic = [f for f in P.families if graphalg.RELATION_FAMILIES[f].size is None]
    assert cyclic == ["a_cycle", "b_cycle"]
    for family in cyclic:
        instances = relation_words(P, family, labels)
        assert instances
        for inst in instances:
            assert AlgebraElement.from_words(labels, P, inst, "forest").is_zero(), inst


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("pres", (P, ARNOLD_PRESENTATION))
def test_normalised_relation_instances_are_pairwise_distinct(pres, mode):
    # so that the instance list needs no dedupe
    for n in range(1, 7):
        normalised = [tuple(rel.sorted_terms()) for _, rel in relation_instances(pres, standard_labels(n), mode)]
        assert all(terms[0][1] == 1 for terms in normalised)
        assert len(set(normalised)) == len(normalised), (n, mode)


def test_an_unknown_mode_is_refused_everywhere():
    labels = (1, 2, 3)
    x = el(labels, [(1, (("a", 1, 2),))])
    calls = [
        lambda: relation_instances(P, labels, "xx"),
        lambda: AlgebraElement.from_words(labels, P, [(1, (("a", 1, 2),))], "xx"),
        lambda: AlgebraElement.from_words(labels, P, [], "xx"),
        lambda: monomial_from_word(P, labels, (("a", 1, 2),), "xx"),
        lambda: multiply(0, 1, P, 3, "xx"),
        lambda: element_multiply(x, x, "xx"),
        lambda: element_multiply(AlgebraElement(labels, P), x, "xx"),
        lambda: path_permutation_sum(P, labels, ("a", "b"), "xx"),
        lambda: algebra_basis(P, labels, "xx"),
        lambda: enumerate_colored_masks(P, 3, "xx"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown mode"):
            call()
    assert not [key for key in graphalg._INSTANCE_MEMO if key[2] == "xx"]


def test_an_unknown_color_is_refused():
    calls = [
        lambda: AlgebraElement.from_words((1, 2), P, [(1, [("c", 1, 2)])]),
        lambda: monomial_from_word(P, (1, 2), (("a", 1, 2), ("c", 1, 2)), "full"),
        lambda: monomial_from_word(ARNOLD_PRESENTATION, (1, 2), (("a", 1, 2),)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown color"):
            call()


def test_an_endpoint_outside_the_labels_is_refused():
    calls = [
        lambda: AlgebraElement.from_words((1, 2), P, [(1, [("a", 1, 3)])]),
        lambda: monomial_from_word(P, (1, 2), (("a", 1, 3),)),
        lambda: monomial_from_word(P, (1, 2, 3), (("a", 1, 2), ("b", 4, 3)), "full"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="edge endpoint .* outside the vertex set"):
            call()
