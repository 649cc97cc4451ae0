import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

import cooperad_oracle as oracle
from enumeration_oracle import colored_masks
from monomial_oracle import mask_of
from ramops import cooperad
from ramops.cache import ComponentStore, default_store
from ramops.cooperad import (
    cooperad_axiom_check,
    tensor_normal_form,
    theta,
    theta_intertwines_differentials,
    theta_relation_kill,
)
from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    AlgebraElement,
    ColorSpec,
    GraphPresentation,
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    enumerate_colored_masks,
    enumerate_graph_monomials,
    monomial_bidegree,
    monomials_of_masks,
    relation_instances,
)
from ramops.labels import HASH, STAR, ordered_splits, standard_labels

P = R_PRESENTATION


def el(labels, items, mode="forest"):
    return AlgebraElement.from_words(labels, P, items, mode)


def tkey(labels, a=(), b=()):
    """The colored mask on the labels of the monomial with these a- and b-edges."""
    return mask_of(labels)((tuple(a), tuple(b)))


def test_theta_worked_table():
    # the six products of one a and one b on three points, split {1} | {2,3}
    I, J = (1,), (2, 3)
    a_star = tkey((1, STAR), a=[(1, STAR)])
    b_star = tkey((1, STAR), b=[(1, STAR)])
    cases = [
        ((("a", 1, 2), ("b", 2, 3)), {(a_star, tkey(J, b=[(2, 3)])): Fraction(1)}),
        ((("a", 2, 3), ("b", 3, 1)), {(b_star, tkey(J, a=[(2, 3)])): Fraction(-1)}),
        ((("a", 3, 1), ("b", 1, 2)), {}),
        ((("b", 1, 2), ("a", 2, 3)), {(b_star, tkey(J, a=[(2, 3)])): Fraction(1)}),
        ((("b", 2, 3), ("a", 3, 1)), {(a_star, tkey(J, b=[(2, 3)])): Fraction(-1)}),
        ((("b", 3, 1), ("a", 1, 2)), {}),
    ]
    for word, expected in cases:
        x = el((1, 2, 3), [(1, word)])
        assert theta(P, I, J, x).terms == expected, word


def test_theta_on_unit_and_single_edges():
    I, J = (1, 2), (3, 4)
    one = AlgebraElement.unit((1, 2, 3, 4), P)
    out = theta(P, I, J, one)
    assert out.terms == {(0, 0): Fraction(1)}  # the unit's mask is 0
    left = (1, 2, STAR)
    both_left = el((1, 2, 3, 4), [(1, (("a", 1, 2),))])
    assert theta(P, I, J, both_left).terms == {(tkey(left, a=[(1, 2)]), 0): Fraction(1)}
    both_right = el((1, 2, 3, 4), [(1, (("b", 3, 4),))])
    assert theta(P, I, J, both_right).terms == {(0, tkey(J, b=[(3, 4)])): Fraction(1)}
    straddle = el((1, 2, 3, 4), [(1, (("a", 2, 3),))])
    assert theta(P, I, J, straddle).terms == {(tkey(left, a=[(2, STAR)]), 0): Fraction(1)}


def test_theta_rejects_bad_splits():
    x = AlgebraElement.unit((1, 2, 3), P)
    with pytest.raises(ValueError):
        theta(P, (1, 2), (2, 3), x)
    with pytest.raises(ValueError):
        theta(P, (1,), (2,), x)


def test_theta_is_algebra_morphism():
    rng = random.Random(53)
    labels = standard_labels(4)
    I, J = (1, 3), (2, 4)
    monos = enumerate_colored_masks(P, 4, "forest")
    comp_left = algebra_basis(P, (1, 3, STAR), "forest")
    comp_right = algebra_basis(P, (2, 4), "forest")
    from ramops.graphalg import element_multiply

    for _ in range(40):
        x = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        y = AlgebraElement(labels, P, {rng.choice(monos): Fraction(1)})
        lhs = theta(P, I, J, element_multiply(x, y))
        raw = oracle.tensor_multiply(oracle.raw_theta(P, I, J, x), oracle.raw_theta(P, I, J, y))
        rhs = tensor_normal_form(raw, comp_left, comp_right)
        assert lhs.terms == rhs.terms


def test_theta_respects_bidegree():
    labels = standard_labels(4)
    I, J = (1, 2), (3, 4)
    for m in enumerate_colored_masks(P, 4, "forest"):
        x = AlgebraElement(labels, P, {m: Fraction(1)})
        h, w = monomial_bidegree(m, P, 4)
        for (ml, mr), _ in theta(P, I, J, x).terms.items():
            hl, wl = monomial_bidegree(ml, P, 3)  # on (1, 2, *)
            hr, wr = monomial_bidegree(mr, P, 2)
            assert (hl + hr, wl + wr) == (h, w)


def test_theta_kills_all_relations_small_splits():
    for labels, I, J in (
        ((1, 2, 3), (1,), (2, 3)),
        ((1, 2, 3), (1, 2), (3,)),
        ((1, 2, 3, 4), (1, 2), (3, 4)),
        ((1, 2, 3, 4), (1,), (2, 3, 4)),
        ((1, 2, 3, 4), (1, 2, 3), (4,)),
    ):
        for v in theta_relation_kill(P, I, J):
            assert v["pass"], v


def test_theta_kills_the_twelve_term_relation_split_two_two():
    # the worked case: both b-ends in I, the tail pair in J
    words = []
    from ramops.graphalg import relation_words

    for inst in relation_words(P, "bab_sum", (1, 2, 3, 4)):
        words.append(inst)
    x = el((1, 2, 3, 4), words[0], mode="full")
    out = theta(P, (1, 2), (3, 4), x)
    assert out.is_zero()


def test_cooperad_axioms_on_generator_case():
    # a generator with one end in I and one in K maps to a [i,*] (x) 1 (x) 1
    I, J, K = (1,), (2,), (3,)
    verdicts = cooperad_axiom_check(P, I, J, K)
    assert all(v["pass"] for v in verdicts)
    x = el((1, 2, 3), [(1, (("a", 1, 3),))])
    first = theta(P, (1, 2), K, x, place="#")
    ((pair, c),) = list(first.terms.items())
    assert c == 1 and pair == (tkey((1, 2, "#"), a=[(1, "#")]), 0)
    second = theta(P, I, (2, "#"), AlgebraElement((1, 2, "#"), P, {pair[0]: Fraction(1)}), place=STAR)
    ((pair2, c2),) = list(second.terms.items())
    assert c2 == 1 and pair2 == (tkey((1, STAR), a=[(1, STAR)]), 0)


def test_cooperad_axioms_all_splits_of_four():
    labels = standard_labels(4)
    splits = []
    for mask in range(3**4):
        blocks = ([], [], [])
        m = mask
        for item in labels:
            blocks[m % 3].append(item)
            m //= 3
        if all(blocks):
            splits.append(tuple(tuple(b) for b in blocks))
    rng = random.Random(9)
    for I, J, K in rng.sample(splits, 6):
        for v in cooperad_axiom_check(P, I, J, K):
            assert v["pass"], (I, J, K, v)


def test_theta_intertwines_both_differentials():
    for labels, I, J in (
        ((1, 2, 3), (1,), (2, 3)),
        ((1, 2, 3, 4), (1, 3), (2, 4)),
    ):
        for v in theta_intertwines_differentials(P, I, J):
            assert v["pass"], v


def _label_variants(n):
    """(labels, place) pairs: order-preserving images of {1..n}, some holding
    * or #, each with a fresh place-holder."""
    ints = standard_labels(n)
    yield ints, STAR
    yield (2, 5, 9, 11)[:n], HASH
    yield ints[:-1] + (HASH,), STAR  # the place-holder is not last on the left when # is in I
    yield ints[:-1] + (STAR,), HASH
    if n >= 2:
        yield ints[:-2] + (STAR, HASH), "p"


def _ordered_splits(labels):
    for k in range(1, len(labels)):
        for I in combinations(labels, k):
            yield I, tuple(a for a in labels if a not in I)


def _check_against_oracle(pres, labels, place, elements):
    store = default_store()
    for I, J in _ordered_splits(labels):
        for x in elements:
            expected = oracle.theta(pres, I, J, x, place, store)
            assert theta(pres, I, J, x, place, store) == expected, (labels, I, J, place, x)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_theta_matches_oracle_on_every_split(n):
    # rows computed on one label set are read on the others of the same pattern
    for labels, place in _label_variants(n):
        union = algebra_basis(P, labels, "forest")
        elements = [union.monomial_element(m) for m in union.masks]
        elements += [rel for _, rel in relation_instances(P, labels, "full")]
        _check_against_oracle(P, labels, place, elements)


# an even, symmetric colour under the three-term relation: theta does not
# kill this ideal, so a theta that reduced its input first would differ
EVEN_ARNOLD = GraphPresentation("even-arnold", (ColorSpec("w", (0, 1), 1),), ("arnold_sum",))


def test_theta_splits_its_input_unreduced():
    assert not all(v["pass"] for v in theta_relation_kill(EVEN_ARNOLD, (1,), (2, 3)))
    for labels, place in _label_variants(3):
        union = algebra_basis(EVEN_ARNOLD, labels, "forest")
        elements = [union.monomial_element(m) for m in union.masks]
        _check_against_oracle(EVEN_ARNOLD, labels, place, elements)


def _check_rows(pres, labels, place, full=False):
    """theta of every monomial along every ordered 2-split equals the raw
    split's, expanded on both factors, term for term and in order: on the
    forest ambient (read from the row cache), or on the full monomials
    outside it (split unstored)."""
    store = default_store()
    monomials = enumerate_colored_masks(pres, len(labels), "forest")
    if full:
        forests = set(monomials)
        monomials = [m for m in enumerate_colored_masks(pres, len(labels), "full") if m not in forests]
    x = AlgebraElement(labels, pres)
    for I, J in _ordered_splits(labels):
        cocomp = cooperad.cocomposition(pres, I, J, place, store)
        left, right = cocomp.left, cocomp.right
        for m in monomials:
            x.terms = {m: 1}
            raw = oracle.raw_theta(pres, I, J, x, place).terms.items()
            expected = [
                ((left.basis[ls], right.basis[rs]), c * cl * cr)
                for (ml, mr), c in raw
                for ls, cl in left.slot_expansion(ml)
                for rs, cr in right.slot_expansion(mr)
            ]
            image = theta(pres, I, J, x, place, store)
            assert list(image.terms.items()) == expected, (I, J, place, m)


@pytest.mark.parametrize("pres", (P, ARNOLD_PRESENTATION), ids=("R", "arnold"))
def test_split_table_rows_equal_the_raw_split(pres):
    for n in (2, 3, 4, 5):
        _check_rows(pres, standard_labels(n), STAR)
    for n in (2, 3, 4):
        _check_rows(pres, standard_labels(n), STAR, full=True)
        # 0 sorts before every label: the I end of a straddling edge then
        # sorts after the place-holder, and its sign flips once more
        _check_rows(pres, standard_labels(n), 0)


def test_split_table_rows_equal_the_raw_split_on_every_pattern():
    # * inside I, # as the place-holder: the patterns of cooperad_axiom_check
    for n in (2, 3, 4):
        for labels, place in _label_variants(n):
            _check_rows(P, labels, place)
            _check_rows(EVEN_ARNOLD, labels, place)
            _check_rows(EVEN_ARNOLD, labels, place, full=True)


def test_cocomposition_tables_are_kept_per_store(tmp_path):
    stores = [ComponentStore(str(tmp_path / name)) for name in ("first", "second")]
    x = el((1, 2, 3), [(1, (("a", 1, 2), ("b", 2, 3)))])
    images = [theta(P, (1,), (2, 3), x, STAR, store) for store in stores]
    assert images[0] == images[1] == oracle.theta(P, (1,), (2, 3), x)
    key = (P.hash, "IJJP")
    # a record is (split table, row cache, transpose): compare the row caches
    rows = [cooperad._TABLES[store][key][1] for store in stores]
    assert rows[0] is not rows[1]
    assert rows[0] == rows[1] and any(rows[0])
    first, second = (os.listdir(store.directory) for store in stores)
    assert first and sorted(second) == sorted(first)


def test_mask_index_and_d_tables_follow_the_ambient_mode():
    # the forest tables are asked for first: a table kept per size alone
    # would then serve the full component too
    store = ComponentStore()
    for n in (3, 4):
        labels = standard_labels(n)
        forest, full = (algebra_basis(P, labels, mode, store) for mode in ("forest", "full"))
        assert len(forest.masks) < len(full.masks)
        for comp in (forest, full):
            ambient = enumerate_graph_monomials(P, labels, comp.mode)
            assert comp.masks == colored_masks(labels, ambient)
            assert monomials_of_masks(P, labels, comp.masks) == ambient
            assert comp.index == {c: i for i, c in enumerate(comp.masks)} and len(comp.index) == len(ambient)
            for which in ("up", "down"):
                table = comp.differentials(which)
                assert len(table) == comp.dim
                for b, (positions, slots) in zip(comp.basis, table):
                    image = differential_algebra(comp.monomial_element(b), which)
                    assert positions == tuple((comp.masks.index(m), c) for m, c in image.terms.items())
                    assert dict(slots) == comp.coords(image)
            # a relabeled component shares the tables of {1..n}
            moved = algebra_basis(P, labels[:-1] + (STAR,), comp.mode, store)
            assert moved.masks is comp.masks and moved.index is comp.index
            assert moved.differentials("up") is comp.differentials("up")
        assert forest.index != full.index


def _verdict_pairs(store):
    """(slot-row verdicts, oracle verdicts) of every 2- and 3-split at n <= 4."""
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for I, J in ordered_splits(labels, 2):
            yield (
                theta_intertwines_differentials(P, I, J, store),
                oracle.theta_intertwines_differentials(P, I, J, store),
            )
        for I, J, K in ordered_splits(labels, 3):
            yield (
                cooperad_axiom_check(P, I, J, K, store),
                oracle.cooperad_axiom_check(P, I, J, K, store),
            )


def test_checks_match_oracle_on_every_split():
    pairs = list(_verdict_pairs(default_store()))
    assert len(pairs) == (2 + 6 + 14) + (6 + 36)
    for fast, slow in pairs:
        assert fast == slow
        assert all(v["pass"] for v in fast), fast


def test_axiom_check_matches_oracle_where_the_koszul_sign_matters():
    # the swapped equation's sign needs odd h on both the J and the K factor,
    # so |J|, |K| >= 2: arity 5
    for I, J, K in (((1,), (2, 3), (4, 5)), ((3,), (1, 4), (2, 5))):
        verdicts = cooperad_axiom_check(P, I, J, K)
        assert verdicts == oracle.cooperad_axiom_check(P, I, J, K)
        assert all(v["pass"] for v in verdicts), verdicts


def test_flipped_orientation_fails_alike_on_both_paths(monkeypatch):
    split_table = cooperad._split_table

    def flipped(pres, pattern):
        # the sign of every straddling letter entering I from J flipped
        union = [k for k, c in enumerate(pattern) if c != "P"]
        entering = [
            pattern[u] == "J" and pattern[v] == "I" for _ in pres.colors for u, v in combinations(union, 2)
        ]
        table = split_table(pres, pattern)
        return [entry[:3] + (entry[3] ^ e,) + entry[4:] for entry, e in zip(table, entering)]

    monkeypatch.setattr(cooperad, "_split_table", flipped)
    # a store of its own, so that no row computed under the fault outlives the test
    failed = []
    for fast, slow in _verdict_pairs(ComponentStore()):
        assert fast == slow
        failed += [v for v in fast if not v["pass"]]
    assert failed and all("witness" in v for v in failed)
    assert {v["check"] for v in failed} == {
        "cooperad_nested_coassociativity",
        "cooperad_swapped_coassociativity",
    }

