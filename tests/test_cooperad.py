import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

import cooperad_oracle as oracle
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
    AlgebraElement,
    ColorSpec,
    GraphPresentation,
    R_PRESENTATION,
    algebra_basis,
    enumerate_graph_monomials,
    monomial_bidegree,
    relation_instances,
)
from ramops.labels import HASH, STAR, ordered_splits, standard_labels

P = R_PRESENTATION


def el(labels, items, mode="forest"):
    return AlgebraElement.from_words(labels, P, items, mode)


def tkey(a=(), b=()):
    return (tuple(a), tuple(b))


def test_theta_worked_table():
    # the six products of one a and one b on three points, split {1} | {2,3}
    I, J = (1,), (2, 3)
    a_star = tkey(a=[(1, STAR)])
    b_star = tkey(b=[(1, STAR)])
    unit = tkey()
    cases = [
        ((("a", 1, 2), ("b", 2, 3)), {(a_star, tkey(b=[(2, 3)])): Fraction(1)}),
        ((("a", 2, 3), ("b", 3, 1)), {(b_star, tkey(a=[(2, 3)])): Fraction(-1)}),
        ((("a", 3, 1), ("b", 1, 2)), {}),
        ((("b", 1, 2), ("a", 2, 3)), {(b_star, tkey(a=[(2, 3)])): Fraction(1)}),
        ((("b", 2, 3), ("a", 3, 1)), {(a_star, tkey(b=[(2, 3)])): Fraction(-1)}),
        ((("b", 3, 1), ("a", 1, 2)), {}),
    ]
    for word, expected in cases:
        x = el((1, 2, 3), [(1, word)])
        assert theta(P, I, J, x).terms == expected, word


def test_theta_on_unit_and_single_edges():
    I, J = (1, 2), (3, 4)
    one = AlgebraElement.unit((1, 2, 3, 4), P)
    out = theta(P, I, J, one)
    assert out.terms == {(tkey(), tkey()): Fraction(1)}
    both_left = el((1, 2, 3, 4), [(1, (("a", 1, 2),))])
    assert theta(P, I, J, both_left).terms == {(tkey(a=[(1, 2)]), tkey()): Fraction(1)}
    both_right = el((1, 2, 3, 4), [(1, (("b", 3, 4),))])
    assert theta(P, I, J, both_right).terms == {(tkey(), tkey(b=[(3, 4)])): Fraction(1)}
    straddle = el((1, 2, 3, 4), [(1, (("a", 2, 3),))])
    assert theta(P, I, J, straddle).terms == {(tkey(a=[(2, STAR)]), tkey()): Fraction(1)}


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
    monos = enumerate_graph_monomials(P, labels, "forest")
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
    for m in enumerate_graph_monomials(P, labels, "forest"):
        x = AlgebraElement(labels, P, {m: Fraction(1)})
        h, w = monomial_bidegree(m, P)
        for (ml, mr), _ in theta(P, I, J, x).terms.items():
            hl, wl = monomial_bidegree(ml, P)
            hr, wr = monomial_bidegree(mr, P)
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
    assert c == 1 and pair == (tkey(a=[(1, "#")]), tkey())
    second = theta(P, I, (2, "#"), AlgebraElement((1, 2, "#"), P, {pair[0]: Fraction(1)}), place=STAR)
    ((pair2, c2),) = list(second.terms.items())
    assert c2 == 1 and pair2 == (tkey(a=[(1, STAR)]), tkey())


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
        elements = [union.monomial_element(m) for m in union.monomials]
        elements += [rel for _, rel in relation_instances(P, labels, "full")]
        _check_against_oracle(P, labels, place, elements)


# an even, symmetric colour under the three-term relation: theta does not
# kill this ideal, so a theta that reduced its input first would differ
EVEN_ARNOLD = GraphPresentation("even-arnold", (ColorSpec("w", (0, 1), 1),), ("arnold_sum",))


def test_theta_splits_its_input_unreduced():
    assert not all(v["pass"] for v in theta_relation_kill(EVEN_ARNOLD, (1,), (2, 3)))
    for labels, place in _label_variants(3):
        union = algebra_basis(EVEN_ARNOLD, labels, "forest")
        elements = [union.monomial_element(m) for m in union.monomials]
        _check_against_oracle(EVEN_ARNOLD, labels, place, elements)


def test_cocomposition_tables_are_kept_per_store(tmp_path):
    stores = [ComponentStore(str(tmp_path / name)) for name in ("first", "second")]
    x = el((1, 2, 3), [(1, (("a", 1, 2), ("b", 2, 3)))])
    images = [theta(P, (1,), (2, 3), x, STAR, store) for store in stores]
    assert images[0] == images[1] == oracle.theta(P, (1,), (2, 3), x)
    key = (P.hash, "IJJP")
    tables = [cooperad._TABLES[store][key] for store in stores]
    assert tables[0] is not tables[1]
    assert tables[0] == tables[1] and any(tables[0])
    first, second = (os.listdir(store.directory) for store in stores)
    assert first and sorted(second) == sorted(first)


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
    split = cooperad._split

    def flipped(pres, iset, jset, place, m):
        # the sign of every straddling edge entering I from J flipped
        out = split(pres, iset, jset, place, m)
        if out is None:
            return None
        entering = sum(1 for edges in m for u, v in edges if u in jset and v in iset)
        return (-out[0] if entering & 1 else out[0],) + out[1:]

    monkeypatch.setattr(cooperad, "_split", flipped)
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

