import os
import random

import pytest

import compat_oracle
import cooperad_oracle as oracle
from test_ram import _coproduct_tree_wrong_exponent

from ramops import clear_memos, cooperad, dual, ram
from ramops.cache import ComponentStore

from ramops.dual import (
    compat_checks,
    conjecture_verdict,
    dual_basis_element,
    dual_compose,
    rho,
)
from ramops.graphalg import (
    AlgebraElement,
    R_PRESENTATION,
    algebra_basis,
    monomial_bidegree,
    relabel_element,
)
from ramops.labels import HASH, STAR
from ramops.operad import OperadElement, compose, is_leaf, relabel
from ramops.ram import RAM_SIGNATURE, ResourceBoundError, presentation

P = R_PRESENTATION


def gen_el(name, a, b):
    return OperadElement.generator(RAM_SIGNATURE, name, a, b)


def alg_el(labels, items, mode="forest"):
    return AlgebraElement.from_words(labels, P, items, mode)


def test_dual_basis_elements():
    one = dual_basis_element((1, 2), "one")
    assert one.value_on(AlgebraElement.unit((1, 2), P)) == 1
    a = dual_basis_element((1, 2), "astar", 1, 2)
    assert a.value_on(alg_el((1, 2), [(1, (("a", 1, 2),))])) == 1
    assert a.value_on(alg_el((1, 2), [(1, (("b", 1, 2),))])) == 0
    b = dual_basis_element((1, 2), "bstar", 1, 2)
    assert b.value_on(alg_el((1, 2), [(1, (("b", 1, 2),))])) == 1
    # flipped indices flip the sign
    a_rev = dual_basis_element((1, 2), "astar", 2, 1)
    assert a_rev.value_on(alg_el((1, 2), [(1, (("a", 1, 2),))])) == -1


def test_dual_basis_errors():
    with pytest.raises(ValueError):
        dual_basis_element((1, 2), "astar", 1, 3)
    with pytest.raises(ValueError):
        dual_basis_element((1, 2), "astar", 1, 1)


def test_dual_compose_worked_values():
    # forms on the (1,2)-component of three points, split {1} | {2,3}
    f = dual_basis_element((1, STAR), "astar", 1, STAR)
    g = dual_basis_element((2, 3), "bstar", 2, 3)
    h = dual_compose(f, g, STAR)
    assert h.value_on(alg_el((1, 2, 3), [(1, (("a", 1, 2), ("b", 2, 3)))])) == 1
    assert h.value_on(alg_el((1, 2, 3), [(1, (("b", 2, 3), ("a", 3, 1)))])) == -1

    one_l = dual_basis_element((1, STAR), "one")
    one_r = dual_basis_element((2,), "one")
    composed = dual_compose(one_l, one_r, STAR)
    assert composed.value_on(AlgebraElement.unit((1, 2), P)) == 1


def test_rho_on_generators():
    assert rho(gen_el("E", 1, 2)).value_on(AlgebraElement.unit((1, 2), P)) == 1
    assert rho(gen_el("L", 1, 2)).value_on(alg_el((1, 2), [(1, (("a", 1, 2),))])) == 1
    assert rho(gen_el("G", 1, 2)).value_on(alg_el((1, 2), [(1, (("b", 1, 2),))])) == 1
    # antisymmetry through the map
    assert rho(gen_el("L", 2, 1)).value_on(alg_el((1, 2), [(1, (("a", 1, 2),))])) == -1


def test_rho_respects_bidegree():
    x = compose(gen_el("G", 1, STAR), gen_el("L", 2, 3))
    f = rho(x)
    assert f.bidegree == (1, 2)
    for slot, c in f.coords.items():
        m = f.component.basis[slot]
        assert monomial_bidegree(m, P) == (1, 2)


def test_rho_kills_the_mixed_relation():
    # the cyclic L/G sum maps to the zero form on the (1,2) component
    ram = presentation("ram")
    mixed = ram.relations[2]
    inst = relabel(mixed, {1: 1, 2: 2, 3: 3})
    assert rho(inst).is_zero()


def test_rho_kills_jacobi_and_rewrites():
    ram = presentation("ram")
    for rel in ram.relations:
        inst = relabel(rel, {1: 1, 2: 2, 3: 3})
        assert rho(inst).is_zero()


def test_rho_is_relabeling_equivariant():
    rng = random.Random(61)
    labels = (1, 2, 3)
    from ramops.operad import enumerate_tree_monomials

    monos = enumerate_tree_monomials(RAM_SIGNATURE, labels)
    comp = algebra_basis(P, labels, "forest")
    for _ in range(10):
        tree = rng.choice(monos)
        x = OperadElement.from_terms(labels, RAM_SIGNATURE, [(tree, 1)])
        phi = dict(zip(labels, rng.sample(labels, 3)))
        lhs = rho(relabel(x, phi))
        f = rho(x)
        for slot, m in enumerate(comp.basis):
            el = comp.monomial_element(m)
            moved = relabel_element(el, {v: k for k, v in phi.items()})
            assert lhs.value_on(el) == f.value_on(moved)


def test_dual_compose_operad_axioms():
    # sequential: (f o_* g) o_# h = f o_* (g o_# h)
    f = dual_basis_element((1, STAR), "astar", 1, STAR)
    g = dual_basis_element((2, HASH), "bstar", 2, HASH)
    h = dual_basis_element((3, 4), "astar", 3, 4)
    lhs = dual_compose(dual_compose(f, g, STAR), h, HASH)
    rhs = dual_compose(f, dual_compose(g, h, HASH), STAR)
    assert lhs == rhs

    # parallel: both slots inside f, Koszul sign h(g) h(h)
    f2_comp = algebra_basis(P, (1, STAR, HASH), "forest")
    f2 = dual_basis_element((1, STAR, HASH), "bstar", STAR, HASH)
    g2 = dual_basis_element((2,), "one")
    h2 = dual_basis_element((3,), "one")
    lhs2 = dual_compose(dual_compose(f2, g2, STAR), h2, HASH)
    rhs2 = dual_compose(dual_compose(f2, h2, HASH), g2, STAR)
    assert lhs2 == rhs2  # both graft forms are even here

    g3 = dual_basis_element((2, 3), "bstar", 2, 3)
    h3 = dual_basis_element((4, 5), "bstar", 4, 5)
    lhs3 = dual_compose(dual_compose(f2, g3, STAR), h3, HASH)
    rhs3 = dual_compose(dual_compose(f2, h3, HASH), g3, STAR)
    # two odd forms anticommute in parallel slots
    rhs3_coords = {k: -v for k, v in rhs3.coords.items()}
    assert lhs3.coords == rhs3_coords


def test_conjecture_verdict_small():
    for n in (1, 2, 3):
        rep = conjecture_verdict(n)
        assert rep["relation_kill"]
        assert rep["dims_equal"]
        assert rep["isomorphism"], rep
    blocks2 = conjecture_verdict(2)["blocks"]
    assert [(b["h"], b["w"], b["rank"]) for b in blocks2] == [
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ]


def test_conjecture_verdict_bound():
    with pytest.raises(ResourceBoundError):
        conjecture_verdict(5, max_n=4)


def test_compat_checks():
    for n in (2, 3):
        rep = compat_checks(n)
        assert rep["down_intertwining"]["pass"]
        assert rep["up_intertwining"]["pass"]
        assert rep["coalgebra_morphism"]["pass"], rep["coalgebra_morphism"]
    # discovered dualization signs are stable
    rep = compat_checks(3)
    assert rep["down_intertwining"]["global_sign"] == -1
    assert rep["up_intertwining"]["global_sign"] == 1


def _diff_tree_wrong_sign(t, mapping, gens):
    """ram._diff_tree with h of the generator left out of the sign of the
    terms from the right subtree."""
    if is_leaf(t):
        return [], 0
    g, l, r = t
    hg = gens[g].bidegree[0]
    terms = [((mapping[g], l, r), 1)] if g in mapping else []
    sub_l, hl = _diff_tree_wrong_sign(l, mapping, gens)
    terms += [((g, nt, r), -s if hg & 1 else s) for nt, s in sub_l]
    sub_r, hr = _diff_tree_wrong_sign(r, mapping, gens)
    terms += [((g, l, nt), -s if hl & 1 else s) for nt, s in sub_r]
    return terms, hg + hl + hr


@pytest.mark.parametrize(
    "fault, failing",
    (
        (None, set()),
        (("_coproduct_tree", _coproduct_tree_wrong_exponent), {"coalgebra_morphism"}),
        (("_diff_tree", _diff_tree_wrong_sign), {"down_intertwining"}),
    ),
    ids=("no-fault", "coproduct-exponent", "derivation-sign"),
)
def test_compat_checks_match_oracle(fault, failing, monkeypatch):
    if fault:
        monkeypatch.setattr(ram, *fault)
    store = ComponentStore()
    for n in (1, 2, 3):
        rep = compat_checks(n, store)
        assert rep == compat_oracle.compat_checks(n, store)
    assert {k for k, v in rep.items() if k != "n" and not v["pass"]} == failing


def test_generator_level_intertwining_identity():
    # <rho(up L), b> and <rho(L), down b> both equal one
    up_l = rho(compose_free_up(gen_el("L", 1, 2)))
    b_mono = alg_el((1, 2), [(1, (("b", 1, 2),))])
    assert up_l.value_on(b_mono) == 1
    from ramops.graphalg import differential_algebra

    a_img = differential_algebra(b_mono, "down")
    assert rho(gen_el("L", 1, 2)).value_on(a_img) == 1


def compose_free_up(x):
    from ramops.ram import differential

    return differential(x, "up")


def test_rho_rank_is_relabeling_independent():
    # the pairing matrix has the same bigraded ranks on any label set
    from ramops.linalg import SparseMatrix, rank
    from ramops.graphalg import monomial_bidegree as mb
    from ramops.operad import component_basis, tree_bidegree

    ram = presentation("ram")

    def block_ranks(labels):
        comp = component_basis(ram, labels)
        rcomp = algebra_basis(P, labels, "forest")
        by_deg = {}
        for t in comp.basis:
            by_deg.setdefault(tree_bidegree(t, ram.gens), []).append(t)
        slots = {}
        for s, m in enumerate(rcomp.basis):
            slots.setdefault(mb(m, P), []).append(s)
        out = {}
        for deg, trees in sorted(by_deg.items()):
            cols = {s: c for c, s in enumerate(slots.get(deg, []))}
            mat = SparseMatrix(len(cols))
            for t in trees:
                f = rho(OperadElement.from_terms(labels, RAM_SIGNATURE, [(t, 1)]))
                row = {cols[s]: v for s, v in f.coords.items() if s in cols}
                if row:
                    mat.add_row(row)
            out[deg] = rank(mat)
        return out

    assert block_ranks((1, 2, 3)) == block_ranks((4, 7, 9))
    clear_memos()


def test_rho_memo_is_kept_per_store(tmp_path):
    clear_memos()
    first, second = tmp_path / "first", tmp_path / "second"
    verdicts = [conjecture_verdict(3, ComponentStore(str(d))) for d in (first, second)]
    assert verdicts[0] == verdicts[1]
    assert len(os.listdir(first)) == 4
    assert sorted(os.listdir(second)) == sorted(os.listdir(first))


def test_dual_compose_matches_oracle_on_every_rho_composition(monkeypatch):
    from ramops.operad import enumerate_tree_monomials

    checked = []
    table_driven = dual.dual_compose

    def compare(f, g, place=STAR, store=None):
        out = table_driven(f, g, place, store)
        expected = oracle.dual_compose(f, g, place, store)
        assert out == expected and out.bidegree == expected.bidegree, (f, g, place)
        checked.append(out)
        return out

    monkeypatch.setattr(dual, "dual_compose", compare)
    clear_memos()
    store = ComponentStore()
    for n in (1, 2, 3, 4):
        for t in enumerate_tree_monomials(RAM_SIGNATURE, tuple(range(1, n + 1))):
            dual._rho_tree(t, store)
    assert len(checked) > 1000
    clear_memos()


def test_results_after_clear_memos_equal_results_before():
    store = ComponentStore()
    x = alg_el((1, 2, 3), [(1, (("a", 1, 2), ("b", 2, 3))), (2, (("b", 1, 3),))])

    def results():
        return (
            cooperad.theta(P, (1,), (2, 3), x, STAR, store),
            cooperad.theta(
                P, (1, HASH), (2,), alg_el((1, 2, HASH), [(1, (("a", 1, 2),))]), STAR, store
            ),
            rho(compose(gen_el("G", 1, STAR), gen_el("L", 2, 3)), store),
            conjecture_verdict(3, store),
        )

    before = results()
    clear_memos()
    for memo in (cooperad._TABLES, cooperad._SPLITS, dual._RHO_MEMO):
        assert len(memo) == 0
    assert results() == before
