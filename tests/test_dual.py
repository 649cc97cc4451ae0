import os
import random
from itertools import combinations

import pytest

import compat_oracle
import conjecture_oracle
import ideal_oracle
import cooperad_oracle as oracle
from test_ram import _coproduct_sign_wrong_exponent

from ramops import clear_memos, cooperad, dual, graphalg, ram
from ramops.cache import ComponentStore

from ramops.dual import (
    LinearForm,
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
    relation_instances,
)
from ramops.labels import HASH, STAR
from ramops.operad import (
    OperadElement,
    compose,
    enumerate_tree_monomials,
    ideal_span,
    relabel,
    tree_str,
)
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


def _sum(*forms):
    total = LinearForm(forms[0].component)
    for form in forms:
        total.add_scaled(form, 1)
    return total


def test_dual_compose_is_linear_in_forms_of_mixed_degree():
    # a* has h = 0 and b* has h = 1: their sum has no degree, and each term
    # of a composite takes its sign from its own slots
    f = dual_basis_element((STAR, HASH), "bstar", STAR, HASH)
    a = dual_basis_element((1, 2), "astar", 1, 2)
    b = dual_basis_element((1, 2), "bstar", 1, 2)
    g = _sum(a, b)
    assert g.bidegree is None and a.bidegree == (0, 1) and b.bidegree == (1, 1)
    composite = dual_compose(f, g)
    assert composite == _sum(dual_compose(f, a), dual_compose(f, b))
    assert composite == oracle.dual_compose(f, g) and composite.bidegree is None
    assert sorted(composite.coords.values()) == [1, 1, 1]

    one = dual_basis_element((STAR, HASH), "one")
    mixed = _sum(one, f)
    assert dual_compose(mixed, g) == _sum(*(dual_compose(x, y) for x in (one, f) for y in (a, b)))


def test_dual_compose_reads_no_degree_off_a_form():
    # the same coordinates give the same composite, however the form was made
    f = dual_basis_element((STAR, HASH), "bstar", STAR, HASH)
    g = dual_basis_element((1, 2), "bstar", 1, 2)
    bare_f, bare_g = (LinearForm(x.component, x.coords) for x in (f, g))
    assert bare_g.bidegree == g.bidegree == (1, 1)
    assert dual_compose(bare_f, bare_g) == dual_compose(f, g) == oracle.dual_compose(f, g)
    assert dual_compose(f, g).bidegree == (2, 2)
    zero = LinearForm(f.component)
    assert zero.bidegree is None and dual_compose(zero, g).is_zero()


def test_dual_compose_matches_oracle_on_random_mixed_forms():
    rng = random.Random(19)
    store = ComponentStore()
    for left, right, place in (((1, STAR), (2, 3), STAR), ((1, 2, HASH), (3, 4), HASH), ((STAR, 3), (1, 2), STAR)):
        forms = []
        for labels in (left, right):
            comp = algebra_basis(P, labels, "forest", store)
            coords = {s: rng.choice((-2, -1, 1, 3)) for s in range(comp.dim) if rng.random() < 0.6}
            forms.append(LinearForm(comp, coords))
        f, g = forms
        out = dual_compose(f, g, place, store)
        assert out == oracle.dual_compose(f, g, place, store) and not out.is_zero()


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
        assert monomial_bidegree(m, P, 3) == (1, 2)


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


def _swap_odd_generator_duals(monkeypatch):
    monkeypatch.setitem(dual._GENERATOR_DUALS, "L", "bstar")
    monkeypatch.setitem(dual._GENERATOR_DUALS, "G", "astar")


def _flip_last_coordinate_at_hash(monkeypatch):
    table_driven = dual.dual_compose

    def flipped(f, g, place=STAR, store=None):
        out = table_driven(f, g, place, store)
        if place == HASH and out.coords:
            last = max(out.coords)
            out.coords[last] = -out.coords[last]
        return out

    monkeypatch.setattr(dual, "dual_compose", flipped)


@pytest.mark.parametrize(
    "fault",
    (None, _swap_odd_generator_duals, _flip_last_coordinate_at_hash),
    ids=("no-fault", "swapped-generator-duals", "sign-flip-at-hash"),
)
def test_relation_kill_matches_span_oracle(fault, monkeypatch):
    # a fresh store: an empty rho memo, so the fault reaches every form
    store = ComponentStore()
    if fault:
        fault(monkeypatch)
    for n in (1, 2, 3, 4) if fault is None else (3, 4):
        rep = conjecture_verdict(n, store)
        kills, _ = conjecture_oracle.relation_kill(n, store)
        assert rep["relation_kill"] is kills is (fault is None), n
        if fault:
            trees = enumerate_tree_monomials(RAM_SIGNATURE, tuple(range(1, n + 1)))
            assert rep["relation_kill_witness"]["tree"] in {tree_str(t) for t in trees}
        else:
            assert rep["relation_kill_witness"] is None


@pytest.mark.parametrize(
    "fault",
    (_swap_odd_generator_duals, _flip_last_coordinate_at_hash),
    ids=("swapped-generator-duals", "sign-flip-at-hash"),
)
def test_relation_kill_matches_the_ambient_rows(fault, monkeypatch):
    # the verdict reads the one-step rows; the oracle reads the row of every
    # ambient tree, at the same arities
    store = ComponentStore()
    fault(monkeypatch)
    pres = presentation("ram")
    for n in (3, 4):
        rep = conjecture_verdict(n, store)
        ambient = ideal_oracle.ambient_witness(pres, n, lambda t, c: rho(c.monomial_element(t), store).coords, store)
        assert rep["relation_kill"] is (ambient is None) is False, n


def test_dual_composition_never_fills_the_row_cache():
    store = ComponentStore()
    for k in range(1, 5):
        conjecture_verdict(k, store)
    records = cooperad._TABLES[store].values()
    assert records and all(by_left for _, _, by_left in records)
    assert all(row is None for _, rows, _ in records for row in rows)
    # the transpose is that of the row_at rows of the union's basis, entry
    # for entry, on every pattern of at most four labels: labels 2, 4, ...
    # and the place-holder in every gap
    fresh = ComponentStore()
    for size in range(1, 5):
        labels = tuple(range(2, 2 * size + 1, 2))
        for k in range(size):
            for I in combinations(labels, k):
                J = tuple(a for a in labels if a not in I)
                for place in range(1, 2 * size + 2, 2):
                    cocomp = cooperad.cocomposition(P, I, J, place, fresh)
                    by_left = cocomp.transposed()
                    assert all(row is None for row in cocomp.rows)
                    expected = [{} for _ in range(cocomp.left.dim)]
                    for x, pos in enumerate(cocomp.union.basis_positions):
                        for ls, rs, c in cocomp.row_at(pos):
                            expected[ls].setdefault(rs, []).append((x, c))
                    assert by_left == expected, (I, J, place)


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


def _derivation_signs_wrong(hg, hl):
    """ram._derivation_signs with h of the generator left out of the sign of
    the terms from the right subtree."""
    return (-1 if hg & 1 else 1), (-1 if hl & 1 else 1)


@pytest.mark.parametrize(
    "fault, failing",
    (
        (None, set()),
        (("_coproduct_sign", _coproduct_sign_wrong_exponent), {"coalgebra_morphism"}),
        # the fault signs the up-images of L under an odd G wrongly too: the
        # normal-tree basis of LieGriess holds G(1, L(2, 3)), so both fail
        (("_derivation_signs", _derivation_signs_wrong), {"down_intertwining", "up_intertwining"}),
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
            slots.setdefault(mb(m, P, len(labels)), []).append(s)
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
    # forest n = 1..3: operad components are rewritings, never stored
    assert len(os.listdir(first)) == 3
    assert sorted(os.listdir(second)) == sorted(os.listdir(first))


def test_conjecture_verdicts_do_not_depend_on_the_order_of_arities():
    # each arity's relation_kill witness is kept per store: ascending,
    # descending and one fresh store per arity give the same verdicts
    arities = (1, 2, 3, 4)
    clear_memos()
    store = ComponentStore()
    ascending = {n: conjecture_verdict(n, store) for n in arities}
    clear_memos()
    store = ComponentStore()
    descending = {n: conjecture_verdict(n, store) for n in reversed(arities)}
    clear_memos()
    fresh = {n: conjecture_verdict(n, ComponentStore()) for n in arities}
    assert ascending == descending == fresh
    assert all(v["relation_kill"] and v["isomorphism"] for v in fresh.values())
    clear_memos()


def test_kept_kill_witness_of_a_lower_arity_fails_the_higher(monkeypatch):
    # rho broken on one arity-3 one-step tree that is no basis tree: every
    # row at arity 4 vanishes, so the verdict at 4 fails on the kept
    # witness of arity 3, whichever arity is asked first
    bad = ("L", ("L", 1, 2), 3)
    kept = dual._rho_tree

    def broken(t, store, keep=True):
        form = kept(t, store, keep)
        if t == bad:
            form = LinearForm(form.component, form.coords)
            form.add_scaled(LinearForm(form.component, {0: 1}), 1)
        return form

    monkeypatch.setattr(dual, "_rho_tree", broken)
    for order in ((3, 4), (4, 3)):
        clear_memos()
        store = ComponentStore()
        verdicts = {n: conjecture_verdict(n, store) for n in order}
        assert [verdicts[n]["relation_kill_witness"] for n in (3, 4)] == [{"tree": tree_str(bad)}] * 2
    clear_memos()


def test_dual_compose_matches_oracle_on_every_rho_composition(monkeypatch):
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
    tops = {
        "E": dual_basis_element((STAR, HASH), "one", store=store),
        "L": dual_basis_element((STAR, HASH), "astar", STAR, HASH, store),
        "G": dual_basis_element((STAR, HASH), "bstar", STAR, HASH, store),
    }
    for n in (1, 2, 3, 4):
        for t in enumerate_tree_monomials(RAM_SIGNATURE, tuple(range(1, n + 1))):
            form = dual._rho_tree(t, store)
            if isinstance(t, tuple):
                # the form again from the generator and the children, with
                # no kept partial composite rho(g) o_* rho(l)
                g, l, r = t
                partial = compare(tops[g], dual._rho_tree(l, store), STAR, store)
                assert compare(partial, dual._rho_tree(r, store), HASH, store) == form, t
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
            ideal_span(presentation("ram"), (1, 2, 3)),
            relation_instances(P, (1, 2, 3), "forest"),
        )

    before = results()
    clear_memos()
    memos = (cooperad._TABLES, cooperad._SPLITS, dual._RHO_MEMO, dual._KILL_WITNESS, graphalg._INSTANCE_MEMO)
    for memo in memos:
        assert len(memo) == 0
    assert results() == before
