import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import derivation_oracle
import hopf_oracle as oracle
import ideal_oracle
from span_oracle import grafted_dims, grafted_ideal_span
from ramops import graphalg, operad, ram, suites
from ramops.cache import ComponentStore
from ramops.labels import HASH, STAR, standard_labels
from ramops.operad import (
    GeneratorSpec,
    OperadElement,
    Presentation,
    _Rewriting,
    associativity,
    canonicalize,
    component_basis,
    compose,
    enumerate_tree_monomials,
    leibniz,
    relabel,
    tree_bidegree,
    tree_str,
)
from ramops.ram import (
    E_SPEC,
    RAM_SIGNATURE,
    ResourceBoundError,
    coproduct,
    differential,
    distributive_check,
    hopf_check,
    operad_dims,
    presentation,
    ram_dims,
    tensor_normal_form,
)
from ramops.cli import main as cli_main
from ramops.graphalg import AlgebraElement, differential_algebra
from ramops.dual import conjecture_verdict
from ramops.ramanujan import predicted_dims, psi
from ramops.suites import run_suite, suite_differentials

GENS = RAM_SIGNATURE


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield [(first,)] + sub
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1 :]


def gen_el(name, a, b, gens=GENS):
    return OperadElement.generator(gens, name, a, b)


def test_presentation_inventory():
    ram = presentation("ram")
    assert len(ram.generators) == 3 and len(ram.relations) == 5
    sg = presentation("sgriess")
    assert len(sg.generators) == 1 and len(sg.relations) == 0
    poisson = presentation("poisson")
    assert len(poisson.generators) == 2 and len(poisson.relations) == 3
    bessel = presentation("bessel")
    assert len(bessel.generators) == 2 and len(bessel.relations) == 2
    with pytest.raises(ValueError):
        presentation("gerstenhaber")


def test_generator_bidegrees_and_symmetry():
    assert GENS["E"].bidegree == (0, 0) and GENS["E"].symmetry == 1
    assert GENS["L"].bidegree == (0, 1) and GENS["L"].symmetry == -1
    assert GENS["G"].bidegree == (1, 1) and GENS["G"].symmetry == -1


def test_ram_dims_small():
    assert ram_dims(1) == {(0, 0): 1}
    assert ram_dims(2) == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert ram_dims(3) == {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 1): 3, (1, 2): 5, (2, 2): 3}


def test_ram_dims_resource_bound():
    with pytest.raises(ResourceBoundError):
        ram_dims(5, max_arity=4)


def test_sgriess_is_free():
    # free on one binary generator: dim = number of binary trees
    assert component_basis(presentation("sgriess"), (1, 2)).dim == 1
    assert component_basis(presentation("sgriess"), (1, 2, 3)).dim == 3
    assert component_basis(presentation("sgriess"), (1, 2, 3, 4)).dim == 15


def test_lie_dims_are_factorials_shifted():
    # dim Lie(n) = (n-1)!
    for n, expected in ((2, 1), (3, 2), (4, 6)):
        assert component_basis(presentation("lie"), standard_labels(n)).dim == expected


def test_coproduct_on_generators():
    e = gen_el("E", 1, 2)
    assert coproduct(e).terms == {(("E", 1, 2), ("E", 1, 2)): Fraction(1)}
    l = gen_el("L", 1, 2)
    assert coproduct(l).terms == {
        (("E", 1, 2), ("L", 1, 2)): Fraction(1),
        (("L", 1, 2), ("E", 1, 2)): Fraction(1),
    }
    g = gen_el("G", 1, 2)
    assert coproduct(g).terms == {
        (("E", 1, 2), ("G", 1, 2)): Fraction(1),
        (("G", 1, 2), ("E", 1, 2)): Fraction(1),
    }


def test_coproduct_of_composite():
    # all first degrees vanish here, so the four terms carry plus signs
    x = compose(gen_el("L", 1, STAR), gen_el("L", 2, 3))
    delta = coproduct(x)
    E, L = "E", "L"
    expected = {
        ((E, 1, (E, 2, 3)), (L, 1, (L, 2, 3))): Fraction(1),
        ((E, 1, (L, 2, 3)), (L, 1, (E, 2, 3))): Fraction(1),
        ((L, 1, (E, 2, 3)), (E, 1, (L, 2, 3))): Fraction(1),
        ((L, 1, (L, 2, 3)), (E, 1, (E, 2, 3))): Fraction(1),
    }
    assert delta.terms == expected


def test_coproduct_with_component_reduces_factors():
    ram = presentation("ram")
    comp = component_basis(ram, (1, 2, 3))
    basis_set = set(comp.basis)
    x = compose(gen_el("L", 1, STAR), gen_el("L", 2, 3)) + compose(
        gen_el("L", 2, STAR), gen_el("L", 3, 1)
    )
    reduced = tensor_normal_form(coproduct(x), comp)
    assert reduced.terms  # not the zero element
    for t1, t2 in reduced.terms:
        assert t1 in basis_set and t2 in basis_set


def test_differential_bidegree_shifts():
    x = compose(gen_el("G", 1, STAR), gen_el("L", 2, 3))
    assert x.bidegree() == (1, 2)
    assert differential(x, "down").bidegree() == (0, 2)
    assert differential(x, "up").bidegree() == (2, 2)


def test_coproduct_commutes_with_relabeling():
    rng = random.Random(31)
    labels = (1, 2, 3)
    monos = enumerate_tree_monomials(GENS, labels)
    for _ in range(15):
        x = OperadElement.from_terms(labels, GENS, [(rng.choice(monos), 1)])
        phi = dict(zip(labels, rng.sample(labels, 3)))
        lhs = coproduct(relabel(x, phi))
        rhs_terms = {}
        for (t1, t2), c in coproduct(x).terms.items():
            r1 = relabel(OperadElement.from_terms(labels, GENS, [(t1, 1)]), phi)
            r2 = relabel(OperadElement.from_terms(labels, GENS, [(t2, 1)]), phi)
            ((u1, c1),) = list(r1.terms.items())
            ((u2, c2),) = list(r2.terms.items())
            key = (u1, u2)
            rhs_terms[key] = rhs_terms.get(key, Fraction(0)) + c * c1 * c2
        assert lhs.terms == {k: v for k, v in rhs_terms.items() if v}


def test_differential_on_generators():
    g = gen_el("G", 1, 2)
    assert differential(g, "down").terms == {("L", 1, 2): Fraction(1)}
    l = gen_el("L", 1, 2)
    assert differential(l, "up").terms == {("G", 1, 2): Fraction(1)}
    e = gen_el("E", 1, 2)
    assert differential(e, "down").is_zero() and differential(e, "up").is_zero()


def test_differential_leibniz_sign():
    # down(G o G) = L o G - G o L: the second replacement passes the odd root
    x = compose(gen_el("G", 1, STAR), gen_el("G", 2, 3))
    d = differential(x, "down")
    assert d.terms == {
        ("L", 1, ("G", 2, 3)): Fraction(1),
        ("G", 1, ("L", 2, 3)): Fraction(-1),
    }


def test_differentials_square_to_zero_up_to_arity_4():
    for n in (2, 3, 4):
        for m in enumerate_tree_monomials(GENS, standard_labels(n)):
            el = OperadElement.from_terms(standard_labels(n), GENS, [(m, 1)])
            assert differential(differential(el, "down"), "down").is_zero()
            assert differential(differential(el, "up"), "up").is_zero()


def test_differential_trees_are_canonical_as_made():
    # differential canonicalizes nothing: replacing one generator keeps the
    # child order of every vertex
    for n in (1, 2, 3, 4):
        for labels in (standard_labels(n), (2, 5, STAR, HASH)[-n:]):
            for m in enumerate_tree_monomials(GENS, labels):
                el = OperadElement(labels, GENS, {m: 1})
                for which in ("down", "up"):
                    for t in differential(el, which).terms:
                        assert canonicalize(t, GENS) == (1, t), (m, which)


def test_laplacian_acts_by_weight():
    for n in (2, 3, 4):
        labels = standard_labels(n)
        for m in enumerate_tree_monomials(GENS, labels):
            el = OperadElement.from_terms(labels, GENS, [(m, 1)])
            w = tree_bidegree(m, GENS)[1]
            anti = differential(differential(el, "up"), "down") + differential(
                differential(el, "down"), "up"
            )
            assert anti == el.scaled(w)


def test_differentials_preserve_ideal():
    ram = presentation("ram")
    for n in (3, 4):
        labels = standard_labels(n)
        comp = component_basis(ram, labels)
        for rel in grafted_ideal_span(ram, labels):
            assert comp.normal_form(differential(rel, "down")).is_zero()
            assert comp.normal_form(differential(rel, "up")).is_zero()


def test_hopf_check_small():
    for n in (2, 3):
        for verdict in hopf_check(n):
            assert verdict["pass"], verdict


def _assert_matches_oracle(verdicts, expected, n, kill_checks):
    """Whole verdicts for every check but the ideal checks ``kill_checks``,
    which read the one-step rows: there the oracle's grafted span and the
    rows must agree on pass or fail, and a failure names a tree of arity n
    (the oracle passes at every lower arity in these tests)."""
    assert [v["check"] for v in verdicts] == [v["check"] for v in expected]
    ambient = {tree_str(t) for t in enumerate_tree_monomials(GENS, standard_labels(n))}
    for got, want in zip(verdicts, expected):
        if got["check"] not in kill_checks:
            assert got == want
            continue
        assert got["pass"] == want["pass"] and got["params"] == want["params"], (got, want)
        if not got["pass"]:
            assert got["witness"].keys() == {"tree"} and got["witness"]["tree"] in ambient


def test_hopf_check_matches_oracle():
    for n in (1, 2, 3, 4):
        verdicts = hopf_check(n)
        _assert_matches_oracle(verdicts, oracle.hopf_check(n), n, ("coproduct_kills_ideal",))
        assert all(v["pass"] for v in verdicts), verdicts


def _coproduct_sign_wrong_exponent(hg2, hu1, hu2, hv1):
    """ram._coproduct_sign with the hg2 * hv1 term of the Koszul exponent dropped."""
    return -1 if (hg2 * hu1 + hu2 * hv1) & 1 else 1


HOPF_IDENTITIES = ["coproduct_coassociative", "coderivation_down", "coderivation_up"]


def test_wrong_coproduct_sign_fails_alike_on_both_paths(monkeypatch):
    # the free expansion and the basis-coordinate coproduct share the sign:
    # the identities fail on their premise at every arity, the ideal verdict
    # where the one-step rows first see the sign, and the engine fails every
    # verdict that the per-tree oracle fails
    monkeypatch.setattr(ram, "_coproduct_sign", _coproduct_sign_wrong_exponent)
    failed = {}
    for n in (2, 3, 4):
        verdicts, expected = hopf_check(n), oracle.hopf_check(n)
        failed[n] = [v["check"] for v in verdicts if not v["pass"]]
        assert set(failed[n]) >= {v["check"] for v in expected if not v["pass"]}, n
        _assert_matches_oracle(verdicts[:1], expected[:1], n, ("coproduct_kills_ideal",))
    assert failed == {2: HOPF_IDENTITIES, 3: HOPF_IDENTITIES, 4: ["coproduct_kills_ideal"] + HOPF_IDENTITIES}


def _diff_tree_unsigned_right(hg, hl):
    """ram._derivation_signs with the prefix sign of the right-subtree term
    dropped: the free derivation and d_B both read it."""
    return (-1 if hg & 1 else 1), 1


OPERAD_IDEAL_CHECKS = ("operad_down_preserves_ideal", "operad_up_preserves_ideal")


def _derivation_signs_left_unsigned(hg, hl):
    """ram._derivation_signs with the prefix sign of the left-subtree term
    dropped: no generator reads it, so only the sign-rule premise sees it."""
    return 1, (-1 if (hg + hl) & 1 else 1)


OPERAD_IDENTITIES = ["operad_down_squares_to_zero", "operad_up_squares_to_zero", "operad_laplacian_is_weight"]


@pytest.mark.parametrize(
    "rule, fault, parities, licensed",
    (
        ("_coproduct_sign", _coproduct_sign_wrong_exponent, [0, 1, 0, 0, 1, 0], HOPF_IDENTITIES),
        ("_derivation_signs", _diff_tree_unsigned_right, [0, 1], HOPF_IDENTITIES[1:] + OPERAD_IDENTITIES),
        ("_derivation_signs", _derivation_signs_left_unsigned, [1, 0], HOPF_IDENTITIES[1:] + OPERAD_IDENTITIES),
    ),
    ids=("coproduct-exponent", "unsigned-right-differential", "unsigned-left-differential"),
)
def test_a_wrong_sign_rule_fails_every_identity_it_licenses(rule, fault, parities, licensed, monkeypatch):
    # the rule's witness names it and its first parities off the Koszul
    # sign; every identity verdict resting on it fails with that witness at
    # every arity, and every other identity verdict passes
    monkeypatch.setattr(ram, rule, fault)
    witness = {"sign_rule": rule, "parities": parities}
    assert ram.sign_rule_witness(rule) == witness
    assert all(ram.sign_rule_witness(r) is None for r in ("_coproduct_sign", "_derivation_signs") if r != rule)
    store = ComponentStore()
    verdicts = suites.suite_hopf(4, store) + suite_differentials(4, store)
    at = {}
    for v in verdicts:
        if v["check"] in HOPF_IDENTITIES + OPERAD_IDENTITIES:
            assert v["pass"] is (v["check"] not in licensed), v
            assert v["pass"] or v["witness"] == witness, v
            at.setdefault(v["check"], []).append(v["params"]["n"])
    assert at == {name: [2, 3, 4] for name in HOPF_IDENTITIES + OPERAD_IDENTITIES}


def test_identity_verdicts_expand_no_tree_past_arity_2(monkeypatch):
    # the identities are decided on E, L and G: neither suite takes the
    # free coproduct or a free differential of a tree on more labels
    arities = Counter()
    for name in ("_coproduct_tree", "_diff_tree"):

        def counted(t, *args, name=name, step=getattr(ram, name)):
            arities[name, len(list(operad.tree_leaves(t)))] += 1
            return step(t, *args)

        monkeypatch.setattr(ram, name, counted)
    store = ComponentStore()
    verdicts = suites.suite_hopf(4, store) + suite_differentials(4, store)
    assert all(v["pass"] for v in verdicts)
    assert {name for name, _ in arities} == {"_coproduct_tree", "_diff_tree"}
    assert max(k for _, k in arities) == 2, sorted(arities)


@pytest.mark.parametrize("fault", (None, _diff_tree_unsigned_right))
def test_preserves_ideal_matches_span_oracle(fault, monkeypatch):
    if fault is not None:
        monkeypatch.setattr(ram, "_derivation_signs", fault)
    suite = [v for v in suite_differentials(4) if v["check"] in OPERAD_IDEAL_CHECKS]
    failed = {}
    for n in (3, 4):
        verdicts = [v for v in suite if v["params"] == {"n": n}]
        _assert_matches_oracle(verdicts, oracle.differentials_preserve_ideal(n), n, OPERAD_IDEAL_CHECKS)
        failed[n] = [v["check"] for v in verdicts if not v["pass"]]
    if fault is None:
        assert failed == {3: [], 4: []}
    else:
        assert failed == {3: ["operad_up_preserves_ideal"], 4: list(OPERAD_IDEAL_CHECKS)}


def test_basis_images_equal_the_normalised_free_images():
    # Delta_B and d_B against (nf (x) nf) Delta and nf d of the free images,
    # term for term, on every basis and one-step tree
    pres, store = presentation("ram"), ComponentStore()
    for n in range(2, 6):
        comp = component_basis(pres, standard_labels(n), store)
        images = ram.BasisImages(comp)
        one_step = set(operad._candidates(pres.gens, comp.labels, comp.rewriting.normal_trees.__getitem__))
        assert one_step >= set(comp.basis)  # every basis tree is a one-step tree
        for t in one_step:
            delta = {(comp.basis[a], comp.basis[b]): c for (a, b), c in images.coproduct(t).items()}
            assert delta == oracle.coproduct_nf(t, comp), t
            for which in ("down", "up"):
                d = images.differential(t, which)
                assert d == comp.coords(differential(comp.monomial_element(t), which)), (t, which)


def _walk_the_one_steps(name, store):
    """One-step walks at arity 4 on the store, each of which must pass: of nf
    itself, formed from the children's normal forms, and on ``ram`` of d_B
    for both differentials and hopf_check's of Delta_B."""
    pres = presentation(name)

    def nf(t, comp):
        rw = comp.rewriting
        return dict(rw._product(t[0], rw.normal_form(t[1]), rw.normal_form(t[2])))

    assert operad.one_step_witness(pres, 4, nf, store) is None
    if name == "ram":
        images = {}
        for which in ("down", "up"):
            image = lambda t, c: ram.basis_images(images, c).differential(t, which)
            assert operad.one_step_witness(pres, 4, image, store) is None
        assert all(v["pass"] for v in hopf_check(4, store))


@pytest.mark.parametrize("name", ("liegriess", "ram"))
def test_each_one_step_is_taken_once_per_rewriting(name, monkeypatch):
    # a rewriting keeps nf(g(a, b)) in one memo, which the walks, Delta_B,
    # d_B and the composite's brackets all read: no rewriting, composite or
    # factor, steps a triple (g, i, j) twice
    steps = Counter()
    for cls in (operad._Groebner, _Rewriting):

        def counted(self, g, i, j, step=cls._step):
            steps[self, g, i, j] += 1
            return step(self, g, i, j)

        monkeypatch.setattr(cls, "_step", counted)
    _walk_the_one_steps(name, ComponentStore())
    assert steps and max(steps.values()) == 1


@pytest.mark.parametrize("name", ("liegriess", "ram"))
def test_the_one_step_walks_keep_no_one_step_tree(name):
    # a candidate's normal form is formed from its children's through the
    # memo of one steps, so of the trees on all four labels the rewriting's
    # memo of normal forms keeps basis trees at most
    store = ComponentStore()
    _walk_the_one_steps(name, store)
    comp = component_basis(presentation(name), standard_labels(4), store)
    kept = {t for t in comp.rewriting._forms if len(list(operad.tree_leaves(t))) == 4}
    assert kept <= set(comp.basis)


def _algebra_differential_unsigned(x, which):
    """graphalg.differential_algebra with the sign of each moved letter dropped."""
    out = AlgebraElement(x.labels, x.pres)
    for m, c in x.terms.items():
        for m2, s in differential_algebra(AlgebraElement(x.labels, x.pres, {m: 1}), which).terms.items():
            out._add_term(m2, c * abs(s))
    return out


IDENTITY_CHECKS = tuple(
    f"{side}_{name}"
    for side in ("operad", "algebra")
    for name in ("down_squares_to_zero", "up_squares_to_zero", "laplacian_is_weight")
)


@pytest.mark.parametrize("fault", (None, "operad-unsigned-right", "algebra-unsigned"))
def test_derivation_identities_fail_alike_on_the_basis_and_every_monomial(fault, monkeypatch):
    if fault == "operad-unsigned-right":
        monkeypatch.setattr(ram, "_derivation_signs", _diff_tree_unsigned_right)
    elif fault == "algebra-unsigned":
        monkeypatch.setattr(graphalg, "differential_algebra", _algebra_differential_unsigned)
        monkeypatch.setattr(suites, "differential_algebra", _algebra_differential_unsigned)
    store = ComponentStore()
    verdicts = suite_differentials(4, store)
    failed = {}
    for n in (3, 4):
        at_n = [v for v in verdicts if v["check"] in IDENTITY_CHECKS and v["params"]["n"] == n]
        got = {v["check"] for v in at_n if not v["pass"]}
        assert got == derivation_oracle.failing_identities(n, store), n
        failed[n] = got
    side = {None: None, "operad-unsigned-right": "operad", "algebra-unsigned": "algebra"}[fault]
    assert all(name.startswith(f"{side}_") for names in failed.values() for name in names)
    assert all(failed.values()) is (fault is not None)


def _ideal_maps():
    """The map of each operad ideal verdict on a tree t of the component c,
    followed by the normal form of its target."""

    def d(which):
        return lambda t, c: c.coords(differential(c.monomial_element(t), which))

    return {
        "coproduct_kills_ideal": lambda t, c: tensor_normal_form(coproduct(c.monomial_element(t)), c).terms,
        "operad_down_preserves_ideal": d("down"),
        "operad_up_preserves_ideal": d("up"),
    }


@pytest.mark.parametrize(
    "fault, checks, arities",
    (
        (("_coproduct_sign", _coproduct_sign_wrong_exponent), ("coproduct_kills_ideal",), (3, 4, 5)),
        (("_derivation_signs", _diff_tree_unsigned_right), OPERAD_IDEAL_CHECKS, (3, 4)),
    ),
    ids=("coproduct-exponent", "unsigned-right-differential"),
)
def test_one_step_verdicts_match_the_ambient_rows(fault, checks, arities, monkeypatch):
    # the verdicts read the one-step rows; the oracle reads the row of every
    # ambient tree, at the same arities
    monkeypatch.setattr(ram, *fault)
    pres, store, maps = presentation("ram"), ComponentStore(), _ideal_maps()
    outcomes = {}
    for n in arities:
        verdicts = hopf_check(n, store) if "coproduct_kills_ideal" in checks else suite_differentials(n, store)
        for v in verdicts:
            if v["check"] in checks and v["params"] == {"n": n}:
                ambient = ideal_oracle.ambient_witness(pres, n, maps[v["check"]], store)
                assert v["pass"] is (ambient is None), (v, ambient)
                outcomes[v["check"], n] = v["pass"]
    assert len(outcomes) == len(checks) * len(arities) and not all(outcomes.values())


def test_a_map_failing_only_at_arity_3_fails_the_verdict_at_arity_4():
    # nf kills the ideal; this map is nf but on one arity-3 one-step tree,
    # so every row at arity 4 vanishes, and the verdict at 4 must still fail
    pres, store = presentation("ram"), ComponentStore()
    bad = ("L", ("L", 1, 2), 3)
    assert bad not in component_basis(pres, standard_labels(3), store).basis

    def image(t, c):
        coords = dict(c.slot_expansion(t))
        if t == bad:
            coords[0] = coords.get(0, 0) + 1
        return coords

    for witness in (operad.one_step_witness, ideal_oracle.ambient_witness):
        assert witness(pres, 4, lambda t, c: dict(c.slot_expansion(t)), store) is None
        assert witness(pres, 3, image, store) == bad
        assert witness(pres, 4, image, store) == bad


def test_ideal_verdicts_read_no_grafted_span(tmp_path, monkeypatch):
    store = ComponentStore(str(tmp_path))

    def no_span(pres, labels):
        raise AssertionError(f"ideal span on {labels}")

    monkeypatch.setattr(operad, "ideal_span", no_span)
    verdicts, _ = run_suite("all", 4, store)
    assert len(verdicts) == 809 and all(v["pass"] for v in verdicts)
    assert conjecture_verdict(4, store)["isomorphism"]


def test_coproduct_kills_mixed_relation_instance():
    ram = presentation("ram")
    comp = component_basis(ram, (1, 2, 3))
    mixed = ram.relations[2]  # the cyclic L/G sum
    inst = relabel(mixed, {1: 1, 2: 2, 3: 3})
    assert tensor_normal_form(coproduct(inst), comp).is_zero()


def test_distributive_check_examples():
    r1 = distributive_check(1)
    assert r1["pass"] and sum(r1["composite"].values()) == 1
    r2 = distributive_check(2)
    assert r2["pass"] and sum(r2["composite"].values()) == 3
    r3 = distributive_check(3)
    assert r3["pass"] and sum(r3["composite"].values()) == 17
    assert r3["liegriess_dims"][3] == 10 and r3["witness"] is None


def test_distributive_check_counts_the_listed_liegriess_dims():
    lg = presentation("liegriess")
    listed = {k: component_basis(lg, standard_labels(k), ComponentStore()).dim for k in range(1, 6)}
    assert distributive_check(5)["liegriess_dims"] == listed == {1: 1, 2: 2, 3: 10, 4: 82, 5: 938}


def _jacobi_alone(monkeypatch):
    """Give ram the factor LieGriess without its mixed relation."""
    ram_pres = presentation("ram")
    lg = ram_pres.factor
    monkeypatch.setattr(ram_pres, "factor", Presentation("lg-jacobi", lg.generators, lg.relations[:1]))
    return lg.relations[1]


def test_distributive_check_agrees_with_the_grafted_span(monkeypatch):
    # the grafted span's quotient dims against the composite's, at k <= 5
    ram_pres = presentation("ram")
    oracle_dims = {k: grafted_dims(ram_pres, k) for k in range(1, 6)}
    for fault in (None, _jacobi_alone):
        with monkeypatch.context() as m:
            if fault is not None:
                fault(m)
            store = ComponentStore()
            for k in range(1, 6):
                rep = distributive_check(k, store)
                assert rep["pass"] == (rep["composite"] == oracle_dims[k]) == (fault is None or k < 3), (fault, k)


def test_distributive_check_fails_without_the_mixed_relation(monkeypatch):
    # the composite's factor misses the mixed relation: the check names it
    mixed = _jacobi_alone(monkeypatch)
    rep = distributive_check(3, ComponentStore())
    assert not rep["pass"]
    assert rep["witness"] in (repr(mixed), repr(-mixed))
    assert sum(rep["composite"].values()) == 18 != sum(grafted_dims(presentation("ram"), 3).values()) == 17


def test_distributive_check_fails_without_koszul_signs(monkeypatch):
    # an odd factor pair first appears at arity 4, and the dims do not see it
    monkeypatch.setattr(_Rewriting, "koszul", lambda self, word: 1)
    store = ComponentStore()
    assert distributive_check(3, store)["pass"]
    rep = distributive_check(4, store)
    assert not rep["pass"] and rep["witness"] is not None
    assert rep["composite"] == grafted_dims(presentation("ram"), 4)



def test_suite_distributive_checks_each_arity_once(monkeypatch):
    # suite_distributive(n) asks distributive_check(k) for every k <= n
    from ramops.suites import suite_distributive

    grafted = ram.grafted_relations
    passes = Counter()

    def counted(pres, labels, trees_on):
        passes[len(labels)] += 1
        return grafted(pres, labels, trees_on)

    monkeypatch.setattr(ram, "grafted_relations", counted)
    store = ComponentStore()
    verdicts = suite_distributive(5, store)
    assert [v["params"]["n"] for v in verdicts] == [1, 2, 3, 4, 5] and all(v["pass"] for v in verdicts)
    assert passes == {3: 1, 4: 1, 5: 1}
    # a check on its own still decides every arity 3..n, from the memo
    assert distributive_check(5, store)["pass"] and passes == {3: 1, 4: 1, 5: 1}
    assert distributive_check(4, ComponentStore())["pass"] and passes == {3: 2, 4: 2, 5: 1}

PRESENTATION_HASHES = {
    "com": "e4fa4063fff8a726",
    "lie": "1bbdd9061f7c3f12",
    "sgriess": "e5739ff23627c5e1",
    "liegriess": "cc6d4effc24b2ec5",
    "poisson": "383191a9b51abe58",
    "bessel": "afb7c5e666c22745",
    "ram": "26dacbea2467ad57",
}
# the factor F of each Com o F; com = Com o I, whose factor has no generator
FACTOR_HASHES = {
    "com": "0dfa69d608dbae39",
    "poisson": PRESENTATION_HASHES["lie"],
    "bessel": PRESENTATION_HASHES["sgriess"],
    "ram": PRESENTATION_HASHES["liegriess"],
}


def test_presentation_hashes_are_pinned(tmp_path):
    assert {name: presentation(name).hash for name in PRESENTATION_HASHES} == PRESENTATION_HASHES
    for name in ("ram", "poisson", "bessel", "com", "liegriess"):
        out = tmp_path / f"{name}.json"
        assert cli_main(["dims", "--operad", name, "--n", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["presentation_hashes"] == {name: PRESENTATION_HASHES[name]}


def test_a_factor_is_recognised_from_the_relations():
    for name in PRESENTATION_HASHES:
        pres = presentation(name)
        if name in FACTOR_HASHES:
            assert pres.product == "E" and pres.factor.hash == FACTOR_HASHES[name]
            assert pres.factor.generators == tuple(g for g in pres.generators if g.name != "E")
        else:
            assert pres.product is None and pres.factor is None
    # up to nonzero scalars
    ram_pres = presentation("ram")
    scaled = Presentation("ram-scaled", ram_pres.generators, [r.scaled(-2) for r in ram_pres.relations])
    assert scaled.product == "E" and scaled.factor is not None
    assert scaled.factor.generators == ram_pres.factor.generators
    assert [r.scaled(Fraction(-1, 2)) for r in scaled.factor.relations] == list(ram_pres.factor.relations)
    # a rebuilt presentation keeps its hash
    poisson = presentation("poisson")
    again = Presentation("poisson", poisson.generators, poisson.relations)
    assert again.hash == poisson.hash and again.factor.hash == poisson.factor.hash


def _odd_l_poisson():
    gens = {g.name: g for g in (E_SPEC, GeneratorSpec("L", (1, 1), -1))}
    return gens.values(), (associativity(gens, "E"), ram._jacobi(gens), leibniz(gens, "E", "L"))


def test_presentations_that_are_no_composite_and_no_groebner_basis_raise():
    # associativity alone: E has no Leibniz rule past L, so this is no
    # Com o Lie, and associativity has no leading term g(g'(1, 2), 3)
    gens = {g.name: g for g in (E_SPEC, GENS["L"])}
    with pytest.raises(ValueError):
        Presentation("assoc-only", gens.values(), [associativity(gens, "E")])
    # the Jacobi sum of an odd L is no Groebner basis: its factor is refused
    with pytest.raises(ValueError, match="odd-poisson/E"):
        Presentation("odd-poisson", *_odd_l_poisson())
    # one more relation that uses E: no longer Com o LieGriess
    ram_pres = presentation("ram")
    extra = OperadElement.from_terms((1, 2, 3), ram_pres.gens, [(("E", 1, ("L", 2, 3)), 1)])
    with pytest.raises(ValueError, match="no distinct leading term"):
        Presentation("ram-plus", ram_pres.generators, ram_pres.relations + (extra,))


def test_poisson_dims_match_prediction():
    for n in range(1, 6):
        expected = {(0, k): c for (i, k), c in psi(n).items() if i == 0}
        assert operad_dims("poisson", n) == expected
    totals = [sum(operad_dims("poisson", n).values()) for n in range(1, 6)]
    assert totals == [1, 2, 6, 24, 120]


def test_bessel_dims_match_prediction():
    for n in range(1, 5):
        expected = {(i, i): c for (i, k), c in psi(n).items() if k == 0}
        assert operad_dims("bessel", n) == expected


def test_ram_dims_match_prediction_through_4():
    for n in range(1, 5):
        assert ram_dims(n) == predicted_dims(n)


@pytest.mark.parametrize("name", ram.PRESENTATION_NAMES)
def test_counted_dims_equal_the_listed_component(name):
    # the dims of the listed normal trees are the oracle of the count
    pres = presentation(name)
    for n in range(1, 7):
        listed = component_basis(pres, standard_labels(n), ComponentStore()).dims
        assert operad_dims(name, n, ComponentStore()) == listed


def test_ram_counts_equal_the_prediction_through_12():
    store = ComponentStore()
    for n in range(1, 13):
        assert operad_dims("ram", n, store, max_arity=12) == predicted_dims(n)


def test_poisson_and_bessel_counts_equal_their_psi_projections_through_10():
    store = ComponentStore()
    for n in range(1, 11):
        p = psi(n)
        assert operad_dims("poisson", n, store, max_arity=10) == {(0, k): c for (i, k), c in p.items() if i == 0}
        assert operad_dims("bessel", n, store, max_arity=10) == {(i, i): c for (i, k), c in p.items() if k == 0}


def test_liegriess_dims_convolve_to_the_prediction_at_arity_6():
    # Com o LieGriess: the liegriess dims for n <= 6, convolved over the set
    # partitions of {1..6}
    block_dims = {k: operad_dims("liegriess", k) for k in range(1, 7)}
    total: Counter = Counter()
    for partition in set_partitions(standard_labels(6)):
        term = {(0, 0): 1}
        for block in partition:
            product: Counter = Counter()
            for (h1, w1), c1 in term.items():
                for (h2, w2), c2 in block_dims[len(block)].items():
                    product[h1 + h2, w1 + w2] += c1 * c2
            term = product
        total.update(term)
    assert sum(block_dims[6].values()) == 13778
    assert dict(total) == predicted_dims(6)
