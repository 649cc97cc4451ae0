import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from ramops.labels import HASH, STAR, standard_labels
from ramops.linalg import SparseMatrix, rank
from ramops.operad import (
    OperadElement,
    canonicalize,
    component_basis,
    compose,
    enumerate_tree_monomials,
    ideal_span,
    is_leaf,
    relabel,
    substitute,
    tree_bidegree,
    tree_h,
    tree_min_key,
    tree_sort_key,
)
from ramops.ram import RAM_SIGNATURE, presentation

GENS = RAM_SIGNATURE


def gen_el(name, a, b, gens=GENS):
    return OperadElement.generator(gens, name, a, b)


def mono(labels, tree, gens=GENS):
    return OperadElement.from_terms(labels, gens, [(tree, 1)])


# --- independent sign oracle --------------------------------------------------
# Expand the tree into its preorder tensor word; the sign of recanonicalizing
# is the product of the symmetry factors of swapped vertices times the parity
# of the permutation the reordering induces on the odd-degree letters.


def oracle_canonicalize(t, gens):
    parity = []

    def collect(u):
        if is_leaf(u):
            return
        parity.append(gens[u[0]].bidegree[0] & 1)
        collect(u[1])
        collect(u[2])

    collect(t)
    counter = [0]

    def walk(u):
        if is_leaf(u):
            return u, [], 1
        g, l, r = u
        my_id = counter[0]
        counter[0] += 1
        cl, wl, sl = walk(l)
        cr, wr, sr = walk(r)
        sym = sl * sr
        if tree_min_key(cl) > tree_min_key(cr):
            sym *= gens[g].symmetry
            cl, cr, wl, wr = cr, cl, wr, wl
        return (g, cl, cr), [my_id] + wl + wr, sym

    canon, word, sym = walk(t)
    odd_word = [i for i in word if parity[i]]
    inversions = sum(
        1
        for x in range(len(odd_word))
        for y in range(x + 1, len(odd_word))
        if odd_word[y] < odd_word[x]
    )
    return sym * (-1 if inversions & 1 else 1), canon


def all_ordered_trees(leaves, gen_names):
    if len(leaves) == 1:
        yield leaves[0]
        return
    for k in range(1, len(leaves)):
        for left in all_ordered_trees(leaves[:k], gen_names):
            for right in all_ordered_trees(leaves[k:], gen_names):
                for g in gen_names:
                    yield (g, left, right)


def test_canonicalize_examples():
    assert canonicalize(("L", 2, 1), GENS) == (-1, ("L", 1, 2))
    assert canonicalize(("E", 2, 1), GENS) == (1, ("E", 1, 2))
    # swapping the odd subtree with a leaf: Koszul factor is trivial, the
    # generator antisymmetry is not
    assert canonicalize(("G", ("G", 2, 3), 1), GENS) == (-1, ("G", 1, ("G", 2, 3)))


def test_canonicalize_duplicate_leaf_rejected():
    with pytest.raises(ValueError):
        canonicalize(("L", 1, 1), GENS)


def test_sign_oracle_agrees_up_to_arity_4():
    names = sorted(GENS)
    for n in (2, 3, 4):
        for leaves in permutations(range(1, n + 1)):
            for t in all_ordered_trees(leaves, names):
                assert canonicalize(t, GENS) == oracle_canonicalize(t, GENS), t


def test_compose_examples():
    e = compose(gen_el("E", 1, STAR), gen_el("E", 2, 3))
    assert e.terms == {("E", 1, ("E", 2, 3)): Fraction(1)}
    l = compose(gen_el("L", 1, STAR), gen_el("L", 2, 3))
    assert l.terms == {("L", 1, ("L", 2, 3)): Fraction(1)}


def test_compose_errors():
    with pytest.raises(ValueError):
        compose(gen_el("E", 1, 2), gen_el("E", 3, 4))  # no place-holder
    with pytest.raises(ValueError):
        compose(gen_el("E", 1, STAR), gen_el("E", 1, 2))  # label collision


def test_relabel_examples():
    x = gen_el("L", 1, 2)
    assert relabel(x, {1: 1, 2: 2}) == x
    assert relabel(x, {1: 2, 2: 1}) == x.scaled(-1)
    y = mono((1, 2, 3), ("E", 1, ("E", 2, 3)))
    assert relabel(y, {1: 1, 2: 3, 3: 2}) == y


def test_relabel_functorial():
    rng = random.Random(5)
    labels = (1, 2, 3, 4)
    monos = enumerate_tree_monomials(GENS, labels)
    for _ in range(20):
        x = mono(labels, rng.choice(monos))
        p1 = dict(zip(labels, rng.sample(labels, 4)))
        p2 = dict(zip(labels, rng.sample(labels, 4)))
        composed = {a: p2[p1[a]] for a in labels}
        assert relabel(relabel(x, p1), p2) == relabel(x, composed)


def test_enumerate_counts():
    assert len(enumerate_tree_monomials(GENS, (1, 2))) == 3
    assert len(enumerate_tree_monomials(GENS, (1, 2, 3))) == 27
    trees = enumerate_tree_monomials(GENS, (1, 2, 3))
    assert sum(1 for t in trees if tree_bidegree(t, GENS) == (1, 2)) == 6
    assert enumerate_tree_monomials(GENS, (7,)) == [7]


def test_enumerate_trees_are_canonical_and_sorted():
    trees = enumerate_tree_monomials(GENS, (1, 2, 3, 4))
    assert len(trees) == 405  # 15 leaf shapes x 27 labelings
    assert trees == sorted(trees, key=tree_sort_key)
    for t in trees:
        assert canonicalize(t, GENS) == (1, t)


def jacobi_sum(i, j, k):
    acc = None
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        term = compose(gen_el("L", a, STAR), gen_el("L", b, c))
        acc = term if acc is None else acc + term
    return acc


def test_ideal_span_examples():
    ram = presentation("ram")
    span3 = ideal_span(ram, (1, 2, 3))
    monos = enumerate_tree_monomials(ram.gens, (1, 2, 3))
    index = {m: i for i, m in enumerate(monos)}
    mat = SparseMatrix(len(monos))
    for el in span3:
        mat.add_row({index[t]: c for t, c in el.terms.items()})
    assert rank(mat) == 10

    com = presentation("com")
    span_c = ideal_span(com, (1, 2, 3))
    monos_c = enumerate_tree_monomials(com.gens, (1, 2, 3))
    idx = {m: i for i, m in enumerate(monos_c)}
    mat = SparseMatrix(len(monos_c))
    for el in span_c:
        mat.add_row({idx[t]: c for t, c in el.terms.items()})
    assert rank(mat) == 2

    assert ideal_span(ram, (1, 2)) == []


def test_relation_family_ranks_at_arity_3():
    # rank 10 splits as 2 (associativity) + 1 + 1 (cyclic sums) + 3 + 3 (rewrites)
    ram = presentation("ram")
    monos = enumerate_tree_monomials(ram.gens, (1, 2, 3))
    idx = {m: i for i, m in enumerate(monos)}
    expected = {"assoc": 2, "jacobi": 1, "mixed": 1, "rewrite_L": 3, "rewrite_G": 3}
    names = ("assoc", "jacobi", "mixed", "rewrite_L", "rewrite_G")
    for name, rel in zip(names, ram.relations):
        mat = SparseMatrix(len(monos))
        for perm in permutations((1, 2, 3)):
            inst = relabel(rel, dict(zip((1, 2, 3), perm)))
            mat.add_row({idx[t]: c for t, c in inst.terms.items()})
        assert rank(mat) == expected[name], name


def test_component_basis_examples():
    ram = presentation("ram")
    c2 = component_basis(ram, (1, 2))
    assert c2.dims == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    c3 = component_basis(ram, (1, 2, 3))
    assert c3.dims == {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 1): 3, (1, 2): 5, (2, 2): 3}
    assert c3.dim == 17
    com = presentation("com")
    for n in (1, 2, 3, 4, 5):
        assert component_basis(com, standard_labels(n)).dim == 1


def test_normal_form_examples():
    ram = presentation("ram")
    c3 = component_basis(ram, (1, 2, 3))
    assert c3.coords(jacobi_sum(1, 2, 3)) == {}
    assoc = compose(gen_el("E", 1, STAR), gen_el("E", 2, 3)) - compose(
        gen_el("E", 2, STAR), gen_el("E", 3, 1)
    )
    assert c3.coords(assoc) == {}
    for slot, b in enumerate(c3.basis):
        assert c3.coords(c3.monomial_element(b)) == {slot: Fraction(1)}


def test_normal_form_label_mismatch():
    ram = presentation("ram")
    c3 = component_basis(ram, (1, 2, 3))
    with pytest.raises(ValueError):
        c3.coords(gen_el("E", 1, 2))


def test_dims_independent_of_label_set():
    ram = presentation("ram")
    assert component_basis(ram, (2, 5, 9)).dims == component_basis(ram, (1, 2, 3)).dims
    assert (
        component_basis(ram, ("x", "y")).dims == component_basis(ram, (1, 2)).dims
    )


def test_normal_form_equivariance():
    ram = presentation("ram")
    rng = random.Random(13)
    for n in (3, 4):
        labels = standard_labels(n)
        comp = component_basis(ram, labels)
        monos = enumerate_tree_monomials(ram.gens, labels)
        for _ in range(8):
            x = OperadElement(labels, ram.gens)
            for m in rng.sample(monos, 4):
                x = x + mono(labels, m).scaled(rng.randint(-3, 3))
            phi = dict(zip(labels, rng.sample(labels, n)))
            direct = comp.coords(relabel(x, phi))
            transported = comp.coords(relabel(comp.normal_form(x), phi))
            assert direct == transported


def test_composition_sequential_axiom():
    rng = random.Random(17)
    for _ in range(30):
        x_labels = (1, STAR)
        y_labels = (2, HASH) if rng.random() < 0.5 else (2, 3, HASH)
        z_labels = (4, 5) if rng.random() < 0.5 else (4,)
        x = mono(x_labels, rng.choice(enumerate_tree_monomials(GENS, x_labels)))
        y = mono(y_labels, rng.choice(enumerate_tree_monomials(GENS, y_labels)))
        z = mono(z_labels, rng.choice(enumerate_tree_monomials(GENS, z_labels)))
        lhs = compose(compose(x, y, STAR), z, HASH)
        rhs = compose(x, compose(y, z, HASH), STAR)
        assert lhs == rhs


def test_composition_parallel_axiom_koszul_sign():
    rng = random.Random(19)
    for _ in range(40):
        x_labels = (1, STAR, HASH)
        x = mono(x_labels, rng.choice(enumerate_tree_monomials(GENS, x_labels)))
        y = mono((2, 3), rng.choice(enumerate_tree_monomials(GENS, (2, 3))))
        z = mono((4,), 4) if rng.random() < 0.3 else mono(
            (4, 5), rng.choice(enumerate_tree_monomials(GENS, (4, 5)))
        )
        hy = tree_h(next(iter(y.terms)), GENS)
        hz = tree_h(next(iter(z.terms)), GENS)
        lhs = compose(compose(x, y, STAR), z, HASH)
        rhs = compose(compose(x, z, HASH), y, STAR)
        sign = -1 if (hy & 1) and (hz & 1) else 1
        assert lhs == rhs.scaled(sign)


def test_bidegrees_add_under_composition():
    rng = random.Random(23)
    for _ in range(20):
        x = mono((1, STAR), rng.choice(enumerate_tree_monomials(GENS, (1, STAR))))
        y = mono((2, 3), rng.choice(enumerate_tree_monomials(GENS, (2, 3))))
        out = compose(x, y, STAR)
        dx, dy = x.bidegree(), y.bidegree()
        assert out.bidegree() == (dx[0] + dy[0], dx[1] + dy[1])


def _ordered_tripartitions(labels):
    n = len(labels)
    for assignment in range(3**n):
        parts = ([], [], [])
        a = assignment
        for item in labels:
            parts[a % 3].append(item)
            a //= 3
        if parts[0] and parts[1] and parts[2]:
            yield tuple(parts[0]), tuple(parts[1]), tuple(parts[2])


def direct_context_span_rank(pres, labels):
    """Independent ideal enumeration: context o relation(m1, m2, m3)."""
    gens = pres.gens
    monos = enumerate_tree_monomials(gens, labels)
    index = {m: i for i, m in enumerate(monos)}
    mat = SparseMatrix(len(monos))
    places = ("s1", "s2", "s3")
    for size in range(3, len(labels) + 1):
        for sub in combinations(labels, size):
            rest = tuple(x for x in labels if x not in sub)
            for rel in pres.relations:
                rel_p = relabel(rel, dict(zip((1, 2, 3), places)))
                for blocks in _ordered_tripartitions(sub):
                    block_monos = [enumerate_tree_monomials(gens, b) for b in blocks]
                    for m1, m2, m3 in product(*block_monos):
                        core = substitute(
                            rel_p,
                            {
                                "s1": OperadElement.from_terms(blocks[0], gens, [(m1, 1)]),
                                "s2": OperadElement.from_terms(blocks[1], gens, [(m2, 1)]),
                                "s3": OperadElement.from_terms(blocks[2], gens, [(m3, 1)]),
                            },
                        )
                        if rest:
                            ctx_labels = rest + ("ctx",)
                            for ctx in enumerate_tree_monomials(gens, ctx_labels):
                                el = compose(
                                    OperadElement.from_terms(ctx_labels, gens, [(ctx, 1)]),
                                    core,
                                    "ctx",
                                )
                                mat.add_row({index[t]: c for t, c in el.terms.items()})
                        else:
                            mat.add_row({index[t]: c for t, c in core.terms.items()})
    return rank(mat)


def test_ideal_recursion_matches_direct_context_enumeration():
    pres = presentation("liegriess")
    labels = (1, 2, 3, 4)
    monos = enumerate_tree_monomials(pres.gens, labels)
    index = {m: i for i, m in enumerate(monos)}
    mat = SparseMatrix(len(monos))
    for el in ideal_span(pres, labels):
        mat.add_row({index[t]: c for t, c in el.terms.items()})
    assert rank(mat) == direct_context_span_rank(pres, labels)


def test_presentation_hash_is_stable():
    assert presentation("ram").hash == presentation("ram").hash
    assert presentation("ram").hash != presentation("poisson").hash
