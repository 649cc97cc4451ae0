"""The Ramanujan operad and its relatives: presentations, coproduct, differentials.

Three binary generators: E symmetric of bidegree (0,0), L antisymmetric of
(0,1), and the suspended-Griess generator G antisymmetric of (1,1).  Ram's
relations are associativity for E, the Jacobi sum for L, the mixed cyclic
sum tying L and G, and the two Leibniz rules that move E past L and past G
(the distributive laws that split the operad into a commutative layer over
a LieGriess layer).  Every other named presentation is Ram restricted to
some of its generators.

``Presentation`` recognises each one with E as Com o F: ``com`` = Com o I,
``poisson`` = Com o Lie, ``bessel`` = Com o SGriess and ``ram`` =
Com o LieGriess.  Their components are the E-combs of F's normal trees,
and every tree is rewritten onto them with Koszul signs on preorder words;
the factors are rewritten by their relations as a certified quadratic
Groebner basis (see ``operad``).  Nothing is eliminated or stored for any
of them.  ``distributive_check`` keeps the law itself under test: nf must
kill every relation grafted with basis trees.

The coproduct is E -> E(x)E, L -> E(x)L + L(x)E, G -> E(x)G + G(x)E,
extended through trees with the Koszul interleaving sign, into a
``quotient.Tensor`` of two factors on the input's labels.  The differential
``down`` sends G to L (bidegree (-1,0)); ``up`` sends L to G ((+1,0)); both
kill E and extend as derivations with the preorder-prefix sign.

``BasisImages`` evaluates both maps in basis coordinates: Delta_B(t) =
(nf (x) nf)(Delta t) and d_B(t) = nf(d t) for a tree t = g(x, y), formed
from the images of its children.  This is exact because nf(g(x, y)) =
nf(g(nf x, nf y)) (see ``operad``), and nf keeps bidegrees, so a sign that
reads the h of a tree reads the same parity off its normal form:

* Delta(g(x, y)) is the sum, over the rows g' (x) g'' of
  ``COPRODUCT_TABLE[g]`` and the terms x' (x) x'' of Delta x and y' (x) y''
  of Delta y, of (-1)^(h(g'') h(x') + (h(g'') + h(x'')) h(y')) times
  g'(x', y') (x) g''(x'', y''): the word g' g'' x' x'' y' y'' put in the
  order g' x' y' g'' x'' y''.  So Delta_B(g(x, y)) is the same sum over the
  terms of Delta_B x and Delta_B y, of nf(g'(x', y')) (x) nf(g''(x'', y''));
* d(g(x, y)) = d(g)(x, y) + (-1)^h(g) g(dx, y) + (-1)^(h(g) + h(x)) g(x, dy),
  the preorder prefix sign, so d_B(g(x, y)) = nf(d(g)(nf x, nf y))
  + (-1)^h(g) nf(g(d_B x, nf y)) + (-1)^(h(g) + h(x)) nf(g(nf x, d_B y)).

Every nf(g'(u, v)) there is a one-step normal form of two normal-form keys,
read from the rewriting's one memo of them (``operad._NormalForms.root``),
which ``BasisImages`` does not copy.  One step function holds each sign,
``_coproduct_sign`` and ``_derivation_signs``, and both the free
expansions (``_coproduct_parts``, ``_diff_tree``) and ``BasisImages`` call
it, so the two routes cannot disagree on a sign.

``hopf_check`` reads Delta_B for the ideal verdict.  Coassociativity and
the two coderivation identities it decides on E, L and G, the basis at
arity 2, as identities between free-operad tensors, whatever n is
(Loday-Vallette, Algebraic Operads):

* Delta is a morphism of the free operad into the Hadamard product of two
  copies of it when ``_coproduct_sign`` is the Koszul sign of its word
  g1 g2 u1 u2 v1 v2 -> g1 u1 v1 g2 u2 v2.  Then (Delta (x) 1) Delta and
  (1 (x) Delta) Delta are both morphisms into the threefold product;
* down and up are odd derivations when ``_derivation_signs`` is the Koszul
  sign of d passing g, or g and l.  Then Delta d and
  (d (x) 1 + (-1)^h(t1) 1 (x) d) Delta are both derivations along Delta;
  the sign (-1)^h(t1) is ``_derivation_signs`` at a vertex t1 (x) t2 of
  degree 0, so no sign of either side lives outside the two rules;
* two morphisms, or two derivations along one morphism, that agree on the
  generators agree on every tree of the free operad, so on every basis
  tree at every arity, and equal free tensors have equal normal forms.

The premises are finite sign rules: ``sign_rule_witness`` compares each
rule, on every parity word of its inputs, with the count of odd inversions
of its word permutation, on every call.  A rule that fails fails every
identity resting on it, with the witness {"sign_rule", "parities"}.  So
an identity verdict at n certifies the identity on every tree of arity n
(and every other), and the per-tree walks are left to the tests
(``tests/hopf_oracle.py``).  The certificate also rests on the recursion
of ``_coproduct_parts`` and ``_diff_tree``, which the generators do not
exercise: that each passes its rule the parities of the right subtrees
and returns the right sum of h.  The tests hold both to the per-tree
oracles, and the mutant catalogue faults their call sites.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from . import quotient
from .cache import ComponentStore, default_store
from .labels import BiDegree, STAR, standard_labels
from .linalg import bump
from .operad import (
    Component,
    GeneratorSpec,
    OperadElement,
    Presentation,
    Signature,
    Tree,
    associativity,
    component_basis,
    compose,
    grafted_relations,
    is_leaf,
    leading_rule,
    leibniz,
    one_step_witness,
    tree_str,
)
from .reports import dims_to_table, verdict

E_SPEC = GeneratorSpec("E", (0, 0), 1)
L_SPEC = GeneratorSpec("L", (0, 1), -1)
G_SPEC = GeneratorSpec("G", (1, 1), -1)

RAM_GENERATORS = (E_SPEC, L_SPEC, G_SPEC)
RAM_SIGNATURE: Signature = {g.name: g for g in RAM_GENERATORS}

# the generators of each named presentation, one letter each
_GENERATORS = dict(com="E", lie="L", sgriess="G", liegriess="LG", poisson="EL", bessel="EG", ram="ELG")
PRESENTATION_NAMES = tuple(_GENERATORS)


class ResourceBoundError(RuntimeError):
    """A configured arity/size bound was exceeded; carries partial results."""

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


_gen = OperadElement.generator


def _jacobi(gens: Signature) -> OperadElement:
    acc = None
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        term = compose(_gen(gens, "L", i, STAR), _gen(gens, "L", j, k))
        acc = term if acc is None else acc + term
    return acc


def _mixed(gens: Signature) -> OperadElement:
    acc = None
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        term = compose(_gen(gens, "G", i, STAR), _gen(gens, "L", j, k))
        term = term + compose(_gen(gens, "L", i, STAR), _gen(gens, "G", j, k))
        acc = term if acc is None else acc + term
    return acc


_PRESENTATION_MEMO: dict[str, Presentation] = {}


def presentation(which: str) -> Presentation:
    """One of com | lie | sgriess | liegriess | poisson | bessel | ram: Ram
    restricted to the generators of the name."""
    if which not in PRESENTATION_NAMES:
        raise ValueError(f"unknown presentation {which!r}; choose from {PRESENTATION_NAMES}")
    pres = _PRESENTATION_MEMO.get(which)
    if pres is None:
        if which == "ram":
            g = RAM_SIGNATURE
            laws = (associativity(g, "E"), _jacobi(g), _mixed(g), leibniz(g, "E", "L"), leibniz(g, "E", "G"))
            pres = Presentation("ram", RAM_GENERATORS, laws)
        else:
            pres = presentation("ram").restricted(which, _GENERATORS[which])
        _PRESENTATION_MEMO[which] = pres
    return pres


def normal_dims(pres: Presentation, n: int) -> dict[BiDegree, int]:
    """The bigraded dims of the component on n labels, counted: the normal
    trees that ``Component.build`` lists, with none formed (the argument is
    in ``operad.leading_rule``).  Exact for the trees; that they are a
    basis is what ``_certify`` and ``distributive_check`` check, as for the
    rewriting components."""
    if pres.factor is None:
        return _groebner_dims(pres, n)[n]
    factor = _groebner_dims(pres.factor, n)
    combs: list[dict[BiDegree, int]] = [{(0, 0): 1}]
    for m in range(1, n + 1):
        combs.append({})
        for a in range(1, m + 1):
            _convolve(combs[m], comb(m - 1, a - 1), factor[a], combs[m - a])
    return combs[n]


def _groebner_dims(pres: Presentation, n: int) -> list[dict[BiDegree, int]]:
    """Per k <= n, the normal trees on k labels counted by bidegree."""
    gens, rules = pres.gens, pres.rules
    # per size, the counts by class (root generator, rank q) and bidegree
    classes: list[dict[tuple, dict[BiDegree, int]]] = [{}, {(None, 0): {(0, 0): 1}}]
    dims: list[dict[BiDegree, int]] = [{}, {(0, 0): 1}]
    for k in range(2, n + 1):
        out: dict[tuple, dict[BiDegree, int]] = {}
        for a in range(1, k):
            for p in range(1, a + 1):
                ways = comb(k - 1 - p, k - a - 1)
                for g in sorted(gens):
                    left: dict[BiDegree, int] = {}
                    for (inner, q), by_degree in classes[a].items():
                        if leading_rule(rules, g, inner, q, p) is None:
                            for deg, c in by_degree.items():
                                bump(left, deg, c)
                    _convolve(out.setdefault((g, p + 1), {}), ways, left, dims[k - a], gens[g].bidegree)
        classes.append(out)
        dims.append({})
        for by_degree in out.values():
            for deg, c in by_degree.items():
                bump(dims[k], deg, c)
    return dims


def _convolve(out: dict, ways: int, x: dict, y: dict, shift: BiDegree = (0, 0)) -> None:
    """Add ways times the convolution of the bidegree counts x and y, shifted, to out."""
    for (h1, w1), c1 in x.items():
        for (h2, w2), c2 in y.items():
            bump(out, (shift[0] + h1 + h2, shift[1] + w1 + w2), ways * c1 * c2)


DEFAULT_MAX_ARITY = 6


def operad_dims(
    which: str,
    n: int,
    store: ComponentStore | None = None,
    max_arity: int = DEFAULT_MAX_ARITY,
) -> dict[BiDegree, int]:
    """Bigraded dims of the named presentation on {1..n}, counted with no
    tree built (``normal_dims``).  A Groebner factor's normal trees
    are counted by class (root, rank of the right child's smallest leaf),
    which is all the root rule reads, and C(k - 1 - p, b - 1) splits of k
    labels put p left labels below the right block of b; Com o F convolves,
    dims(n) = sum over a of C(n - 1, a - 1) F(a) * dims(n - a).  They are a
    basis by the Diamond lemma (Dotsenko-Khoroshkin, Duke Math. J. 153,
    2010) under the certificates the components rest on: ``_certify`` and
    the distributive law of ``distributive_check``.  The dims are kept in
    the store's memo; past ``max_arity`` nothing is counted, and
    ``ResourceBoundError`` reports the arities that memo holds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_arity:
        done = quotient.memo_dims(Component, presentation(which), store)
        # the bound is checked before anything is counted: partial progress
        # is what the store's memo holds already, if anything
        partial = None
        if done:
            partial = {
                "max_arity": max_arity,
                "computed_arities": {k: dims_to_table(d) for k, d in done.items()},
            }
        raise ResourceBoundError(f"arity {n} exceeds the configured bound {max_arity}", partial)
    return dict(quotient.counted_dims(Component, presentation(which), n, normal_dims, store))


def ram_dims(n: int, store: ComponentStore | None = None, max_arity: int = DEFAULT_MAX_ARITY):
    """Bigraded dimension table of the Ramanujan operad on {1..n}."""
    return operad_dims("ram", n, store, max_arity)


# --- coproduct ---------------------------------------------------------------

COPRODUCT_TABLE: dict[str, tuple[tuple[str, str], ...]] = {
    "E": (("E", "E"),),
    "L": (("E", "L"), ("L", "E")),
    "G": (("E", "G"), ("G", "E")),
}


def _coproduct_tree(t: Tree, gens: Signature) -> list[tuple[Tree, Tree, int]]:
    return [(t1, t2, sign) for t1, t2, sign, _, _ in _coproduct_parts(t, gens)]


def _coproduct_parts(t: Tree, gens: Signature) -> list[tuple[Tree, Tree, int, int, int]]:
    """The terms (t1, t2, sign) of the tree's coproduct, each with h(t1), h(t2)."""
    if is_leaf(t):
        return [(t, t, 1, 0, 0)]
    g, l, r = t
    left_parts = _coproduct_parts(l, gens)
    right_parts = _coproduct_parts(r, gens)
    out = []
    for g1, g2 in COPRODUCT_TABLE[g]:
        hg1, hg2 = gens[g1].bidegree[0], gens[g2].bidegree[0]
        for u1, u2, s1, hu1, hu2 in left_parts:
            for v1, v2, s2, hv1, hv2 in right_parts:
                sign = s1 * s2 * _coproduct_sign(hg2, hu1, hu2, hv1)
                # the root split keeps min-leaf order, so both factors stay canonical
                out.append(((g1, u1, v1), (g2, u2, v2), sign, hg1 + hu1 + hv1, hg2 + hu2 + hv2))
    return out


def _coproduct_sign(hg2: int, hu1: int, hu2: int, hv1: int) -> int:
    """The Koszul sign of g1(u1, v1) (x) g2(u2, v2) in the coproduct of
    g(u, v): the word g1 g2 u1 u2 v1 v2 becomes g1 u1 v1 g2 u2 v2, so g2
    passes u1 and v1, and u2 passes v1.  Only the parities of the h count."""
    return -1 if (hg2 * hu1 + (hg2 + hu2) * hv1) & 1 else 1


def coproduct(x: OperadElement) -> quotient.Tensor:
    """Hopf coproduct of an element in the free operad, term by term through
    its trees; ``tensor_normal_form`` reduces it to a component's basis."""
    factor = x._like({})
    out = quotient.Tensor((factor, factor))
    for t, c in x.terms.items():
        for t1, t2, sign in _coproduct_tree(t, x.gens):
            out._add_term((t1, t2), c * sign)
    return out


def tensor_normal_form(tens: quotient.Tensor, comp: Component) -> quotient.Tensor:
    """Reduce both tensor factors to the component basis (bilinear, no signs)."""
    return tens._like(quotient.tensor_normal_form(tens.terms, (comp, comp)))


# --- differentials -----------------------------------------------------------

DIFFERENTIAL_MAPS = {
    "down": {"G": "L"},  # bidegree (-1, 0)
    "up": {"L": "G"},  # bidegree (+1, 0)
}


def _diff_tree(t: Tree, mapping: dict[str, str], gens: Signature) -> tuple[list, int]:
    """Per-node replacements with the preorder prefix sign; returns (terms, h)."""
    if is_leaf(t):
        return [], 0
    g, l, r = t
    hg = gens[g].bidegree[0]
    terms: list[tuple[Tree, int]] = []
    if g in mapping:
        terms.append(((mapping[g], l, r), 1))
    sub_l, hl = _diff_tree(l, mapping, gens)
    sub_r, hr = _diff_tree(r, mapping, gens)
    left_sign, right_sign = _derivation_signs(hg, hl)
    for nt, s in sub_l:
        terms.append(((g, nt, r), s * left_sign))
    for nt, s in sub_r:
        terms.append(((g, l, nt), s * right_sign))
    return terms, hg + hl + hr


def _derivation_signs(hg: int, hl: int) -> tuple[int, int]:
    """The prefix signs of an odd derivation at a vertex g(l, r): of its
    terms inside l, which pass g, and inside r, which pass g and l."""
    return (-1 if hg & 1 else 1), (-1 if (hg + hl) & 1 else 1)


# per sign rule: the number of its inputs, and at their parities p its signs,
# each with its word's parities and the order it puts the word in
_SIGN_RULES = {
    # g1 g2 u1 u2 v1 v2 -> g1 u1 v1 g2 u2 v2
    "_coproduct_sign": (6, lambda p: [(p, (0, 2, 4, 1, 3, 5), _coproduct_sign(*p[1:5]))]),
    # an odd d before g(l, r), at p = (h(g), h(l)): d g l -> g d l, or g l d
    "_derivation_signs": (2, lambda p: zip([(1, *p)] * 2, [(1, 0, 2), (1, 2, 0)], _derivation_signs(*p))),
}


def sign_rule_witness(rule: str) -> dict | None:
    """The witness {"sign_rule", "parities"} of the first parities of the
    rule's inputs, in product order, where it is not the Koszul sign of its
    word permutation, -1 to the number of odd pairs it inverts, else None."""
    inputs, cases = _SIGN_RULES[rule]
    for p in product((0, 1), repeat=inputs):
        for word, order, sign in cases(p):
            odd_inversions = sum(word[a] & word[b] for i, a in enumerate(order) for b in order[i + 1 :] if a > b)
            if sign != (-1) ** odd_inversions:
                return {"sign_rule": rule, "parities": list(p)}
    return None


def differential(x: OperadElement, which: str) -> OperadElement:
    """Apply the derivation ``down`` (G->L) or ``up`` (L->G); replacing a
    generator keeps every child order, so each tree is canonical as made."""
    mapping = DIFFERENTIAL_MAPS[which]
    out = OperadElement(x.labels, x.gens)
    for t, c in x.terms.items():
        if is_leaf(t):
            continue
        for tree, s in _diff_tree(t, mapping, x.gens)[0]:
            out._add_term(tree, c * s)
    return out


# --- the maps in basis coordinates ------------------------------------------


class BasisImages:
    """Delta_B = (nf (x) nf) Delta and d_B = nf d on the trees of a component
    on {1..n}, in the key ids of its rewriting (see the module docstring):
    a tree's image is formed from its children's normal forms and the one
    steps, which the rewriting keeps, and images, which are kept here, while
    the image of the tree asked for is not.  Delta_B(t) maps pairs of key
    ids, d_B(t) key ids, to coefficients."""

    def __init__(self, comp: Component):
        self.rw = comp.rewriting
        self.gens = comp.pres.gens
        self._deltas: dict[Tree, tuple] = {}
        self._ds: dict[tuple[Tree, str], dict] = {}
        # per generator g2, _coproduct_sign(h(g2), hu1, hu2, hv1) at 4 hu1 + 2 hu2 + hv1
        self._signs = {
            g: [_coproduct_sign(spec.bidegree[0], *parities) for parities in product((0, 1), repeat=3)]
            for g, spec in self.gens.items()
        }

    def coproduct(self, t: Tree) -> dict[tuple[int, int], Fraction | int]:
        if is_leaf(t):
            ((i, _),) = self.rw.normal_form(t)
            return {(i, i): 1}
        g, l, r = t
        lefts, left_seconds, left_terms = self._delta(l)
        rights, right_seconds, right_terms = self._delta(r)
        root = self.rw.root
        out: dict[tuple[int, int], Fraction | int] = {}
        for g1, g2 in COPRODUCT_TABLE[g]:
            signs = self._signs[g2]
            firsts = [[root(g1, u, v).items() for v in rights] for u in lefts]
            seconds = [[root(g2, u, v).items() for v in right_seconds] for u in left_seconds]
            for a, b, cu, at, _ in left_terms:
                first_a, second_b = firsts[a], seconds[b]
                for c, d, cv, _, hv1 in right_terms:
                    coeff = signs[at + hv1] * cu * cv
                    second = second_b[d]
                    for ka, ca in first_a[c]:
                        cka = coeff * ca
                        for kb, cb in second:
                            out[ka, kb] = out.get((ka, kb), 0) + cka * cb
        return {key: c for key, c in out.items() if c}

    def differential(self, t: Tree, which: str) -> dict[int, Fraction | int]:
        if is_leaf(t):
            return {}
        g, l, r = t
        dl, dr = self._d(l, which), self._d(r, which)
        nl, nr = self.rw.normal_form(l), self.rw.normal_form(r)
        terms = []  # (g', i, j, c): c rw.root(g', i, j)
        top = DIFFERENTIAL_MAPS[which].get(g)
        if top is not None:
            terms += [(top, i, j, ci * cj) for i, ci in nl for j, cj in nr]
        if dl or dr:
            # h(l) read off nf(l); without terms there, it signs nothing
            hl = self.rw.key_odd[nl[0][0]] if nl else 0
            left_sign, right_sign = _derivation_signs(self.gens[g].bidegree[0], hl)
            terms += [(g, i, j, left_sign * ci * cj) for i, ci in dl.items() for j, cj in nr]
            terms += [(g, i, j, right_sign * ci * cj) for i, ci in nl for j, cj in dr.items()]
        out: dict[int, Fraction | int] = {}
        for gen, i, j, c in terms:
            for k, v in self.rw.root(gen, i, j).items():
                out[k] = out.get(k, 0) + c * v
        return {k: c for k, c in out.items() if c}

    def _delta(self, t: Tree) -> tuple[list[int], list[int], list[tuple]]:
        """Delta_B(t), kept: the ids of its first and of its second factors,
        and per term (a, b, c, 4 h1 + 2 h2, h1) for the factors firsts[a],
        seconds[b] and their h-parities h1, h2."""
        out = self._deltas.get(t)
        if out is None:
            firsts: dict[int, int] = {}
            seconds: dict[int, int] = {}
            odd = self.rw.key_odd
            terms = []
            for (i, j), c in self.coproduct(t).items():
                a, b = firsts.setdefault(i, len(firsts)), seconds.setdefault(j, len(seconds))
                terms.append((a, b, c, 4 * odd[i] + 2 * odd[j], odd[i]))
            out = self._deltas[t] = (list(firsts), list(seconds), terms)
        return out

    def _d(self, t: Tree, which: str) -> dict[int, Fraction | int]:
        """d_B(t), kept."""
        out = self._ds.get((t, which))
        if out is None:
            out = self._ds[t, which] = self.differential(t, which)
        return out


def basis_images(images: dict[Component, BasisImages], comp: Component) -> BasisImages:
    """The ``BasisImages`` of the component in ``images``, made on first use."""
    out = images.get(comp)
    if out is None:
        out = images[comp] = BasisImages(comp)
    return out


# --- verification reports ----------------------------------------------------


# each identity that hopf_check decides on the generators, and the sign rules it rests on
HOPF_IDENTITIES = {
    "coproduct_coassociative": ("_coproduct_sign",),
    "coderivation_down": ("_coproduct_sign", "_derivation_signs"),
    "coderivation_up": ("_coproduct_sign", "_derivation_signs"),
}


def hopf_check(n: int, store: ComponentStore | None = None) -> list[dict]:
    """Coproduct facts at arity n: kills the ideal, coassociative, coderivations.

    The coproduct, followed by the tensor normal form, kills the ideal when
    Delta_B kills the one-step rows e_t - nf(t) at arity n, then n - 1 down
    to 3 (``operad.one_step_witness``); a failure names the first tree whose
    row it does not kill.  The identities read ``_hopf_identities``, which
    decides them at every arity (see the module docstring).  The call keeps
    the ``BasisImages`` of each arity it walks; the one steps they read stay
    in the rewritings.
    """
    store = store or default_store()
    pres = presentation("ram")
    images: dict[Component, BasisImages] = {}
    bad_tree = one_step_witness(pres, n, lambda t, c: basis_images(images, c).coproduct(t), store)
    witness = None if bad_tree is None else {"tree": tree_str(bad_tree)}
    bad = _hopf_identities(component_basis(pres, standard_labels(2), store).basis, pres.gens)
    return [verdict("coproduct_kills_ideal", bad_tree is None, witness, n=n)] + [
        verdict(name, name not in bad, bad.get(name), n=n) for name in HOPF_IDENTITIES
    ]


def _hopf_identities(generators: list[Tree], gens: Signature) -> dict[str, dict]:
    """The witness of each identity of ``HOPF_IDENTITIES`` that fails: the
    first sign rule it rests on that is not Koszul's, else the first
    generator on which its two sides differ as free tensors."""
    premises = {rule: sign_rule_witness(rule) for rule in _SIGN_RULES}
    bad: dict[str, dict] = {}
    for name, rules in HOPF_IDENTITIES.items():
        for witness in filter(None, map(premises.get, rules)):
            bad.setdefault(name, witness)
    for b in generators:
        delta = _coproduct_tree(b, gens)
        left: dict[tuple, int] = {}
        right: dict[tuple, int] = {}
        for t1, t2, c in delta:
            for u1, u2, s in _coproduct_tree(t1, gens):
                bump(left, (u1, u2, t2), c * s)
            for v1, v2, s in _coproduct_tree(t2, gens):
                bump(right, (t1, v1, v2), c * s)
        if left != right:
            bad.setdefault("coproduct_coassociative", {"basis_tree": repr(b)})
        for which, mapping in DIFFERENTIAL_MAPS.items():
            lhs: dict[tuple, int] = {}
            for t, c in _diff_tree(b, mapping, gens)[0]:
                for t1, t2, s in _coproduct_tree(t, gens):
                    bump(lhs, (t1, t2), c * s)
            rhs: dict[tuple, int] = {}
            for t1, t2, c in delta:
                d1, h1 = _diff_tree(t1, mapping, gens)
                for t, c1 in d1:
                    bump(rhs, (t, t2), c * c1)
                # d passes t1 to reach t2, as at a vertex of degree 0
                c_signed = c * _derivation_signs(0, h1)[1]
                for t, c2 in _diff_tree(t2, mapping, gens)[0]:
                    bump(rhs, (t1, t), c_signed * c2)
            if lhs != rhs:
                bad.setdefault(f"coderivation_{which}", {"basis_tree": repr(b), "differential": which})
    return bad


# --- distributive-law check -------------------------------------------------


# per store: {arity k: the first instance on {1..k} that nf does not kill, or None}
_DISTRIBUTIVE = quotient.per_store_memo()


def distributive_check(n: int, store: ComponentStore | None = None) -> dict:
    """Whether Ram(n) is Com o LieGriess, with the composite's dims.

    ``composite`` is the dims of the ``ram`` component: one E-comb per set
    partition of the labels and choice of a LieGriess basis tree per block,
    the partition convolution of ``liegriess_dims``, counted (``normal_dims``).
    The combs are a basis exactly when nf kills every instance of
    ``operad.grafted_relations`` on {1..k}, 3 <= k <= n, with basis trees in
    its inputs (see ``operad``): ``witness`` is the first instance with
    nonzero coordinates, else None.  Each arity is checked once per store,
    up to the first that fails.  A pass at n = 4 (weight 3) certifies the
    distributive law at every arity (Loday-Vallette, Algebraic Operads,
    Thm 8.6.5).
    """
    store = store or default_store()
    pres = presentation("ram")
    memo = _DISTRIBUTIVE.setdefault(store, {})
    bad = None
    for k in range(3, n + 1):
        if k not in memo:
            c = component_basis(pres, standard_labels(k), store)
            # the basis trees on each block, as the rewriting on {1..k} lists them
            trees_on = c.rewriting.normal_trees.__getitem__
            memo[k] = next((x for x in grafted_relations(pres, c.labels, trees_on) if c.coords(x)), None)
        bad = memo[k]
        if bad is not None:
            break
    lg = _groebner_dims(presentation("liegriess"), n)
    return {
        "n": n,
        "composite": dict(component_basis(pres, standard_labels(n), store).dims),
        "liegriess_dims": {k: sum(lg[k].values()) for k in range(1, n + 1)},
        "witness": None if bad is None else repr(bad),
        "pass": bad is None,
    }
