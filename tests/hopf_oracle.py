"""Reference Hopf and differential checks of the Ramanujan operad.

``hopf_check`` builds both sides of coassociativity and of the coderivation
identities as free-operad tensors and always compares their normal forms,
basis tree by basis tree.  The tests compare ``ram.hopf_check``, which
normalises only when the free tensors differ, against it.

The ideal checks here loop over the grafted span
(``span_oracle.grafted_ideal_span``) at arity n; the engine's verdicts read
the one-step rows e_t - nf(t) at arity n, then n - 1 down to 3, instead
(``operad.one_step_witness``).  On the faults of the tests the two routes
agree on pass or fail, while their witnesses differ in shape.
"""

from span_oracle import grafted_ideal_span

from ramops import quotient, ram
from ramops.cache import default_store
from ramops.labels import standard_labels
from ramops.linalg import bump
from ramops.operad import component_basis, tree_h
from ramops.ram import (
    coproduct,
    differential,
    presentation,
    tensor_normal_form,
)
from ramops.reports import verdict


def coproduct_nf(t, comp):
    """(nf (x) nf) of the free coproduct of the tree t, on the component's
    basis trees."""
    return tensor_normal_form(coproduct(comp.monomial_element(t)), comp).terms


def hopf_check(n, store=None):
    """Coproduct facts at arity n: kills the ideal, coassociative, coderivations."""
    store = store or default_store()
    pres = presentation("ram")
    labels = standard_labels(n)
    comp = component_basis(pres, labels, store)
    verdicts = []

    bad = None
    for idx, rel in enumerate(grafted_ideal_span(pres, labels)):
        reduced = tensor_normal_form(coproduct(rel), comp)
        if not reduced.is_zero():
            bad = {"relation_index": idx, "element": repr(rel)}
            break
    verdicts.append(verdict("coproduct_kills_ideal", bad is None, bad, n=n))

    bad = None
    for b in comp.basis:
        el = comp.monomial_element(b)
        delta = coproduct(el)
        left = {}
        right = {}
        for (t1, t2), c in delta.terms.items():
            for u1, u2, s in ram._coproduct_tree(t1, pres.gens):
                bump(left, (u1, u2, t2), c * s)
            for v1, v2, s in ram._coproduct_tree(t2, pres.gens):
                bump(right, (t1, v1, v2), c * s)
        comps = (comp, comp, comp)
        if quotient.tensor_normal_form(left, comps) != quotient.tensor_normal_form(right, comps):
            bad = {"basis_tree": repr(b)}
            break
    verdicts.append(verdict("coproduct_coassociative", bad is None, bad, n=n))

    for which in ("down", "up"):
        bad = None
        for b in comp.basis:
            el = comp.monomial_element(b)
            lhs = tensor_normal_form(coproduct(differential(el, which)), comp)
            rhs = coproduct(el)._like({})
            for (t1, t2), c in coproduct(el).terms.items():
                d1 = differential(comp.monomial_element(t1), which)
                for t1d, c1 in d1.terms.items():
                    rhs._add_term((t1d, t2), c * c1)
                d2 = differential(comp.monomial_element(t2), which)
                sgn = -1 if tree_h(t1, pres.gens) & 1 else 1
                for t2d, c2 in d2.terms.items():
                    rhs._add_term((t1, t2d), c * c2 * sgn)
            if tensor_normal_form(rhs, comp).terms != lhs.terms:
                bad = {"basis_tree": repr(b), "differential": which}
                break
        verdicts.append(verdict(f"coderivation_{which}", bad is None, bad, n=n))
    return verdicts


def differentials_preserve_ideal(n, store=None):
    """operad_{down,up}_preserves_ideal at arity n, on the grafted span."""
    pres = presentation("ram")
    labels = standard_labels(n)
    comp = component_basis(pres, labels, store or default_store())
    verdicts = []
    for which in ("down", "up"):
        bad = None
        for idx, rel in enumerate(grafted_ideal_span(pres, labels)):
            if not comp.normal_form(differential(rel, which)).is_zero():
                bad = {"relation_index": idx}
                break
        verdicts.append(verdict(f"operad_{which}_preserves_ideal", bad is None, bad, n=n))
    return verdicts
