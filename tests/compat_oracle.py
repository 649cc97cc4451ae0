"""Reference compatibility checks of the comparison map, element by element.

``compat_checks`` builds d(m) and every product u.v of R(n) basis
monomials as algebra elements and pairs each with the form of every basis
tree through ``LinearForm.value_on``.  Slow, but simple enough to trust;
the tests compare ``dual.compat_checks``, which reads shared slot tables,
against it.
"""

from fractions import Fraction

from ramops.cache import default_store
from ramops.dual import _rho_tree, rho
from ramops.graphalg import (
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    element_multiply,
    monomial_bidegree,
)
from ramops.operad import component_basis, tree_bidegree
from ramops.ram import coproduct, differential, presentation


def compat_checks(n, store=None):
    """Differential intertwining (up to one global sign each) and the
    coalgebra-morphism identity, on full bases at the given arity."""
    store = store or default_store()
    pres = presentation("ram")
    labels = tuple(range(1, n + 1))
    ram_comp = component_basis(pres, labels, store)
    r_comp = algebra_basis(R_PRESENTATION, labels, "forest", store)

    report: dict = {"n": n}
    # degree-matched pairs: the transpose of the algebra differential a->b
    # has bidegree (-1,0), like the operad differential G->L, and vice versa.
    # The graded transpose of an odd operator carries (-1)**h(x); on top of
    # that one global dualization sign per equation is discovered and reported.
    for op_name, alg_name, key in (("down", "up", "down_intertwining"),
                                   ("up", "down", "up_intertwining")):
        pairs = []
        for t in ram_comp.basis:
            el = ram_comp.monomial_element(t)
            h = tree_bidegree(t, pres.gens)[0]
            lhs_form = rho(differential(el, op_name), store)
            rho_el = rho(el, store)
            for slot, m in enumerate(r_comp.basis):
                lhs = lhs_form.coords.get(slot, Fraction(0))
                dm = differential_algebra(r_comp.monomial_element(m), alg_name)
                rhs = rho_el.value_on(dm) * (-1 if h & 1 else 1)
                pairs.append((lhs, rhs))
        sign = None
        ok = True
        for lhs, rhs in pairs:
            if lhs == rhs == 0:
                continue
            if rhs == 0 or lhs == 0:
                ok = False
                break
            s = Fraction(lhs) / rhs
            if s not in (1, -1):
                ok = False
                break
            if sign is None:
                sign = int(s)
            elif sign != s:
                ok = False
                break
        report[key] = {"pass": ok, "global_sign": sign}

    bad = None
    for t in ram_comp.basis:
        el = ram_comp.monomial_element(t)
        rho_t = rho(el, store)
        delta = coproduct(el)
        rho_parts = [
            (c, _rho_tree(t1, store), _rho_tree(t2, store), tree_bidegree(t2, pres.gens)[0])
            for (t1, t2), c in delta.terms.items()
        ]
        for su, u in enumerate(r_comp.basis):
            hu = monomial_bidegree(u, R_PRESENTATION, n)[0]
            for sv, v in enumerate(r_comp.basis):
                rhs = rho_t.value_on(
                    element_multiply(
                        r_comp.monomial_element(u), r_comp.monomial_element(v), "forest"
                    )
                )
                lhs = Fraction(0)
                for c, f1, f2, h2 in rho_parts:
                    val1 = f1.coords.get(su, Fraction(0))
                    if not val1:
                        continue
                    val2 = f2.coords.get(sv, Fraction(0))
                    if not val2:
                        continue
                    sign = -1 if (h2 & 1) and (hu & 1) else 1
                    lhs += c * sign * val1 * val2
                if lhs != rhs:
                    bad = {
                        "tree": repr(t),
                        "u_slot": su,
                        "v_slot": sv,
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
                    break
            if bad:
                break
        if bad:
            break
    report["coalgebra_morphism"] = {"pass": bad is None, "witness": bad}
    return report
