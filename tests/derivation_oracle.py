"""The derivation identities on every ambient tree and forest mask.

``suites._derivation_checks`` checks d^2 = 0 for each differential and
d_up d_down + d_down d_up = weight on E, L and G for the operad, under the
premise that ``ram._derivation_signs`` is the Koszul sign, and on the basis
masks of the forest algebra, which suffices for derivations (see the
``suites`` docstring).  This oracle checks them on every ambient tree and
every forest mask instead; on the faults of the tests both routes must fail
the same verdicts.  The maps are read through their modules at call time,
so a fault patched there reaches the oracle too.
"""

from ramops import graphalg, ram
from ramops.graphalg import R_PRESENTATION, algebra_basis
from ramops.labels import standard_labels
from ramops.operad import component_basis, enumerate_tree_monomials


def failing_identities(n, store=None):
    """The names of the identity verdicts at arity n that fail on some
    ambient tree of Ram or forest mask of the two-color algebra."""
    pres = ram.presentation("ram")
    labels = standard_labels(n)
    comp = component_basis(pres, labels, store)
    gcomp = algebra_basis(R_PRESENTATION, labels, "forest", store)
    sides = (
        ("operad", comp, enumerate_tree_monomials(pres.gens, labels), lambda x, w: ram.differential(x, w)),
        ("algebra", gcomp, gcomp.masks, lambda x, w: graphalg.differential_algebra(x, w)),
    )
    failed = set()
    for side, c, monomials, d in sides:
        for m in monomials:
            x = c.monomial_element(m)
            for which in ("down", "up"):
                if not d(d(x, which), which).is_zero():
                    failed.add(f"{side}_{which}_squares_to_zero")
            if d(d(x, "up"), "down") + d(d(x, "down"), "up") != x.scaled(x.bidegree()[1]):
                failed.add(f"{side}_laplacian_is_weight")
    return failed
