"""The ambient rows, the oracle of the one-step ideal verdicts.

``operad.one_step_witness`` decides whether a linear map kills the ideal of
an operad from the rows e_t - nf(t) of the one-step trees t alone (see the
``operad`` docstring).  Before it, the verdicts read the row e_m - nf(m) of
every ambient tree m: modulo the ideal each tree equals its normal form, so
the rows lie in the ideal, and they span it because the basis is
independent in the quotient.  Both routes must agree on pass or fail.
"""

from ramops.labels import standard_labels
from ramops.linalg import vec_add_scaled
from ramops.operad import component_basis, enumerate_tree_monomials


def ambient_witness(pres, n, image, store=None):
    """The first ambient tree m whose row e_m - nf(m) the linear map
    ``image`` does not kill, at arity n, then n - 1 down to 3, or None.

    ``image(t, comp)`` is the map on a tree t of the component comp on
    {1..k}, as a dict of coefficients, as for ``one_step_witness``.  Basis
    trees are checked too: a row is zero only if the expansion is the tree
    itself.
    """
    for k in range(n, 2, -1):
        comp = component_basis(pres, standard_labels(k), store)
        basis_images = [image(b, comp) for b in comp.basis]
        slot_of = {b: slot for slot, b in enumerate(comp.basis)}
        for m in enumerate_tree_monomials(pres.gens, comp.labels):
            slot = slot_of.get(m)
            row = dict(image(m, comp) if slot is None else basis_images[slot])
            for s, c in comp.slot_expansion(m):
                vec_add_scaled(row, basis_images[s], -c)
            if row:
                return m
    return None
