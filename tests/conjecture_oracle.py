"""The comparison map against the grafted relation span, the oracle of
``conjecture_verdict``'s ``relation_kill``.

Before the verdict read the rows e_m - nf(m) of the ``ram`` build, it
evaluated the map on every element of ``operad.ideal_span``: each relation
grafted into every monomial, and every generator put on top of a
lower-arity span element.  Both sets span the ideal of ``ram``, so the two
routes must agree on whether the map kills it.
"""

from ramops.dual import rho
from ramops.labels import standard_labels
from ramops.operad import ideal_span
from ramops.ram import presentation


def relation_kill(n, store):
    """(kills, witness) of the map on the grafted span of ``ram`` at arity n."""
    for idx, rel in enumerate(ideal_span(presentation("ram"), standard_labels(n))):
        if not rho(rel, store).is_zero():
            return False, {"relation_index": idx, "element": repr(rel)}
    return True, None
