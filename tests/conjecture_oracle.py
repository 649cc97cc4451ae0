"""The comparison map against the grafted relation span, the oracle of
``conjecture_verdict``'s ``relation_kill``.

Before the verdict read the one-step rows e_t - nf(t) of the ``ram``
rewriting (``operad.one_step_witness``), it evaluated the map on every
element of the grafted span (``span_oracle.grafted_ideal_span``): each
relation grafted into every monomial, and every generator put on top of a
lower-arity span element.  Both span the ideal of ``ram`` (the one-step
rows modulo lower arities, which the verdict reads too), so the two routes
must agree on whether the map kills it.
"""

from span_oracle import grafted_ideal_span

from ramops.dual import rho
from ramops.labels import standard_labels
from ramops.ram import presentation


def relation_kill(n, store):
    """(kills, witness) of the map on the grafted span of ``ram`` at arity n."""
    for idx, rel in enumerate(grafted_ideal_span(presentation("ram"), standard_labels(n))):
        if not rho(rel, store).is_zero():
            return False, {"relation_index": idx, "element": repr(rel)}
    return True, None
