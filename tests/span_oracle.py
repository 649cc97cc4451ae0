"""The grafted-span route to an operad component, the oracle of the
composite components.

Before presentations declared a factor, every operad component was built
from ``grafted_span``: each relation grafted into every monomial, and every
generator put on top of a lower-arity span element, brought to reduced
row-echelon form.  The composite Com o F must be a change of basis of that
quotient: same dims per bidegree, every ambient tree congruent to its
expansion on the combs, and the combs independent.
"""

from ramops.linalg import Echelon, rref
from ramops.operad import grafted_span


def span_echelon(pres, n: int) -> tuple[list, Echelon]:
    """The ambient trees on {1..n} and the RREF of the grafted span."""
    monomials, span = grafted_span(pres, n)
    return monomials, rref(span)
