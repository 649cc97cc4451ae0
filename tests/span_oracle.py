"""The grafted-span route to an operad component, the oracle of the rewriting
route.

Before presentations declared a factor, every operad component was built
from ``grafted_span``: each relation grafted into every monomial, and every
generator put on top of a lower-arity span element.  Those rows span the
same ideal as the rows m - nf(m) of the rewriting route, and a reduced
row-echelon form is unique, so the two routes must give equal payloads.
"""

from ramops import quotient
from ramops.linalg import quotient_basis
from ramops.operad import Component, grafted_span


def payload(pres, n: int, monomials, span) -> dict:
    """The payload ``quotient`` writes for a component built from these rows."""
    basis, ech = quotient_basis(span, len(monomials))
    std = quotient.Standard(Component, pres, monomials, ech, basis)
    return quotient._encode(Component, pres, n, {}, std)


def span_payload(pres, n: int) -> dict:
    return payload(pres, n, *grafted_span(pres, n))
