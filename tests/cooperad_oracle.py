"""Reference cocomposition and dual composition, one monomial at a time.

``theta`` splits every monomial of its input and reduces both tensor
factors of the sum; ``dual_compose`` runs it on every basis monomial of the
output bidegree and pairs the image with the two forms.  Slow, but simple
enough to trust; the tests compare the table-driven ``cooperad.theta`` and
``dual.dual_compose`` against them.
"""

from fractions import Fraction

from ramops import quotient
from ramops.cooperad import TensorAlgebraElement
from ramops.dual import LinearForm
from ramops.graphalg import algebra_basis, monomial_bidegree, monomial_from_word
from ramops.labels import STAR, check_label_set, sort_atoms


def theta(pres, I, J, x, place=STAR, store=None):
    """Normalised cocomposition of x along I | J, place-holder on the I side."""
    I = check_label_set(I)
    J = check_label_set(J)
    iset, jset = set(I), set(J)
    assert not iset & jset and place not in iset | jset
    assert x.labels == sort_atoms(I + J)
    left_labels = sort_atoms(I + (place,))
    out = TensorAlgebraElement(left_labels, J, pres)
    for m, coeff in x.terms.items():
        sign = 1
        left_word: list = []
        right_word: list = []
        seen_right_odd = 0
        for ci, edges in enumerate(m):
            cname = pres.colors[ci].name
            odd = pres.is_odd(ci)
            orientation = pres.colors[ci].orientation
            for u, v in edges:
                if u in iset and v in iset:
                    side, letter, extra = 0, (cname, u, v), 1
                elif u in jset and v in jset:
                    side, letter, extra = 1, (cname, u, v), 1
                elif u in iset:
                    side, letter, extra = 0, (cname, u, place), 1
                elif v in iset:
                    side, letter, extra = 0, (cname, v, place), orientation
                else:
                    raise ValueError(f"edge endpoint outside I + J in {m}")
                sign *= extra
                if side == 0:
                    if odd and (seen_right_odd & 1):
                        sign = -sign
                    left_word.append(letter)
                else:
                    if odd:
                        seen_right_odd += 1
                    right_word.append(letter)
        lres = monomial_from_word(pres, left_word, "forest")
        if lres is None:
            continue
        rres = monomial_from_word(pres, right_word, "forest")
        if rres is None:
            continue
        out.add_term(lres[1], rres[1], coeff * sign * lres[0] * rres[0])
    comps = (
        algebra_basis(pres, left_labels, "forest", store),
        algebra_basis(pres, J, "forest", store),
    )
    terms = quotient.tensor_normal_form(out.terms, comps)
    return TensorAlgebraElement(left_labels, J, pres, terms)


def dual_compose(f, g, place=STAR, store=None):
    """<f o g, x> = sum over theta(x) = sum u(x)v of (-1)**(h(g) h(u)) <f,u> <g,v>."""
    pres = f.component.pres
    I = tuple(a for a in f.labels if a != place)
    J = g.labels
    comp = algebra_basis(pres, sort_atoms(I + J), "forest", store)
    out_deg = None
    if f.bidegree is not None and g.bidegree is not None:
        out_deg = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    out = LinearForm(comp, None, out_deg)
    if f.is_zero() or g.is_zero():
        return out
    hg = g.bidegree[0] if g.bidegree is not None else 0
    slot_left = {m: s for s, m in enumerate(f.component.basis)}
    slot_right = {m: s for s, m in enumerate(g.component.basis)}
    for slot_x, m in enumerate(comp.basis):
        if out_deg is not None and monomial_bidegree(m, pres) != out_deg:
            continue
        total = Fraction(0)
        for (u, v), c in theta(pres, I, J, comp.monomial_element(m), place, store).terms.items():
            fu = f.coords.get(slot_left.get(u, -1))
            gv = g.coords.get(slot_right.get(v, -1))
            if not fu or not gv:
                continue
            hu = monomial_bidegree(u, pres)[0]
            sign = -1 if (hg & 1) and (hu & 1) else 1
            total += c * sign * fu * gv
        if total:
            out.coords[slot_x] = total
    return out
