"""Reference cocomposition, dual composition and cooperad checks, one
monomial at a time.

``raw_theta`` splits every monomial of its input and ``theta`` reduces
both tensor factors of the sum; ``tensor_multiply`` is the product of two
unreduced tensors, for the algebra-morphism test; ``dual_compose`` runs
``theta`` on every basis monomial of the union and pairs the image with the
two forms, each term signed by the h-parities of its two factors.
``cooperad_axiom_check`` and ``theta_intertwines_differentials`` build both
sides of each identity as tensor elements, basis element by basis element,
through ``cooperad.theta``.  Slow, but simple enough to trust; the tests
compare the table-driven ``cooperad`` and ``dual`` functions against them.
"""

from fractions import Fraction

from ramops import quotient
from ramops.cache import default_store
from ramops.cooperad import tensor_normal_form
from ramops.cooperad import theta as table_theta
from ramops.dual import LinearForm
from ramops.graphalg import (
    AlgebraElement,
    algebra_basis,
    differential_algebra,
    monomial_bidegree,
    monomial_from_word,
    monomial_str,
    monomials_of_masks,
    multiply,
)
from ramops.labels import HASH, STAR, check_label_set, sort_atoms
from ramops.linalg import ONE, bump
from ramops.quotient import Tensor
from ramops.reports import verdict


def raw_theta(pres, I, J, x, place=STAR):
    """Cocomposition of x along I | J, place-holder on the I side, with
    neither tensor factor reduced."""
    I = check_label_set(I)
    J = check_label_set(J)
    iset, jset = set(I), set(J)
    assert not iset & jset and place not in iset | jset
    assert x.labels == sort_atoms(I + J)
    left_labels = sort_atoms(I + (place,))
    out = Tensor((AlgebraElement(left_labels, pres), AlgebraElement(J, pres)))
    for m, coeff in x.terms.items():
        sign = 1
        left_word: list = []
        right_word: list = []
        seen_right_odd = 0
        (key,) = monomials_of_masks(pres, x.labels, [m])
        for ci, edges in enumerate(key):
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
        lres = monomial_from_word(pres, left_labels, left_word, "forest")
        if lres is None:
            continue
        rres = monomial_from_word(pres, J, right_word, "forest")
        if rres is None:
            continue
        out._add_term((lres[1], rres[1]), coeff * sign * lres[0] * rres[0])
    return out


def theta(pres, I, J, x, place=STAR, store=None):
    """Normalised cocomposition of x along I | J, place-holder on the I side."""
    out = raw_theta(pres, I, J, x, place)
    left_labels, right_labels = out.labels
    comps = (
        algebra_basis(pres, left_labels, "forest", store),
        algebra_basis(pres, right_labels, "forest", store),
    )
    return out._like(quotient.tensor_normal_form(out.terms, comps))


def tensor_multiply(x, y, mode="forest"):
    """(u(x)v)(u'(x)v') = (-1)**(h(v)h(u')) uu' (x) vv'."""
    out = x._like({})
    pres = x.factors[0].pres
    nl, nr = map(len, x.labels)
    for (u, v), c1 in x.terms.items():
        hv = monomial_bidegree(v, pres, nr)[0]
        for (u2, v2), c2 in y.terms.items():
            hu2 = monomial_bidegree(u2, pres, nl)[0]
            left = multiply(u, u2, pres, nl, mode)
            if left is None:
                continue
            right = multiply(v, v2, pres, nr, mode)
            if right is None:
                continue
            sign = -1 if (hv & 1) and (hu2 & 1) else 1
            out._add_term((left[1], right[1]), c1 * c2 * sign * left[0] * right[0])
    return out


def dual_compose(f, g, place=STAR, store=None):
    """<f o g, x> = sum over theta(x) = sum u(x)v of (-1)**(h(v) h(u)) <f,u> <g,v>,
    on every basis monomial x of the union: h(v) is h(g) wherever <g,v> is
    nonzero, and g may be of mixed degree."""
    pres = f.component.pres
    I = tuple(a for a in f.labels if a != place)
    J = g.labels
    comp = algebra_basis(pres, sort_atoms(I + J), "forest", store)
    out = LinearForm(comp)
    slot_left = {m: s for s, m in enumerate(f.component.basis)}
    slot_right = {m: s for s, m in enumerate(g.component.basis)}
    for slot_x, m in enumerate(comp.basis):
        total = Fraction(0)
        for (u, v), c in theta(pres, I, J, comp.monomial_element(m), place, store).terms.items():
            fu = f.coords.get(slot_left.get(u, -1))
            gv = g.coords.get(slot_right.get(v, -1))
            if not fu or not gv:
                continue
            hu = monomial_bidegree(u, pres, len(f.labels))[0]
            hv = monomial_bidegree(v, pres, len(J))[0]
            sign = -1 if (hv & 1) and (hu & 1) else 1
            total += c * sign * fu * gv
        if total:
            out.coords[slot_x] = total
    return out


def cooperad_axiom_check(pres, I, J, K, store=None):
    """Both coassociativity equations on every basis element of the union
    component."""
    I = check_label_set(I)
    J = check_label_set(J)
    K = check_label_set(K)
    store = store or default_store()
    labels = sort_atoms(I + J + K)
    comp = algebra_basis(pres, labels, "forest", store)
    ij = sort_atoms(I + J)
    jk = sort_atoms(J + K)
    ik = sort_atoms(I + K)
    j_hash = sort_atoms(J + (HASH,))
    i_hash = sort_atoms(I + (HASH,))
    i_star = sort_atoms(I + (STAR,))

    ij_hash = sort_atoms(ij + (HASH,))
    ik_star = sort_atoms(ik + (STAR,))

    bad_nested = None
    bad_swapped = None
    for b in comp.basis:
        el = comp.monomial_element(b)
        # theta(ij, K) starts both the nested and the swapped left-hand side
        first = table_theta(pres, ij, K, el, HASH, store).terms

        lhs: dict = {}
        lhs2: dict = {}
        for (ml, mk), c in first.items():
            el_l = AlgebraElement(ij_hash, pres, {ml: ONE})
            for (m1, m2), c2 in table_theta(pres, I, j_hash, el_l, STAR, store).terms.items():
                bump(lhs, (m1, m2, mk), c * c2)
            for (m1, mj), c2 in table_theta(pres, i_hash, J, el_l, STAR, store).terms.items():
                bump(lhs2, (m1, mj, mk), c * c2)

        rhs: dict = {}
        for (m1, mjk), c in table_theta(pres, I, jk, el, STAR, store).terms.items():
            el_r = AlgebraElement(jk, pres, {mjk: ONE})
            for (m2, m3), c2 in table_theta(pres, J, K, el_r, HASH, store).terms.items():
                bump(rhs, (m1, m2, m3), c * c2)
        if lhs != rhs and bad_nested is None:
            bad_nested = {"basis_monomial": monomial_str(b, pres, labels)}

        rhs2: dict = {}
        for (ml, mj), c in table_theta(pres, ik, J, el, STAR, store).terms.items():
            el_l = AlgebraElement(ik_star, pres, {ml: ONE})
            hj = monomial_bidegree(mj, pres, len(J))[0]
            for (m1, mk), c2 in table_theta(pres, i_star, K, el_l, HASH, store).terms.items():
                hk = monomial_bidegree(mk, pres, len(K))[0]
                sign = -1 if (hj & 1) and (hk & 1) else 1
                bump(rhs2, (m1, mj, mk), c * c2 * sign)
        if lhs2 != rhs2 and bad_swapped is None:
            bad_swapped = {"basis_monomial": monomial_str(b, pres, labels)}

    split = {"I": list(I), "J": list(J), "K": list(K)}
    verdicts = [
        verdict("cooperad_nested_coassociativity", bad_nested is None, bad_nested, **split),
        verdict("cooperad_swapped_coassociativity", bad_swapped is None, bad_swapped, **split),
    ]
    return verdicts


def theta_intertwines_differentials(pres, I, J, store=None):
    """theta o d = (d (x) id + (-1)**h id (x) d) o theta for both differentials."""
    I = check_label_set(I)
    J = check_label_set(J)
    labels = sort_atoms(I + J)
    store = store or default_store()
    comp = algebra_basis(pres, labels, "forest", store)
    left_labels = sort_atoms(I + (STAR,))
    comp_left = algebra_basis(pres, left_labels, "forest", store)
    comp_right = algebra_basis(pres, J, "forest", store)
    verdicts = []
    for which in ("up", "down"):
        bad = None
        for b in comp.basis:
            el = comp.monomial_element(b)
            lhs = table_theta(pres, I, J, differential_algebra(el, which), STAR, store)
            rhs = Tensor((AlgebraElement(left_labels, pres), AlgebraElement(J, pres)))
            for (ml, mr), c in table_theta(pres, I, J, el, STAR, store).terms.items():
                d_left = differential_algebra(
                    AlgebraElement(left_labels, pres, {ml: Fraction(1)}), which
                )
                for mld, cl in d_left.terms.items():
                    rhs._add_term((mld, mr), c * cl)
                hl = monomial_bidegree(ml, pres, len(left_labels))[0]
                sgn = -1 if hl & 1 else 1
                d_right = differential_algebra(
                    AlgebraElement(J, pres, {mr: Fraction(1)}), which
                )
                for mrd, cr in d_right.terms.items():
                    rhs._add_term((ml, mrd), c * cr * sgn)
            if tensor_normal_form(rhs, comp_left, comp_right).terms != lhs.terms:
                bad = {"basis_monomial": monomial_str(b, pres, labels), "differential": which}
                break
        verdicts.append(
            verdict(
                f"theta_intertwines_{which}",
                bad is None,
                bad,
                I=list(I),
                J=list(J),
            )
        )
    return verdicts
