"""The linear dual of the forest-algebra cooperad and the comparison map.

A linear form on a quotient component is stored by its coordinates against
the chosen monomial basis.  Composition of forms is the transpose of
cocomposition, with the pairing convention
``<f (x) g, u (x) v> = (-1)**(h(g) h(u)) f(u) g(v)``.

The comparison map sends the operad generators E, L, G to the dual basis
elements 1*, a*, b*; trees are evaluated by replacing internal compositions
with dual composition.  The verdict machinery checks that the map kills the
operad ideal, assembles its matrix per bidegree against the dual basis, and
reports per-bidegree and overall isomorphism verdicts for a given arity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import quotient
from .cache import ComponentStore, default_store
# theta stays bound here: perfbench's self-tests check that the tracer
# patches every module's binding of it, this one included
from .cooperad import _differentials, cocomposition, theta  # noqa: F401
from .graphalg import (
    AlgebraElement,
    GraphComponent,
    R_PRESENTATION,
    algebra_basis,
    monomial_from_word,
    multiply,
)
from .labels import Atom, BiDegree, HASH, STAR, check_label_set
from .linalg import SparseMatrix, bump, rank, vec_add_scaled
from .operad import OperadElement, component_basis, ideal_span, is_leaf, tree_h
from .ram import ResourceBoundError, coproduct, differential, presentation


class LinearForm:
    """Element of the dual of one quotient component, in dual-basis coordinates."""

    __slots__ = ("component", "coords", "bidegree")

    def __init__(
        self,
        component: GraphComponent,
        coords: Mapping[int, Fraction] | None = None,
        bidegree: BiDegree | None = None,
    ):
        self.component = component
        self.coords: dict[int, Fraction] = dict(coords) if coords else {}
        self.bidegree = bidegree

    @property
    def labels(self):
        return self.component.labels

    def is_zero(self) -> bool:
        return not self.coords

    def add_scaled(self, other: "LinearForm", c: Fraction) -> None:
        vec_add_scaled(self.coords, other.coords, c)

    def value_on(self, x: AlgebraElement) -> Fraction:
        """Pair the form with an algebra element (reduced first)."""
        total = Fraction(0)
        for slot, c in self.component.coords(x).items():
            f = self.coords.get(slot)
            if f:
                total += f * c
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearForm)
            and self.component.labels == other.component.labels
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.component.labels, frozenset(self.coords.items())))

    def __repr__(self) -> str:
        from .graphalg import monomial_str

        if not self.coords:
            return "0"
        return " + ".join(
            f"{c}*{monomial_str(self.component.basis[slot], self.component.pres)}^*"
            for slot, c in sorted(self.coords.items())
        ).replace("+ -", "- ")


def dual_basis_element(
    labels: Iterable[Atom],
    which: str,
    i: Atom | None = None,
    j: Atom | None = None,
    store: ComponentStore | None = None,
) -> LinearForm:
    """1*, a*[i,j] or b*[i,j] on the component of the given vertex set."""
    pres = R_PRESENTATION
    labels = check_label_set(labels)
    store = store or default_store()
    comp = algebra_basis(pres, labels, "forest", store)
    if which == "one":
        unit = tuple(() for _ in pres.colors)
        return LinearForm(comp, {comp.slot(unit): Fraction(1)}, (0, 0))
    if which not in ("astar", "bstar"):
        raise ValueError("which must be one | astar | bstar")
    if i == j or i not in labels or j not in labels:
        raise ValueError("need two distinct vertices from the label set")
    color = "a" if which == "astar" else "b"
    sign, key = monomial_from_word(pres, [(color, i, j)], "forest")
    ci = pres.color_index[color]
    return LinearForm(comp, {comp.slot(key): Fraction(sign)}, pres.colors[ci].bidegree)


def dual_compose(
    f: LinearForm,
    g: LinearForm,
    place: Atom = STAR,
    store: ComponentStore | None = None,
) -> LinearForm:
    """Composition in the dual operad: the transpose of cocomposition.

    <f o g, x> = sum over theta(x) = sum u(x)v of
    (-1)**(h(g) h(u)) <f,u> <g,v>, read off the cocomposition row of each
    basis monomial x of the output bidegree.
    """
    store = store or default_store()
    pres = f.component.pres
    if place not in f.labels:
        raise ValueError(f"place {place!r} not among the labels of f")
    I = tuple(a for a in f.labels if a != place)
    J = g.labels
    if set(I) & set(J):
        raise ValueError("label sets must be disjoint")
    cocomp = cocomposition(pres, I, J, place, store)
    comp = cocomp.union
    out_deg = None
    if f.bidegree is not None and g.bidegree is not None:
        out_deg = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    out = LinearForm(comp, None, out_deg)
    if f.is_zero() or g.is_zero():
        return out
    odd_g = g.bidegree is not None and g.bidegree[0] & 1
    left_odd = cocomp.left.odd
    fc, gc = f.coords, g.coords
    if out_deg is None:
        slots = range(comp.dim)
    else:
        slots = comp.slots_by_degree.get(out_deg, ())
    positions = comp.basis_positions
    for slot_x in slots:
        total = Fraction(0)
        for ls, rs, c in cocomp.row_at(positions[slot_x]):
            fu = fc.get(ls)
            if not fu:
                continue
            gv = gc.get(rs)
            if not gv:
                continue
            term = c * fu * gv
            total += -term if odd_g and left_odd[ls] else term
        if total:
            out.coords[slot_x] = total
    return out


# forms of trees, per store: a form points at components of its store
_RHO_MEMO = quotient.per_store_memo()


def rho(x: OperadElement, store: ComponentStore | None = None) -> LinearForm:
    """Evaluate the comparison map on an operad element.

    Generators map to the dual basis; each internal composition becomes a
    dual composition.
    """
    store = store or default_store()
    comp = algebra_basis(R_PRESENTATION, x.labels, "forest", store)
    out = LinearForm(comp, None, x.bidegree())
    for t, c in x.terms.items():
        out.add_scaled(_rho_tree(t, store), c)
    return out


_GENERATOR_DUALS = {"E": "one", "L": "astar", "G": "bstar"}


def _rho_tree(t, store: ComponentStore) -> LinearForm:
    memo = _RHO_MEMO.setdefault(store, {})
    if t in memo:
        return memo[t]
    if is_leaf(t):
        form = dual_basis_element((t,), "one", store=store)
    else:
        g, l, r = t
        kind = _GENERATOR_DUALS[g]
        if kind == "one":
            top = dual_basis_element((STAR, HASH), "one", store=store)
        else:
            top = dual_basis_element((STAR, HASH), kind, STAR, HASH, store=store)
        left_form = _rho_tree(l, store)
        right_form = _rho_tree(r, store)
        form = dual_compose(top, left_form, STAR, store)
        form = dual_compose(form, right_form, HASH, store)
    memo[t] = form
    return form


def conjecture_verdict(
    n: int, store: ComponentStore | None = None, max_n: int = 4
) -> dict:
    """Per-bidegree comparison of the operad component with the dual component.

    Reports (a) whether the map kills every relation instance, (b) matrix
    rank per bidegree block against the dual basis, (c) dimension equality
    and the overall isomorphism verdict for this arity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise ResourceBoundError(f"arity {n} exceeds the configured bound {max_n}")
    store = store or default_store()
    pres = presentation("ram")
    labels = tuple(range(1, n + 1))
    ram_comp = component_basis(pres, labels, store)
    r_comp = algebra_basis(R_PRESENTATION, labels, "forest", store)

    kill_ok = True
    kill_witness = None
    for idx, rel in enumerate(ideal_span(pres, labels)):
        if not rho(rel, store).is_zero():
            kill_ok = False
            kill_witness = {"relation_index": idx, "element": repr(rel)}
            break

    blocks = []
    all_iso = kill_ok
    for deg in sorted(ram_comp.slots_by_degree.keys() | r_comp.slots_by_degree.keys()):
        trees = [ram_comp.basis[s] for s in ram_comp.slots_by_degree.get(deg, ())]
        slots = r_comp.slots_by_degree.get(deg, [])
        col_of = {s: c for c, s in enumerate(slots)}
        mat = SparseMatrix(len(slots))
        for t in trees:
            form = _rho_tree(t, store)
            row = {}
            for s, val in form.coords.items():
                if s in col_of:
                    row[col_of[s]] = val
            if row:
                mat.add_row(row)
        rk = rank(mat)
        iso = len(trees) == len(slots) == rk
        all_iso = all_iso and iso
        blocks.append(
            {
                "h": deg[0],
                "w": deg[1],
                "dim_operad": len(trees),
                "dim_dual": len(slots),
                "rank": rk,
                "isomorphism": iso,
            }
        )
    return {
        "n": n,
        "relation_kill": kill_ok,
        "relation_kill_witness": kill_witness,
        "blocks": blocks,
        "dims_equal": all(b["dim_operad"] == b["dim_dual"] for b in blocks),
        "isomorphism": all_iso,
    }


def compat_checks(n: int, store: ComponentStore | None = None) -> dict:
    """Differential intertwining (up to one global sign each) and the
    coalgebra-morphism identity, on full bases at the given arity.

    The forms of basis trees are paired with tables indexed by output slot,
    so that a sparse form is paired sparsely: the basis coordinates of d of
    each basis slot of R(n) (``cooperad._differentials``), and the slot
    expansion of each product u.v of basis monomials.  Pairs are scanned in
    the order (tree, slot) and (tree, u slot, v slot), so a failure reports
    what the element-by-element scan reports.
    """
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
        d_into: list[list] = [[] for _ in range(r_comp.dim)]
        for slot, (_, d_slots) in enumerate(_differentials(r_comp, alg_name, store)):
            for target, c in d_slots:
                d_into[target].append((slot, c))

        pairs = []  # (tree, slot) pairs where a side is nonzero, in that order
        for t, odd in zip(ram_comp.basis, ram_comp.odd):
            lhs = rho(differential(ram_comp.monomial_element(t), op_name), store).coords
            rhs: dict = {}  # slot of m -> <rho(t), d(m)> (-1)**h(t)
            for target, f in _rho_tree(t, store).coords.items():
                for slot, c in d_into[target]:
                    bump(rhs, slot, -f * c if odd else f * c)
            pairs += [(lhs.get(s, 0), rhs.get(s, 0)) for s in sorted(lhs.keys() | rhs.keys())]
        sign = None
        ok = True
        for lhs, rhs in pairs:
            if rhs == 0 or lhs == 0:
                ok = False
                break
            s = lhs / rhs
            if s not in (1, -1):
                ok = False
                break
            if sign is None:
                sign = int(s)
            elif sign != s:
                ok = False
                break
        report[key] = {"pass": ok, "global_sign": sign}

    products: list[list] = [[] for _ in range(r_comp.dim)]  # slot -> (u slot, v slot, c)
    for su, u in enumerate(r_comp.basis):
        for sv, v in enumerate(r_comp.basis):
            prod = multiply(u, v, R_PRESENTATION, "forest")
            if prod is not None:
                for slot, c in r_comp.slot_expansion(prod[1]):
                    products[slot].append((su, sv, prod[0] * c))
    odd_u = r_comp.odd
    bad = None
    for t in ram_comp.basis:
        rhs: dict = {}
        for slot, f in _rho_tree(t, store).coords.items():
            for su, sv, c in products[slot]:
                bump(rhs, (su, sv), f * c)
        lhs: dict = {}
        for (t1, t2), c in coproduct(ram_comp.monomial_element(t)).terms.items():
            odd2 = tree_h(t2, pres.gens) & 1
            f2 = _rho_tree(t2, store).coords
            for su, val1 in _rho_tree(t1, store).coords.items():
                c1 = -c * val1 if odd2 and odd_u[su] else c * val1
                for sv, val2 in f2.items():
                    bump(lhs, (su, sv), c1 * val2)
        if lhs != rhs:
            su, sv = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
            bad = {
                "tree": repr(t),
                "u_slot": su,
                "v_slot": sv,
                "lhs": str(lhs.get((su, sv), 0)),
                "rhs": str(rhs.get((su, sv), 0)),
            }
            break
    report["coalgebra_morphism"] = {"pass": bad is None, "witness": bad}
    return report
