"""The linear dual of the forest-algebra cooperad and the comparison map.

A linear form on a quotient component is stored by its coordinates against
the chosen monomial basis, and nothing else: its bidegree, where it has one,
is read from the bidegrees of its slots.  Composition of forms is the
transpose of cocomposition, with the pairing convention
``<f (x) g, u (x) v> = (-1)**(h(g) h(u)) f(u) g(v)``; g(v) vanishes unless
h(v) = h(g), so the sign is read from the slots u and v, and composition
sums over the supports of the two forms, of any degree or of mixed degree.

The comparison map sends the operad generators E, L, G to the dual basis
elements 1*, a*, b*; trees are evaluated by replacing internal compositions
with dual composition.  The form of g(l, r) is (rho(g) o_* rho(l)) o_#
rho(r), and the partial composite rho(g) o_* rho(l) is kept per store under
(g, l), so that the trees sharing a generator and a left child share it
and each tree's form costs one composition.  The verdict machinery checks
that the map kills the operad ideal (on its one-step rows,
``operad.one_step_witness_at``), keeping each arity's witness per store so
that an arity is walked once whatever arities are asked for, assembles its
matrix per bidegree against the dual basis, and reports per-bidegree and
overall isomorphism verdicts for a given arity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import quotient
from .cache import ComponentStore, default_store
# theta stays bound here: perfbench's self-tests check that the tracer
# patches every module's binding of it, this one included
from .cooperad import cocomposition, theta  # noqa: F401
from .graphalg import (
    AlgebraElement,
    GraphComponent,
    R_PRESENTATION,
    algebra_basis,
    monomial_from_word,
    monomial_str,
    multiply,
)
from .labels import Atom, BiDegree, HASH, STAR, check_label_set
from .linalg import SparseMatrix, bump, rank, vec_add_scaled
from .operad import OperadElement, component_basis, is_leaf, one_step_witness_at, tree_str
from .ram import DEFAULT_MAX_ARITY, ResourceBoundError, coproduct, differential, presentation


class LinearForm:
    """Element of the dual of one quotient component, in dual-basis coordinates."""

    __slots__ = ("component", "coords")

    def __init__(self, component: GraphComponent, coords: Mapping[int, Fraction] | None = None):
        self.component = component
        self.coords: dict[int, Fraction] = dict(coords) if coords else {}

    @property
    def labels(self):
        return self.component.labels

    @property
    def bidegree(self) -> BiDegree | None:
        """The bidegree of every slot of the form; None when it is zero or
        mixed."""
        degrees = {self.component.degrees[slot] for slot in self.coords}
        return degrees.pop() if len(degrees) == 1 else None

    def is_zero(self) -> bool:
        return not self.coords

    def add_scaled(self, other: "LinearForm", c: Fraction) -> None:
        vec_add_scaled(self.coords, other.coords, c)

    def value_on(self, x: AlgebraElement) -> Fraction:
        """Pair the form with an algebra element (reduced first)."""
        total = 0
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
        if not self.coords:
            return "0"
        comp = self.component
        return " + ".join(
            f"{c}*{monomial_str(comp.basis[slot], comp.pres, comp.labels)}^*" for slot, c in sorted(self.coords.items())
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
        return LinearForm(comp, {comp.slot(0): 1})  # the unit's mask is 0
    if which not in ("astar", "bstar"):
        raise ValueError("which must be one | astar | bstar")
    if i == j or i not in labels or j not in labels:
        raise ValueError("need two distinct vertices from the label set")
    color = "a" if which == "astar" else "b"
    sign, key = monomial_from_word(pres, labels, [(color, i, j)], "forest")
    return LinearForm(comp, {comp.slot(key): sign})


def dual_compose(
    f: LinearForm,
    g: LinearForm,
    place: Atom = STAR,
    store: ComponentStore | None = None,
) -> LinearForm:
    """Composition in the dual operad: the transpose of cocomposition.

    <f o g, x> = sum over theta(x) = sum u(x)v of
    (-1)**(h(u) h(v)) <f,u> <g,v>, summed over the supports of f and g
    through the split's transposed rows (``Cocomposition.transposed``);
    h(v) = h(g) wherever <g,v> is nonzero (see the module doc).
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
    by_left = cocomp.transposed()
    left_odd, right_odd = cocomp.left.odd, cocomp.right.odd
    out: dict = {}
    for ls, fu in f.coords.items():
        row, odd = by_left[ls], left_odd[ls]
        for rs, gv in g.coords.items():
            terms = row.get(rs)
            if terms:
                fg = -fu * gv if odd and right_odd[rs] else fu * gv
                for slot_x, c in terms:
                    bump(out, slot_x, fg * c)
    return LinearForm(cocomp.union, out)


# forms of trees, under (g,) of each generator g on {*, #}, and under (g, l)
# of the partial composite rho(g) o_* rho(l), per store: a form points at
# components of its store
_RHO_MEMO = quotient.per_store_memo()

# per store: {arity k: the first one-step tree on {1..k} whose row rho does
# not kill, or None}
_KILL_WITNESS = quotient.per_store_memo()


def rho(x: OperadElement, store: ComponentStore | None = None) -> LinearForm:
    """Evaluate the comparison map on an operad element.

    Generators map to the dual basis; each internal composition becomes a
    dual composition.
    """
    store = store or default_store()
    comp = algebra_basis(R_PRESENTATION, x.labels, "forest", store)
    out = LinearForm(comp)
    for t, c in x.terms.items():
        out.add_scaled(_rho_tree(t, store), c)
    return out


_GENERATOR_DUALS = {"E": "one", "L": "astar", "G": "bstar"}


def _rho_tree(t, store: ComponentStore, keep: bool = True) -> LinearForm:
    """The form of the tree t, from the kept forms of its children; t's own
    form is kept too unless ``keep`` is false."""
    memo = _RHO_MEMO.setdefault(store, {})
    form = memo.get(t)
    if form is not None:
        return form
    if is_leaf(t):
        form = dual_basis_element((t,), "one", store=store)
    else:
        g, l, r = t
        top = memo.get((g,))
        if top is None:
            kind = _GENERATOR_DUALS[g]
            if kind == "one":
                top = dual_basis_element((STAR, HASH), "one", store=store)
            else:
                top = dual_basis_element((STAR, HASH), kind, STAR, HASH, store=store)
            memo[(g,)] = top
        partial = memo.get((g, l))
        if partial is None:
            partial = memo[g, l] = dual_compose(top, _rho_tree(l, store), STAR, store)
        form = dual_compose(partial, _rho_tree(r, store), HASH, store)
    if keep:
        memo[t] = form
    return form


def conjecture_verdict(
    n: int, store: ComponentStore | None = None, max_n: int = DEFAULT_MAX_ARITY
) -> dict:
    """Per-bidegree comparison of the operad component with the dual component.

    Reports (a) whether the map kills the operad ideal, (b) matrix rank per
    bidegree block against the dual basis, (c) dimension equality and the
    overall isomorphism verdict for this arity.

    (a) compares rho(t) with the sum of c rho(b) over the basis expansion
    c b of each one-step tree t at arity n, then n - 1 down to 3, as
    ``operad.one_step_witness`` does: the map kills the ideal at every arity
    up to n; a failure names the first tree t whose row does not vanish.
    Each arity's walk (``operad.one_step_witness_at``) runs once per store,
    its witness kept.  Only the forms of basis trees are kept.
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

    forms = [_rho_tree(b, store) for b in ram_comp.basis]
    witnesses = _KILL_WITNESS.setdefault(store, {})
    bad = None
    for k in range(n, 2, -1):
        if k not in witnesses:
            witnesses[k] = one_step_witness_at(pres, k, lambda t, c: _rho_tree(t, store, keep=False).coords, store)
        bad = witnesses[k]
        if bad is not None:
            break
    kill_ok = bad is None
    kill_witness = None if kill_ok else {"tree": tree_str(bad)}

    blocks = []
    all_iso = kill_ok
    for deg in sorted(ram_comp.slots_by_degree.keys() | r_comp.slots_by_degree.keys()):
        tree_slots = ram_comp.slots_by_degree.get(deg, ())
        slots = r_comp.slots_by_degree.get(deg, [])
        col_of = {s: c for c, s in enumerate(slots)}
        mat = SparseMatrix(len(slots))
        for t in tree_slots:
            row = {col_of[s]: val for s, val in forms[t].coords.items() if s in col_of}
            if row:
                mat.add_row(row)
        rk = rank(mat)
        iso = len(tree_slots) == len(slots) == rk
        all_iso = all_iso and iso
        blocks.append(
            {
                "h": deg[0],
                "w": deg[1],
                "dim_operad": len(tree_slots),
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
    each basis slot of R(n) (``GraphComponent.differentials``), and the slot
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
        for slot, (_, d_slots) in enumerate(r_comp.differentials(alg_name)):
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

    products: list[list] = [[] for _ in range(r_comp.dim)]  # slot -> (u slot, v slot, c)
    # a forest on n vertices has at most n - 1 edges (w counts edges), so
    # only v of weight at most n - 1 - w(u) can give a nonzero u.v
    weights = [w for _, w in r_comp.degrees]
    partners = [[(sv, v) for sv, v in enumerate(r_comp.basis) if weights[sv] <= k] for k in range(n)]
    for su, u in enumerate(r_comp.basis):
        for sv, v in partners[n - 1 - weights[su]]:
            prod = multiply(u, v, R_PRESENTATION, n, "forest")
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
        # <rho(t1) (x) rho(t2), u (x) v> = (-1)**(h(u) h(v)) <rho(t1), u> <rho(t2), v>
        for (t1, t2), c in coproduct(ram_comp.monomial_element(t)).terms.items():
            f2 = _rho_tree(t2, store).coords
            for su, val1 in _rho_tree(t1, store).coords.items():
                c1, odd1 = c * val1, odd_u[su]
                for sv, val2 in f2.items():
                    bump(lhs, (su, sv), -c1 * val2 if odd1 and odd_u[sv] else c1 * val2)
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
