"""Quotient components, shared by the operad side and the algebra side.

Both sides present a component the same way: the span of the ambient
monomials on a label set modulo the span of the relation instances.  On the
algebra side that span is brought to reduced row-echelon form once, on the
standard labels {1..n}, and stored (``payload_component``); the non-pivot
monomials are the basis, and ``Echelon.reduce`` rewrites any vector onto
them.  The operad side (a Groebner rewriting, or Com o F) brings its own
basis and reducer instead, and uses no payload or store.  The
component on any other label set of the same size is the standard one
relabeled along the order-preserving bijection (``relabeled``), and
coordinates are taken on the standard side, where the reducer lives.  Both
canonical forms (trees and graph monomials) compare atoms only through
``atom_key``, which an order-preserving bijection respects, so a transported
monomial comes out canonical as it is and picks up no sign: transport is
the plain map of the labels, and position ``i`` means the same monomial, and
basis slot ``s`` the same basis monomial, on every label set of a given
size.

A subclass supplies only what differs between the sides: the transport,
the element constructor and ``build``, which makes the component on {1..n}
with its monomial index and basis bidegrees.  The algebra side's ``build``
is ``payload_component``, which reads its JSON codec of a monomial and its
builder of the ambient monomials and the relation span; the operad side's
is its rewriting.  This module owns the rest: relabeling, coordinates and
normal forms, the payload codec, the load path with its memo, and the
normal form of tensors of components.  It also owns every label-independent
fact about a basis slot: its bidegree, the parity of its h, the slots of
each bidegree and the basis expansion of each ambient position; ``coords``,
``normal_form`` and ``tensor_normal_form`` are folds over those expansions,
and ``ideal_witness`` decides whether a linear map kills the ideal from
them.

Components are memoized per store, so that a second store in the same
process still reads and writes its own directory; entries go away with the
store that asked for them, and ``default_store()`` lives for the process.
The components in this memo are the only in-memory copy of a component: a
store keeps payload files, not payloads.  Other modules register their
memos (``per_store_memo``, ``clearable``) so that ``clear_memos`` empties
all of them.  Cache keys carry ``ENGINE_FORMAT``: a change to canonical
forms, monomial order or payload layout bumps it, and payloads written
under another format are then rebuilt, never read.  A payload that does
not decode, or whose echelon, basis or dims break an invariant of a reduced
echelon form, is rebuilt as well.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

from .cache import ComponentStore, default_store
from .labels import Atom, BiDegree, check_label_set, standard_labels
from .linalg import ONE, Echelon, bump, exact, quotient_basis, vec_add_scaled


class QuotientComponent:
    """Quotient component on one label set: monomials, reducer, bigraded dims.

    Built on the standard labels {1..n} by the side's ``build``, from its
    monomial list, their index and the bidegrees of the basis monomials; the
    component on another label set of the size is that one ``relabeled``.
    ``monomials[i]`` is ambient monomial i, and ``basis`` lists the basis
    monomials in slot order.
    ``reducer.reduce`` takes a vector on the ambient positions to its normal
    form on the basis positions: the ``Echelon`` of a stored payload, or a
    rewriting.  ``degrees[s]`` is the bidegree of basis slot s, ``odd[s]``
    the parity of its h; ``slots_by_degree`` lists the slots of each
    bidegree in slot order and ``dims`` counts them.
    """

    family = ""  # first word of the cache key and of the payload kind

    def __init__(
        self,
        pres,
        labels: tuple[Atom, ...],
        monomials: list,
        reducer,
        basis_positions: list[int],
        index: dict,
        degrees: list[BiDegree],
    ):
        self.pres = pres
        self.labels = labels
        self.monomials = monomials
        self.reducer = reducer
        self.basis_positions = basis_positions
        self._index = index
        self.basis = [monomials[i] for i in basis_positions]
        self.degrees = degrees
        self.odd = [h & 1 for h, _ in self.degrees]
        self.slots_by_degree: dict[BiDegree, list[int]] = {}
        for slot, deg in enumerate(self.degrees):
            self.slots_by_degree.setdefault(deg, []).append(slot)
        self.dims = {deg: len(slots) for deg, slots in self.slots_by_degree.items()}
        self._slot_of = {i: slot for slot, i in enumerate(basis_positions)}
        self._expansions: dict[int, tuple] = {}

    def relabeled(self, labels: tuple[Atom, ...]) -> "QuotientComponent":
        """This component on another label set of the size: its own
        monomials, index and basis, and every label-independent fact shared."""
        comp = copy.copy(self)
        comp.labels = labels
        # both label tuples are sorted, so phi preserves the atom order
        phi = dict(zip(self.labels, labels))
        comp.monomials = [self.transport(m, phi) for m in self.monomials]
        comp._index = {m: i for i, m in enumerate(comp.monomials)}
        comp.basis = [comp.monomials[i] for i in self.basis_positions]
        return comp

    # --- the codec of a side -------------------------------------------------

    def transport(self, m, phi: Mapping[Atom, Atom]):
        """The canonical monomial m with its labels mapped by the
        order-preserving phi: canonical as it is, with sign +1 (see the
        module doc)."""
        raise NotImplementedError

    def element(self, terms: dict):
        """Element on this label set with the given canonical terms."""
        raise NotImplementedError

    @classmethod
    def build(
        cls, pres, labels: tuple[int, ...], store: ComponentStore, prefix: str, fields: dict
    ) -> "QuotientComponent":
        """The component on the standard labels {1..n}; ``prefix`` is its
        cache-key prefix and ``fields`` name the variant."""
        raise NotImplementedError

    # --- shared ----------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis_positions)

    def position(self, m) -> int | None:
        """Position of m among the ambient monomials, None outside the ambient."""
        return self._index.get(m)

    def slot(self, m) -> int:
        """Basis slot of the basis monomial m."""
        return self._slot_of[self._index[m]]

    def coords(self, x) -> dict[int, Fraction]:
        """Coordinates of x on the component basis (kills exactly the ideal),
        in slot order: the sum of its monomials' expansions."""
        if x.labels != self.labels:
            raise ValueError("label set mismatch")
        out: dict[int, Fraction] = {}
        for m, c in x.terms.items():
            for slot, v in self.slot_expansion(m):
                bump(out, slot, c * v)
        return dict(sorted(out.items()))

    def normal_form(self, x):
        basis = self.basis
        return self.element({basis[slot]: c for slot, c in self.coords(x).items()})

    def monomial_element(self, m):
        """The ambient monomial m as an element."""
        return self.element({m: ONE})

    def slot_expansion(self, m) -> tuple:
        """(slot, coefficient) pairs of the ambient monomial m, in slot order.

        Kept per position and shared by the relabeled components, so that
        one expansion serves every label set of the size.
        """
        return self.expansion_at(self._index[m])

    def expansion_at(self, i: int) -> tuple:
        """``slot_expansion`` of the ambient monomial at position i."""
        pairs = self._expansions.get(i)
        if pairs is None:
            reduced = self.reducer.reduce({i: ONE})
            slot_of = self._slot_of
            pairs = self._expansions[i] = tuple((slot_of[j], reduced[j]) for j in sorted(reduced))
        return pairs

    def ideal_witness(self, image):
        """The first ambient monomial m whose row e_m - nf(m) the linear map
        ``image`` does not kill, or None when the map kills the ideal.

        ``image(m)`` is the map on a monomial, as a dict of coefficients.
        Modulo the ideal each monomial equals its normal form, so the rows
        lie in the ideal, and they span it because the basis is independent
        in the quotient.  On the operad side the basis and nf come from a
        rewriting (``operad``), which the tests check against the grafted
        span.  Basis monomials are checked too: a row is zero only if the
        expansion is the monomial itself.
        """
        basis_images = [image(b) for b in self.basis]
        for i, m in enumerate(self.monomials):
            slot = self._slot_of.get(i)
            row = dict(image(m) if slot is None else basis_images[slot])
            for s, c in self.slot_expansion(m):
                vec_add_scaled(row, basis_images[s], -c)
            if row:
                return m
        return None


# --- payloads and memos ------------------------------------------------------------

# version of everything a payload's meaning depends on; part of every cache key
ENGINE_FORMAT = 1

_MEMOS: list = []


def clearable(memo):
    """Register a memo (any object with ``clear``) for ``clear_memos``."""
    _MEMOS.append(memo)
    return memo


def per_store_memo() -> WeakKeyDictionary:
    """A memo keyed by store that ``clear_memos`` empties."""
    return clearable(WeakKeyDictionary())


# per store, the components by (cache-key prefix, label set)
_COMPONENTS: WeakKeyDictionary[ComponentStore, dict[tuple[str, tuple], QuotientComponent]] = per_store_memo()


def clear_memos() -> None:
    """Forget every registered memo: components, cocomposition tables,
    forms, relation spans and instances, certified presentations."""
    for memo in _MEMOS:
        memo.clear()


def _prefix(cls, pres, fields: dict) -> str:
    return "-".join((cls.family, f"v{ENGINE_FORMAT}", pres.hash, *fields.values()))


def load_component(cls, pres, labels, store: ComponentStore | None = None, **fields):
    """The ``cls`` component of the presentation on the label set.

    Taken from the store's memo, else relabeled from the component on
    {1..n}, which is taken from the memo, else from the side's ``build``.
    ``fields`` name the variant (the ambient mode of an algebra); they enter
    the cache key, the payload, the build and the constructor.
    """
    labels = check_label_set(labels)
    store = store or default_store()
    prefix = _prefix(cls, pres, fields)
    memo = _COMPONENTS.setdefault(store, {})
    comp = memo.get((prefix, labels))
    if comp is None:
        ref = standard_labels(len(labels))
        std = memo.get((prefix, ref))
        if std is None:
            std = memo[prefix, ref] = cls.build(pres, ref, store, prefix, fields)
        comp = memo[prefix, labels] = std if labels == ref else std.relabeled(labels)
    return comp


def payload_component(cls, pres, labels: tuple[int, ...], store: ComponentStore, prefix: str, fields: dict):
    """The component on {1..n} decoded from the store's payload, when it
    names this side, presentation, arity and variant, else eliminated from
    ``cls.ambient_and_span`` and written to the store: the
    ``build`` of a side whose monomials have a JSON codec
    (``cls.monomial_to_json``, ``cls.monomial_from_json``)."""
    n = len(labels)
    cache_key = f"{prefix}-n{n}"
    payload = store.get(cache_key)
    # a payload copied or renamed to another key names what it holds
    header = _header(cls, pres, n, fields)
    if payload is not None and all(payload.get(k) == v for k, v in header.items()):
        try:
            parts = _decode(cls, pres, payload)
            if parts is not None:
                monomials, ech, basis_positions, dims = parts
                # slot degrees are read only now, with every basis position in range
                comp = cls(pres, labels, monomials, ech, basis_positions, **fields)
                if comp.dims == dims:
                    return comp
        except (IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):
            pass  # a damaged payload is a cache miss
    monomials, span = cls.ambient_and_span(pres, n, **fields)
    basis_positions, ech = quotient_basis(span, len(monomials))
    comp = cls(pres, labels, monomials, ech, basis_positions, **fields)
    store.put(cache_key, {**header, **_encode(comp)})
    return comp


def _consistent(ech: Echelon, ncols: int, basis_positions: list[int]) -> bool:
    """Whether a decoded echelon is reduced and the basis is its non-pivots.

    Pivots strictly increase, each row has a leading 1 at its pivot and no
    entry in another pivot column, and the basis is the set of non-pivots.
    """
    pivots = ech.pivots
    if len(ech.rows) != len(pivots) or any(a >= b for a, b in zip(pivots, pivots[1:])):
        return False
    if pivots and pivots[0] < 0:
        return False
    pivot_set = ech._pivot_pos.keys()
    for p, row in zip(pivots, ech.rows):
        if row.get(p) != 1 or min(row) != p or max(row) >= ncols:
            return False
        if len(pivot_set & row.keys()) != 1:  # p is the row's only pivot column
            return False
    return basis_positions == [i for i in range(ncols) if i not in pivot_set]


def _header(cls, pres, n: int, fields: dict) -> dict:
    """What a payload holds: its side, presentation, arity and variant."""
    return {"kind": f"{cls.family}-component", "presentation": pres.hash, "n": n, **fields}


def _encode(comp: QuotientComponent) -> dict:
    return {
        "monomials": [comp.monomial_to_json(m) for m in comp.monomials],
        "pivots": list(comp.reducer.pivots),
        "rows": [[[col, str(val)] for col, val in sorted(row.items())] for row in comp.reducer.rows],
        "basis": comp.basis_positions,
        "dims": sorted([h, w, d] for (h, w), d in comp.dims.items()),
    }


def _decode(cls, pres, payload: dict) -> tuple | None:
    """The payload's monomials, echelon, basis positions and dims, or None
    when its echelon and basis break an invariant of a reduced echelon form:
    such a payload is rebuilt rather than trusted."""
    monomials = [cls.monomial_from_json(m) for m in payload["monomials"]]
    pivots = list(payload["pivots"])
    # a payload holds few distinct entries: parse each once and share it,
    # an integral one as an int
    parsed: dict[str, Fraction | int] = {}

    def entry(text: str) -> Fraction | int:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = exact(text)
        return value

    rows = [{int(col): entry(val) for col, val in row} for row in payload["rows"]]
    ech = Echelon(len(monomials), pivots, rows, {p: k for k, p in enumerate(pivots)})
    basis = list(payload["basis"])
    dims = {(int(h), int(w)): d for h, w, d in payload["dims"]}
    if not _consistent(ech, len(monomials), basis):
        return None
    return monomials, ech, basis, dims


def memo_dims(cls, pres, store: ComponentStore | None = None) -> dict[int, dict]:
    """Dims of the components the store's memo already holds, by arity."""
    memo = _COMPONENTS.get(store or default_store(), {})
    prefix = _prefix(cls, pres, {})
    done = {len(labels): comp.dims for (p, labels), comp in memo.items() if p == prefix}
    return dict(sorted(done.items()))


# --- tensors of components -----------------------------------------------------------


def tensor_normal_form(
    terms: Mapping[tuple, Fraction], comps: Sequence[QuotientComponent]
) -> dict[tuple, Fraction]:
    """Reduce factor k of every pure tensor to the basis of ``comps[k]``.

    ``terms`` maps tuples of ambient monomials to coefficients.  The map is
    multilinear, so no signs arise.  Each factor's expansion is read from the
    memo of its component, shared by every call.
    """
    out: dict[tuple, Fraction] = {}
    for key, c in terms.items():
        partial: list[tuple[tuple, Fraction]] = [((), c)]
        for m, comp in zip(key, comps):
            basis = comp.basis
            expansion = comp.slot_expansion(m)
            partial = [(k + (basis[s],), v * cb) for k, v in partial for s, cb in expansion]
        for k, v in partial:
            bump(out, k, v)
    return out
