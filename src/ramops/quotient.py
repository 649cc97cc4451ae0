"""Quotient components, shared by the operad side and the algebra side.

A component is a basis on a label set and a normal form onto it.  The
algebra side is the span of the ambient monomials modulo the span of the
relation instances, brought to reduced row-echelon form once on the
standard labels {1..n} and stored (``payload_component``): the non-pivot
monomials are the basis, and ``Echelon.reduce`` is the normal form.  The
operad side keeps only its basis, the normal trees, and its rewriting nf,
with no ambient, payload or store (``operad``).  On both sides the
component on another label set of the size is the standard one
``relabeled`` along the order-preserving bijection, with its own labels.
An algebra monomial is its colored mask, the same on every label set of
the size, so an algebra component differs in nothing else.  The operad
side moves its basis trees along the bijection and adds the map of its
labels back onto {1..n}, which its lookups take.  So the ambient, its
index, the normal form and its memos exist once, on {1..n}.  The
canonical trees compare atoms only through ``atom_key``, which that
bijection respects, so a moved tree is canonical as it is, with sign +1,
and basis slot ``s`` means the same basis monomial on every label set of
the size.

A side supplies what differs (see ``QuotientComponent``), its basis
expansions memoised once on {1..n}.  This module owns the rest: the
relabeling, coordinates and normal forms (folds over the expansions), the
payload codec, the load path with its memo, the one tensor type of both
sides (``Tensor``) and its normal form, and the label-independent facts
of a basis slot: bidegree, h-parity, and the slots of each bidegree.

Components are memoized per store, so that a second store in the same
process still reads and writes its own directory; entries go away with the
store that asked for them, and ``default_store()`` lives for the process.
The components in this memo are the only in-memory copy of a component: a
store keeps payload files, not payloads.  Other modules register their
memos (``per_store_memo``, ``clearable``) so that ``clear_memos`` empties
all of them.  Dims counted with no component built (``counted_dims``) are
kept per store too, and ``memo_dims`` lists them with the components'.
Cache keys carry ``ENGINE_FORMAT``: a change to canonical forms, monomial
order or payload layout bumps it, and payloads written under another
format are then rebuilt, never read.

A payload (format 2) holds the side's ambient as ``monomials``, the
colored masks ``comp.masks`` of the algebra side, the echelon as
``pivots`` and ``rows``, each row one flat list of its columns in
increasing order and then its entries (an int, or the "p/q" string of a
non-integral rational), the ``basis`` positions and the ``dims``.  A
payload that does not decode in that layout, or whose echelon, basis or
dims break an invariant of a reduced echelon form, is rebuilt as well.
A store without a directory keeps no payload, so none is encoded for it.
No whole copy of the echelon in that layout is made: ``_encode`` hands
the store its rows as an iterator, each flat list made as the store's
streamed write reaches it, and ``_decode`` pops each flat list off the
payload as it makes that row.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Callable, Mapping, Sequence
from weakref import WeakKeyDictionary

from .cache import ComponentStore, default_store
from .labels import Atom, BiDegree, check_label_set, standard_labels
from .linalg import ONE, Combination, Echelon, bump, exact, quotient_basis


class QuotientComponent:
    """Quotient component on one label set: basis, normal form, bigraded dims.

    Built on the standard labels {1..n} by the side's ``build(pres, labels,
    store, prefix, fields)`` (``prefix`` is its cache-key prefix, ``fields``
    name the variant), from its basis monomials in slot order and their
    bidegrees.  ``relabeled`` gives it another label set of the size: a
    copy with its own labels, to which a side adds what else it moves.  A
    side also supplies ``element(terms)``, ``slot(m)`` of a basis
    monomial and ``slot_expansion(m)``, the (slot, coefficient) pairs of a
    monomial in slot order: on the operad side its rewriting's memo of nf,
    on the algebra side a memo of the echelon's reductions.
    ``degrees[s]`` is the bidegree of basis slot s, ``odd[s]`` the parity of
    its h; ``slots_by_degree`` lists the slots of each bidegree in slot
    order and ``dims`` counts them.
    """

    family = ""  # first word of the cache key and of the payload kind

    def __init__(self, pres, labels: tuple[Atom, ...], basis: list, degrees: list[BiDegree]):
        self.pres = pres
        self.labels = labels
        self.basis = basis
        self.degrees = degrees
        self.odd = [h & 1 for h, _ in self.degrees]
        self.slots_by_degree: dict[BiDegree, list[int]] = {}
        for slot, deg in enumerate(self.degrees):
            self.slots_by_degree.setdefault(deg, []).append(slot)
        self.dims = {deg: len(slots) for deg, slots in self.slots_by_degree.items()}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def relabeled(self, labels: tuple[Atom, ...]) -> "QuotientComponent":
        """This component on another label set of the size, sharing the rest."""
        comp = copy.copy(self)
        comp.labels = labels
        return comp

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
        """The monomial m as an element."""
        return self.element({m: ONE})


# --- payloads and memos ------------------------------------------------------------

# version of everything a payload's meaning depends on; part of every cache key
ENGINE_FORMAT = 2

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
    """Forget every registered memo: components, counted dims, cocomposition
    tables, forms, relation instances, rewrite rules, certificates."""
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
    ``cls.ambient_and_span`` and written to the store, when the store has a
    directory (one without keeps nothing, so nothing is encoded for it).

    The ``build`` of a side whose ambient is its masks: the side's
    ``ambient_and_span(pres, n, **fields)`` gives them and the relation
    span on them, and ``cls.ambient_from_json(pres, n, data)`` checks the
    payload's list, raising ``ValueError`` on one the side never writes."""
    n = len(labels)
    cache_key = f"{prefix}-n{n}"
    payload = store.get(cache_key)
    # a payload copied or renamed to another key names what it holds
    header = _header(cls, pres, n, fields)
    if payload is not None and all(payload.get(k) == v for k, v in header.items()):
        try:
            parts = _decode(cls, pres, payload)
            if parts is not None:
                masks, ech, basis_positions, dims = parts
                # slot degrees are read only now, with every basis position in range
                comp = cls(pres, labels, masks, ech, basis_positions, **fields)
                if comp.dims == dims:
                    return comp
        except (IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):
            pass  # a damaged payload is a cache miss
    masks, span = cls.ambient_and_span(pres, n, **fields)
    basis_positions, ech = quotient_basis(span, span.ncols)
    comp = cls(pres, labels, masks, ech, basis_positions, **fields)
    if store.directory:
        store.put(cache_key, {**header, **_encode(comp)})
    return comp


def _consistent(ech: Echelon, ncols: int, basis_positions: list[int]) -> bool:
    """Whether a decoded echelon is reduced and the basis is its non-pivots.

    Pivots strictly increase, each row has a leading 1 at its pivot and no
    entry in another pivot column, and the basis is the set of non-pivots.
    A row's first column is its least and its last its greatest (``_row``).
    """
    pivots = ech.pivots
    if len(ech.rows) != len(pivots) or any(a >= b for a, b in zip(pivots, pivots[1:])):
        return False
    if pivots and pivots[0] < 0:
        return False
    pivot_set = ech._pivot_pos.keys()
    for p, row in zip(pivots, ech.rows):
        if row.get(p) != 1 or next(iter(row)) != p or next(reversed(row)) >= ncols:
            return False
        if len(pivot_set & row.keys()) != 1:  # p is the row's only pivot column
            return False
    return basis_positions == [i for i in range(ncols) if i not in pivot_set]


def _header(cls, pres, n: int, fields: dict) -> dict:
    """What a payload holds: its side, presentation, arity and variant."""
    return {"kind": f"{cls.family}-component", "presentation": pres.hash, "n": n, **fields}


def _encode(comp: QuotientComponent) -> dict:
    return {
        "monomials": comp.masks,
        "pivots": comp.reducer.pivots,
        "rows": map(_flat_row, comp.reducer.rows),  # made as ``put`` writes them
        "basis": comp.basis_positions,
        "dims": sorted([h, w, d] for (h, w), d in comp.dims.items()),
    }


def _flat_row(row: dict) -> list:
    """An echelon row as one flat list: its columns in increasing order, then
    their entries, each an int or, when not integral, its "p/q" string."""
    cols = sorted(row)
    return cols + [v if type(v) is int else str(v) for v in map(row.__getitem__, cols)]


def _row(flat: list) -> dict:
    """The echelon row of a flat payload list (``_flat_row``); raises
    unless the list has even length, its columns are strictly increasing
    ints and its entries ints or "p/q" strings (``_fraction``)."""
    k, odd = divmod(len(flat), 2)
    cols, vals = flat[:k], flat[k:]
    row = dict(zip(cols, vals))
    if odd or set(map(type, cols)) != {int} or len(row) != k or sorted(cols) != cols:
        raise ValueError("malformed echelon row")
    if set(map(type, vals)) == {int}:
        return row
    return {col: v if type(v) is int else _fraction(v) for col, v in row.items()}


def _fraction(text: str) -> Fraction:
    """The non-integral rational that its "p/q" string names; raises on
    anything else (a float, a bool, another spelling)."""
    value = exact(text)
    if type(value) is not Fraction or str(value) != text:
        raise ValueError(f"echelon entry {text!r} is not the string of a non-integral rational")
    return value


def _decode(cls, pres, payload: dict) -> tuple | None:
    """The payload's masks, echelon, basis positions and dims, or None
    when its echelon and basis break an invariant of a reduced echelon form:
    such a payload is rebuilt rather than trusted.  Raises on a payload the
    encoder never writes (see ``_row`` and the side's ``ambient_from_json``)."""
    masks = cls.ambient_from_json(pres, payload["n"], payload["monomials"])
    pivots, basis = payload["pivots"], payload["basis"]
    flats = payload["rows"]
    if type(flats) is not list:
        raise ValueError("echelon rows are not a list")
    flats.reverse()  # popped in order, so the flat and made rows never both exist whole
    rows = [_row(flats.pop()) for _ in range(len(flats))]
    ech = Echelon(len(masks), pivots, rows, {p: k for k, p in enumerate(pivots)})
    dims = {(int(h), int(w)): d for h, w, d in payload["dims"]}
    if not _consistent(ech, len(masks), basis):
        return None
    return masks, ech, basis, dims


# per store, dims counted with no component built, by (cache-key prefix, arity)
_COUNTED: WeakKeyDictionary[ComponentStore, dict[tuple[str, int], dict]] = per_store_memo()


def counted_dims(cls, pres, n: int, count: Callable[..., dict], store: ComponentStore | None = None) -> dict:
    """``count(pres, n)``, the dims of the ``cls`` component on n labels
    counted without building it, kept in the store's memo."""
    memo = _COUNTED.setdefault(store or default_store(), {})
    key = (_prefix(cls, pres, {}), n)
    if key not in memo:
        memo[key] = count(pres, n)
    return memo[key]


def memo_dims(cls, pres, store: ComponentStore | None = None) -> dict[int, dict]:
    """Dims the store's memo already holds, by arity: counted ones and
    those of the components it holds."""
    store = store or default_store()
    prefix = _prefix(cls, pres, {})
    done = {n: dims for (p, n), dims in _COUNTED.get(store, {}).items() if p == prefix}
    done.update((len(labels), comp.dims) for (p, labels), comp in _COMPONENTS.get(store, {}).items() if p == prefix)
    return dict(sorted(done.items()))


# --- tensors of components -----------------------------------------------------------


class Tensor(Combination):
    """Sparse combination of pure tensors, keys the tuples of their factors'
    monomials.  ``factors`` holds one element per tensor factor, which
    supplies that factor's labels, sort key and key string; ``labels`` is
    the tuple of the factors' labels."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple, terms: dict | None = None):
        self.factors = factors
        self.labels = tuple(f.labels for f in factors)
        self.terms: dict[tuple, Fraction] = terms if terms is not None else {}

    def _like(self, terms: dict) -> "Tensor":
        return Tensor(self.factors, terms)

    def sort_key(self, key: tuple):
        return tuple(f.sort_key(m) for f, m in zip(self.factors, key))

    def key_str(self, key: tuple) -> str:
        return "(x)".join(f.key_str(m) for f, m in zip(self.factors, key))


def tensor_normal_form(
    terms: Mapping[tuple, Fraction], comps: Sequence[QuotientComponent]
) -> dict[tuple, Fraction]:
    """Reduce factor k of every pure tensor to the basis of ``comps[k]``.

    ``terms`` maps tuples of monomials to coefficients.  The map is
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
