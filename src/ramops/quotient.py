"""Quotient components, shared by the operad side and the algebra side.

Both sides present a component the same way: the span of the ambient
monomials on a label set modulo the span of the relation instances.  That
span is brought to reduced row-echelon form once, on the standard labels
{1..n}; the non-pivot monomials are the basis, and ``Echelon.reduce``
rewrites any vector onto them.  The component on any other label set of the
same size is transported along the order-preserving bijection, and
coordinates are taken on the standard side, where the reducer lives.  Both
canonical forms (trees and graph monomials) compare atoms only through
``atom_key``, which an order-preserving bijection respects, so a transported
monomial comes out canonical as it is and picks up no sign: position ``i``
means the same monomial, and basis slot ``s`` the same basis monomial, on
every label set of a given size.

A subclass supplies only what differs between the sides: the relabel-and-
recanonicalize transport, the element constructor, the JSON codec of a
monomial, the bidegree of a monomial and the builder of the ambient monomials
and the relation span.  This module owns the rest: transport, coordinates and
normal forms, the payload codec, the load-or-build path with its memos, and
the normal form of tensors of components.  It also owns every
label-independent fact about a basis slot: its bidegree, the parity of its
h, the slots of each bidegree and the basis expansion of each ambient
position; ``coords``, ``normal_form`` and ``tensor_normal_form`` are folds
over those expansions.

Components are memoized per store, so that a second store in the same
process still reads and writes its own directory; entries go away with the
store that asked for them, and ``default_store()`` lives for the process.
Other modules keep their per-store memos through ``per_store_memo`` so that
``clear_memos`` empties all of them.  Cache keys carry ``ENGINE_FORMAT``: a
change to canonical forms, monomial order or payload layout bumps it, and
payloads written under another format are then rebuilt, never read.  A
payload that does not decode, or whose echelon, basis or dims break an
invariant of a reduced echelon form, is rebuilt as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

from .cache import ComponentStore, default_store
from .labels import Atom, BiDegree, check_label_set, standard_labels
from .linalg import ONE, Echelon, SparseMatrix, bump, quotient_basis


class Standard:
    """A component on the standard labels {1..n}: what a payload holds, and
    what follows from it on every label set of the size.

    ``degrees[s]`` is the bidegree of basis slot s, ``odd[s]`` the parity of
    its h; ``slots_by_degree`` lists the slots of each bidegree in slot
    order and ``dims`` counts them.  ``slot_of`` maps a non-pivot position
    to its slot, and ``expansions`` keeps the basis expansion, as (slot,
    coefficient) pairs, of each position asked for so far.
    """

    def __init__(self, cls, pres, monomials: list, echelon: Echelon, basis_positions: list[int]):
        self.monomials = monomials
        self.echelon = echelon
        self.basis_positions = basis_positions
        self.degrees = [cls.bidegree(pres, monomials[i]) for i in basis_positions]
        self.odd = [h & 1 for h, _ in self.degrees]
        self.slots_by_degree: dict[BiDegree, list[int]] = {}
        for slot, deg in enumerate(self.degrees):
            self.slots_by_degree.setdefault(deg, []).append(slot)
        self.dims = {deg: len(slots) for deg, slots in self.slots_by_degree.items()}
        self.slot_of = {i: slot for slot, i in enumerate(basis_positions)}
        self.expansions: dict[int, tuple] = {}


class QuotientComponent:
    """Quotient component on one label set: monomials, reducer, bigraded dims.

    ``monomials[i]`` is the transport of ``monomials_std[i]``; ``basis``
    lists the basis monomials in slot order.  ``degrees``, ``odd``,
    ``slots_by_degree`` and ``dims`` are the standard component's (see
    ``Standard``).
    """

    family = ""  # first word of the cache key and of the payload kind

    def __init__(self, pres, labels: tuple[Atom, ...], std: Standard):
        self.pres = pres
        self.labels = labels
        self.monomials_std = std.monomials
        self.echelon = std.echelon
        self.basis_positions = std.basis_positions
        self.degrees = std.degrees
        self.odd = std.odd
        self.slots_by_degree = std.slots_by_degree
        self.dims = std.dims
        self._slot_of = std.slot_of
        self._expansions = std.expansions
        ref = standard_labels(len(labels))
        if labels == ref:
            self.monomials = list(std.monomials)
        else:
            phi = dict(zip(ref, labels))
            self.monomials = [self.transport(m, phi) for m in std.monomials]
        self._index = {m: i for i, m in enumerate(self.monomials)}
        self.basis = [self.monomials[i] for i in std.basis_positions]

    # --- the codec of a side -------------------------------------------------

    def transport(self, m, phi: Mapping[Atom, Atom]):
        """Canonical monomial of the standard monomial m relabeled by the
        order-preserving phi (the sign is always +1, see the module doc)."""
        raise NotImplementedError

    def element(self, terms: dict):
        """Element on this label set with the given canonical terms."""
        raise NotImplementedError

    @staticmethod
    def monomial_to_json(m):
        raise NotImplementedError

    @staticmethod
    def monomial_from_json(data):
        raise NotImplementedError

    @staticmethod
    def bidegree(pres, m) -> BiDegree:
        raise NotImplementedError

    @classmethod
    def ambient_and_span(cls, pres, n: int, **fields) -> tuple[list, SparseMatrix]:
        """Ambient monomials on {1..n}, in column order, and the relation span."""
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

        Kept per position on the standard component, so that one expansion
        serves every label set of the size.
        """
        i = self._index[m]
        pairs = self._expansions.get(i)
        if pairs is None:
            reduced = self.echelon.reduce({i: ONE})
            slot_of = self._slot_of
            pairs = self._expansions[i] = tuple((slot_of[j], reduced[j]) for j in sorted(reduced))
        return pairs


# --- payloads and memos ------------------------------------------------------------

# version of everything a payload's meaning depends on; part of every cache key
ENGINE_FORMAT = 1

_MEMOS: list[WeakKeyDictionary] = []


def per_store_memo() -> WeakKeyDictionary:
    """A memo keyed by store that ``clear_memos`` empties."""
    memo: WeakKeyDictionary = WeakKeyDictionary()
    _MEMOS.append(memo)
    return memo


_DECODED: WeakKeyDictionary[ComponentStore, dict[tuple[str, int], Standard]] = per_store_memo()
_INSTANCES: WeakKeyDictionary[ComponentStore, dict[tuple, QuotientComponent]] = per_store_memo()


def clear_memos() -> None:
    """Forget every per-store memo: components, cocomposition tables, forms."""
    for memo in _MEMOS:
        memo.clear()


def _prefix(cls, pres, fields: dict) -> str:
    return "-".join((cls.family, f"v{ENGINE_FORMAT}", pres.hash, *fields.values()))


def load_component(cls, pres, labels, store: ComponentStore | None = None, **fields):
    """The ``cls`` component of the presentation on the label set.

    Taken from the store's memo, else decoded from its payload, else built
    and written to it.  ``fields`` name the variant (the ambient mode of an
    algebra); they enter the cache key, the payload, the build and the
    constructor.
    """
    labels = check_label_set(labels)
    store = store or default_store()
    prefix = _prefix(cls, pres, fields)
    instances = _INSTANCES.get(store)
    if instances is None:
        instances = _INSTANCES[store] = {}
    comp = instances.get((prefix, labels))
    if comp is None:
        std = _standard(cls, pres, len(labels), store, prefix, fields)
        comp = instances[prefix, labels] = cls(pres, labels, std, **fields)
    return comp


def _standard(cls, pres, n: int, store: ComponentStore, prefix: str, fields: dict) -> Standard:
    decoded = _DECODED.setdefault(store, {})
    if (prefix, n) in decoded:
        return decoded[prefix, n]
    cache_key = f"{prefix}-n{n}"
    payload = store.get(cache_key)
    std = None
    if payload is not None and payload.get("presentation") == pres.hash:
        try:
            std = _decode(cls, pres, payload)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            std = None  # a damaged payload is a cache miss
    if std is None:
        monomials, span = cls.ambient_and_span(pres, n, **fields)
        basis_positions, ech = quotient_basis(span, len(monomials))
        std = Standard(cls, pres, monomials, ech, basis_positions)
        store.put(cache_key, _encode(cls, pres, n, fields, std))
    decoded[prefix, n] = std
    return std


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


def _encode(cls, pres, n: int, fields: dict, std: Standard) -> dict:
    return {
        "kind": f"{cls.family}-component",
        "presentation": pres.hash,
        "n": n,
        **fields,
        "monomials": [cls.monomial_to_json(m) for m in std.monomials],
        "pivots": list(std.echelon.pivots),
        "rows": [[[col, str(val)] for col, val in sorted(row.items())] for row in std.echelon.rows],
        "basis": std.basis_positions,
        "dims": sorted([h, w, d] for (h, w), d in std.dims.items()),
    }


def _decode(cls, pres, payload: dict) -> Standard | None:
    """The payload's component, or None when its echelon, basis or dims break
    an invariant of a reduced echelon form: such a payload is rebuilt rather
    than trusted."""
    monomials = [cls.monomial_from_json(m) for m in payload["monomials"]]
    pivots = list(payload["pivots"])
    # a payload holds few distinct entries: parse each once and share it
    parsed: dict[str, Fraction] = {}

    def entry(text: str) -> Fraction:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = Fraction(text)
        return value

    rows = [{int(col): entry(val) for col, val in row} for row in payload["rows"]]
    ech = Echelon(len(monomials), pivots, rows, {p: k for k, p in enumerate(pivots)})
    basis = list(payload["basis"])
    dims = {(int(h), int(w)): d for h, w, d in payload["dims"]}
    if not _consistent(ech, len(monomials), basis):
        return None
    # slot degrees are read only now, with every basis position in range
    std = Standard(cls, pres, monomials, ech, basis)
    return std if std.dims == dims else None


def memo_dims(cls, pres, store: ComponentStore | None = None) -> dict[int, dict]:
    """Dims of the components the store's memo already holds, by arity."""
    decoded = _DECODED.get(store or default_store(), {})
    prefix = _prefix(cls, pres, {})
    return {n: decoded[p, n].dims for p, n in sorted(decoded) if p == prefix}


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
