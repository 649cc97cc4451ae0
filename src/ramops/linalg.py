"""Exact sparse linear algebra over the rationals.

Everything downstream (operad quotients, algebra quotients, rank verdicts)
reduces to row elimination of sparse matrices with rational entries.  No
floating point appears anywhere: a single wrong sign would invalidate a
verification, so all arithmetic is exact.  A rational is an ``int`` when it
is integral and a ``fractions.Fraction`` otherwise (``exact``); the two mix
exactly, and ``str`` of an integral ``Fraction`` is that of the ``int``, so
the choice never shows in a result.  Every coefficient the engine has met is
integral, and ``int`` arithmetic is several times faster.

A sparse vector is a dict ``{column_index: rational}`` with no stored zeros.
A :class:`SparseMatrix` is a list of such rows plus a column count.  Column
order is supplied by the caller (it is the caller's monomial order); the
reduced row-echelon form of a row space is unique, so results are
deterministic and suitable for golden files.

:func:`rref` eliminates fraction-free, over the integers.  A row whose
entries are all nonzero ``int``s is copied as it is; any other row is scaled
by the lcm of its denominators to an integer vector (a nonzero multiple, so
the same row space), and a ``float`` is refused.  Single-entry rows go
first, after the structured Gaussian elimination of LaMacchia and Odlyzko:
each distinct column c of one becomes the pivot row e_c once, and is struck
from every other row before the main pass.  That changes no row space, a row
it empties is dropped, and no later row meets those columns again.  The main
pass reduces each remaining row against the stored rows in increasing pivot
order by ``row := (l/g) row - (w/g) pivot_row``, where ``l`` is the pivot
row's leading entry, ``w`` the row's entry in that column and
``g = gcd(l, w)``: an integer combination with a nonzero factor on ``row``,
so the row space is kept and every division is exact.  What is left is
stored as a primitive vector (gcd 1, leading entry positive) under its
leading column; stored rows are never touched on insert.  Rows are taken
from the last leading column down, so every stored row starts at or after
the lead of the row being reduced, an order against fill-in (after
Markowitz) that changes no result.  One back-substitution, in decreasing
pivot order, then clears the pivot columns of the rows that hold any, and
only the final division of each row by its leading entry can make
``Fraction``s: one for each entry its leading entry does not divide.  The
result is the unique RREF of the row space, the same one that elimination
over ``Fraction`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Container, Mapping

ZERO = 0
ONE = 1

SparseVec = dict[int, Fraction | int]


def exact(c) -> Fraction | int:
    """The rational c as an ``int`` when it is integral, else a ``Fraction``;
    never a ``float`` (which is refused)."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def vec_add_scaled(target: SparseVec, source: Mapping[int, Fraction], scale: Fraction) -> None:
    """In-place target += scale * source."""
    if not scale:
        return
    for col, val in source.items():
        s = target.get(col, ZERO) + scale * val
        if s:
            target[col] = s
        elif col in target:
            del target[col]


def bump(acc: dict, key, val) -> None:
    """In-place acc[key] += val, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + val
    if s:
        acc[key] = s
    elif key in acc:
        del acc[key]


class Combination:
    """Sparse rational combination of canonical keys on one label set.

    The operad and algebra elements and ``quotient.Tensor`` all store
    ``{key: rational}`` with no zero entries.  A subclass supplies ``_like``
    (an element of its own kind on the same labels) and, for one key, its
    ``sort_key`` and its string ``key_str``; ``key_bidegree`` only where
    ``bidegree`` is asked for (not on the tensors).
    """

    __slots__ = ("labels", "terms")

    def _like(self, terms: dict) -> "Combination":
        raise NotImplementedError

    def sort_key(self, key):
        raise NotImplementedError

    def key_str(self, key) -> str:
        raise NotImplementedError

    def key_bidegree(self, key) -> tuple[int, int]:
        raise NotImplementedError

    def _add_term(self, key, coeff: Fraction) -> None:
        # bump inlined: this runs once per term in compose and canonicalize
        s = self.terms.get(key, ZERO) + coeff
        if s:
            self.terms[key] = s
        elif key in self.terms:
            del self.terms[key]

    def is_zero(self) -> bool:
        return not self.terms

    def bidegree(self) -> tuple[int, int] | None:
        """Common bidegree of all terms, or None for 0 / inhomogeneous."""
        degs = {self.key_bidegree(k) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def scaled(self, c) -> "Combination":
        c = exact(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __add__(self, other: "Combination") -> "Combination":
        if self.labels != other.labels:
            raise ValueError("label sets differ")
        out = self._like(dict(self.terms))
        for k, v in other.terms.items():
            out._add_term(k, v)
        return out

    def __sub__(self, other: "Combination") -> "Combination":
        return self + other.scaled(-1)

    def __neg__(self) -> "Combination":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self) and self.labels == other.labels and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.labels, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple]:
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = (f"{c}*{self.key_str(k)}" for k, c in self.sorted_terms())
        return " + ".join(bits).replace("+ -", "- ")


@dataclass
class SparseMatrix:
    """Rows of sparse rational vectors; ncols bounds the column indices."""

    ncols: int
    rows: list[SparseVec] = field(default_factory=list)

    def add_row(self, row: Mapping[int, Fraction]) -> None:
        """Append the row, zeros dropped; refuses a column outside
        ``range(ncols)`` (``ValueError``) and a ``float`` (``TypeError``)."""
        clean = {c: v for c, v in row.items() if v}
        if clean:
            if min(clean) < 0 or max(clean) >= self.ncols:
                raise ValueError("column index out of range")
            if any(isinstance(v, float) for v in clean.values()):
                raise TypeError("inexact coefficient in a row")
            self.rows.append(clean)


@dataclass
class Echelon:
    """Reduced row-echelon form of a row space.

    ``rows[k]`` has leading 1 in column ``pivots[k]``; pivot columns are
    strictly increasing and hold no other nonzero entries.
    """

    ncols: int
    pivots: list[int] = field(default_factory=list)
    rows: list[SparseVec] = field(default_factory=list)
    _pivot_pos: dict[int, int] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Mapping[int, Fraction]) -> SparseVec:
        """Normal form of ``v`` modulo the row space: no support on pivots.

        Requires the echelon to be reduced, as :func:`rref` output and the
        payloads written from it are: a pivot column is zero in every row
        but its own, so subtracting a row puts nothing back on a pivot
        column, and one pass over the pivots in ``v``'s support is enough.
        """
        work = dict(v)
        pos = self._pivot_pos
        for piv in [c for c in work if c in pos]:
            vec_add_scaled(work, self.rows[pos[piv]], -work[piv])
        return work


IntVec = dict[int, int]


def _primitive(row: IntVec) -> IntVec:
    """The row divided by the gcd of its entries, leading entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _integral(row: Mapping[int, Fraction | int]) -> IntVec:
    """The row scaled by the lcm of its denominators, zeros dropped: a
    nonzero multiple, so the same row space.  Refuses a ``float``."""
    vals = [exact(v) for v in row.values()]
    den = lcm(*(v.denominator for v in vals))
    return {c: v.numerator * (den // v.denominator) for c, v in zip(row, vals) if v}


def _eliminate(
    row: IntVec, p: int, pivot_row: IntVec, heap: list[int], pivots: Container[int] = ()
) -> IntVec:
    """``(l/g) row - (w/g) pivot_row``, clearing column p (l, w: their entries there).

    Columns in ``pivots`` that the pivot row brings into the support are
    pushed on ``heap``.
    """
    l, w = pivot_row[p], row[p]
    g = gcd(l, w)
    a, b = l // g, w // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        s = row.get(c)
        if s is None:
            row[c] = -b * v
            if c in pivots:
                heappush(heap, c)
        else:
            s -= b * v
            if s:
                row[c] = s
            else:
                del row[c]
    return row


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon form; row space preserved, output canonical.

    Single-entry rows first, then integer elimination with one
    back-substitution, as the module docstring describes.  The rows of ``m``
    are handed over: each entry of ``m.rows`` becomes None as its row is
    taken, so the list keeps its length, the number of rows handed in, and
    no input row outlives its elimination.  The row dicts are only read,
    never edited or returned, so a caller that needs the rows again passes
    a copy of the list.  Raises ``TypeError`` on a ``float`` entry and
    ``ValueError`` on a negative column or one at or past ``m.ncols``.
    """
    single: set[int] = set()  # the columns of the single-entry rows
    rest: list[IntVec] = []
    rows = m.rows
    for k, row in enumerate(rows):
        rows[k] = None
        for v in row.values():
            if type(v) is not int or not v:
                row = _integral(row)
                break
        else:
            row = dict(row)  # elimination edits rows in place, never the caller's
        if len(row) > 1:
            rest.append(row)
        elif row:
            single.update(row)
    if single:
        for k, row in enumerate(rest):
            if not single.isdisjoint(row):
                rest[k] = {c: v for c, v in row.items() if c not in single}
        rest = [row for row in rest if row]

    stored: dict[int, IntVec] = {}  # leading column -> primitive integer row
    rest.sort(key=min, reverse=True)
    for k, row in enumerate(rest):
        rest[k] = None
        heap = [c for c in row if c in stored]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in row:
                row = _eliminate(row, p, stored[p], heap, stored)
        if row:
            stored[min(row)] = _primitive(row)

    for p in sorted(stored, reverse=True):
        row = stored[p]
        # the rows of later pivots are reduced already, so clearing one
        # pivot column never refills another
        clear = [c for c in row if c != p and c in stored]
        if clear:
            for q in clear:
                row = _eliminate(row, q, stored[q], [])
            stored[p] = _primitive(row)
    # every input row lies in the row space the output rows span, so a column
    # out of range in any input row is one in some output row
    ncols = m.ncols
    if max(single, default=-1) >= ncols or stored and max(map(max, stored.values())) >= ncols:
        raise ValueError(f"column index out of range for {ncols} columns")
    for c in single:
        stored[c] = {c: ONE}

    pivots = sorted(stored)
    if pivots and pivots[0] < 0:
        raise ValueError("negative column index")
    rows = []
    for p in pivots:  # popped, so that no integer row outlives its rational copy
        row = stored.pop(p)
        lead = row[p]
        if lead != 1:
            row = {c: v // lead if v % lead == 0 else Fraction(v, lead) for c, v in row.items()}
        rows.append(row)
    return Echelon(m.ncols, pivots, rows, {p: k for k, p in enumerate(pivots)})


def rank(m: SparseMatrix) -> int:
    """The rank of ``m``, whose rows ``rref`` takes over."""
    return rref(m).rank


def quotient_basis(span: SparseMatrix, ambient_size: int) -> tuple[list[int], Echelon]:
    """Indices of ambient monomials surviving the quotient, plus the reducer.

    The surviving monomials are the non-pivot columns; ``Echelon.reduce``
    rewrites any vector into coordinates on them.  ``rref`` takes the rows
    of ``span`` over: the caller's matrix is emptied (see ``rref``).
    """
    if span.ncols > ambient_size:
        raise ValueError("span has more columns than the ambient basis")
    span = SparseMatrix(ambient_size, span.rows)
    ech = rref(span)
    pivot_set = set(ech.pivots)
    basis = [i for i in range(ambient_size) if i not in pivot_set]
    return basis, ech
