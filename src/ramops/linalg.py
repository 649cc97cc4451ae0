"""Exact sparse linear algebra over the rationals.

Everything downstream (operad quotients, algebra quotients, rank verdicts)
reduces to row elimination of sparse matrices with ``fractions.Fraction``
entries.  No floating point appears anywhere: a single wrong sign would
invalidate a verification, so all arithmetic is exact.

A sparse vector is a dict ``{column_index: Fraction}`` with no stored zeros.
A :class:`SparseMatrix` is a list of such rows plus a column count.  Column
order is supplied by the caller (it is the caller's monomial order); the
reduced row-echelon form of a row space is unique, so results are
deterministic and suitable for golden files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

ZERO = Fraction(0)
ONE = Fraction(1)

SparseVec = dict[int, Fraction]


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


@dataclass
class SparseMatrix:
    """Rows of sparse vectors over Fraction; ncols bounds the column indices."""

    ncols: int
    rows: list[SparseVec] = field(default_factory=list)

    def add_row(self, row: Mapping[int, Fraction]) -> None:
        clean = {c: v for c, v in row.items() if v}
        if clean:
            if max(clean) >= self.ncols:
                raise ValueError("column index out of range")
            self.rows.append(clean)

    @classmethod
    def from_dense(cls, dense: list[list[int | Fraction]]) -> "SparseMatrix":
        ncols = max((len(r) for r in dense), default=0)
        m = cls(ncols)
        for r in dense:
            m.add_row({i: Fraction(x) for i, x in enumerate(r) if x})
        return m


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

    def insert(self, row: Mapping[int, Fraction]) -> bool:
        """Reduce ``row`` against the echelon and absorb the remainder.

        Returns True when the row enlarged the row space.
        """
        work = dict(row)
        for piv, pos in self._pivot_pos.items():
            coef = work.get(piv)
            if coef:
                vec_add_scaled(work, self.rows[pos], -coef)
        if not work:
            return False
        lead = min(work)
        inv = ONE / work[lead]
        new_row = {c: v * inv for c, v in work.items()}
        # keep existing rows fully reduced (entries above the new pivot vanish)
        for pos, existing in enumerate(self.rows):
            coef = existing.get(lead)
            if coef:
                vec_add_scaled(existing, new_row, -coef)
        self.rows.append(new_row)
        self.pivots.append(lead)
        self._pivot_pos[lead] = len(self.rows) - 1
        if len(self.pivots) >= 2 and self.pivots[-2] > lead:
            order = sorted(range(len(self.pivots)), key=lambda k: self.pivots[k])
            self.pivots = [self.pivots[k] for k in order]
            self.rows = [self.rows[k] for k in order]
            self._pivot_pos = {p: k for k, p in enumerate(self.pivots)}
        return True

    def reduce(self, v: Mapping[int, Fraction]) -> SparseVec:
        """Normal form of ``v`` modulo the row space: no support on pivots."""
        work = dict(v)
        for piv in self.pivots:
            coef = work.get(piv)
            if coef:
                vec_add_scaled(work, self.rows[self._pivot_pos[piv]], -coef)
        return work

    def contains(self, v: Mapping[int, Fraction]) -> bool:
        return not self.reduce(v)


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon form; row space preserved, output canonical."""
    ech = Echelon(m.ncols)
    for row in m.rows:
        ech.insert(row)
    return ech


def rank(m: SparseMatrix) -> int:
    return rref(m).rank


def transpose(m: SparseMatrix) -> SparseMatrix:
    t = SparseMatrix(len(m.rows))
    cols: dict[int, SparseVec] = {}
    for i, row in enumerate(m.rows):
        for c, v in row.items():
            cols.setdefault(c, {})[i] = v
    for c in range(m.ncols):
        if c in cols:
            t.rows.append(cols[c])
    return t


def quotient_basis(span: SparseMatrix, ambient_size: int) -> tuple[list[int], Echelon]:
    """Indices of ambient monomials surviving the quotient, plus the reducer.

    The surviving monomials are the non-pivot columns; ``Echelon.reduce``
    rewrites any vector into coordinates on them.
    """
    if span.ncols > ambient_size:
        raise ValueError("span has more columns than the ambient basis")
    span = SparseMatrix(ambient_size, span.rows)
    ech = rref(span)
    pivot_set = set(ech.pivots)
    basis = [i for i in range(ambient_size) if i not in pivot_set]
    return basis, ech
