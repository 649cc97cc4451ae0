"""Atoms (finite-set labels), the two composition place-holders, bidegrees.

Components are indexed by finite sets of atoms.  An atom is a small integer
or a short string; the reserved atoms ``STAR`` and ``HASH`` mark the slots
used by composition and cocomposition.  A fixed total order on atoms (all
integers, then STAR, then HASH, then other strings) pins down every
canonical form in the engine.

A bidegree is a pair ``(h, w)``: ``h`` is the sign-carrying first degree
(the only one the Koszul rule sees), ``w`` is the weight.  Both add under
composition and multiplication.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Atom = int | str

STAR: Atom = "*"
HASH: Atom = "#"

BiDegree = tuple[int, int]


def atom_key(a: Atom) -> tuple:
    if isinstance(a, int):
        return (0, a, "")
    if a == STAR:
        return (1, 0, "")
    if a == HASH:
        return (1, 1, "")
    return (2, 0, a)


def sort_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(atoms, key=atom_key))


# label tuples that passed, with the types of their atoms: True and 1.0
# equal 1 (and hash alike) but are not the atom 1, so a tuple of them is
# checked, and refused, on its own
_CHECKED: dict[tuple, tuple[Atom, ...]] = {}


def check_label_set(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """The labels in atom order; raises ``ValueError`` on a repeat or on a
    label that is not an atom (a ``str`` or a non-bool ``int``)."""
    atoms = tuple(atoms)
    key = (atoms, tuple(map(type, atoms)))
    try:
        ordered = _CHECKED.get(key)
    except TypeError:  # an unhashable label
        ordered = None
    if ordered is None:
        for a in atoms:
            if type(a) not in (int, str):
                raise ValueError(f"label {a!r} is not an atom (a str or an int)")
        ordered = sort_atoms(atoms)
        for x, y in zip(ordered, ordered[1:]):
            if x == y:
                raise ValueError(f"duplicate label {x!r}")
        _CHECKED[key] = ordered
    return ordered


def standard_labels(n: int) -> tuple[Atom, ...]:
    """The reference label set {1, ..., n} used for cached components."""
    if n < 1:
        raise ValueError("need at least one label")
    return tuple(range(1, n + 1))


def ordered_splits(labels: tuple[Atom, ...], parts: int) -> Iterator[tuple[tuple, ...]]:
    """Every ordered split of the labels into ``parts`` nonempty blocks, each
    block in label order, in a fixed order (base-``parts`` assignment counting)."""
    n = len(labels)
    for assignment in range(parts**n):
        blocks: list[list] = [[] for _ in range(parts)]
        a = assignment
        for item in labels:
            blocks[a % parts].append(item)
            a //= parts
        if all(blocks):
            yield tuple(tuple(b) for b in blocks)
