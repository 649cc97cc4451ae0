"""The word-by-word forms evaluator, kept as the oracle of ``ramops.forms``.

Forms are dicts from sorted tuples of differentials to exact coefficients;
each letter is evaluated afresh and wedged in by sorting the merged
differentials and counting inversions.
"""

from fractions import Fraction
from typing import Iterable

from ramops.graphalg import Letter
from ramops.labels import atom_key
from ramops.linalg import bump, vec_add_scaled


def form_scalar(value: Fraction) -> dict:
    return {(): value} if value else {}


def form_wedge(f: dict, g: dict) -> dict:
    """Exterior product with shuffle signs; dx ^ dx = 0."""
    out: dict = {}
    for s1, c1 in f.items():
        set1 = set(s1)
        for s2, c2 in g.items():
            if set1 & set(s2):
                continue
            merged = tuple(sorted(s1 + s2, key=atom_key))
            inv = sum(1 for x in s1 for y in s2 if atom_key(y) < atom_key(x))
            bump(out, merged, c1 * c2 * (-1 if inv % 2 else 1))
    return out


def eval_generator(which: str, i, j, point: dict) -> dict:
    """a -> 1/(x_i - x_j); b -> its differential; w -> dlog(x_i - x_j)."""
    if i == j:
        raise ValueError("generator needs distinct indices")
    diff = point[i] - point[j]
    if diff == 0:
        raise ValueError("sample point lies on a diagonal")
    if which == "a":
        return form_scalar(Fraction(1) / diff)
    if which == "b":
        inv2 = Fraction(1) / (diff * diff)
        return {(i,): -inv2, (j,): inv2}
    if which == "w":
        inv = Fraction(1) / diff
        return {(i,): inv, (j,): -inv}
    raise ValueError(f"unknown generator {which!r}")


def eval_word(word: Iterable[Letter], point: dict) -> dict:
    """Evaluate a literal generator word by exterior multiplication in order."""
    acc = form_scalar(Fraction(1))
    for cname, i, j in word:
        acc = form_wedge(acc, eval_generator(cname, i, j, point))
        if not acc:
            return {}
    return acc


def eval_element(terms, point: dict) -> dict:
    """Evaluate a rational combination of literal words."""
    out: dict = {}
    for coeff, word in terms:
        vec_add_scaled(out, eval_word(word, point), Fraction(coeff))
    return out
