"""Exact-evaluation oracle: the relations probed against actual differential forms.

The model interprets ``a[i,j]`` as the function 1/(x_i - x_j) and ``b[i,j]``
as its de Rham differential -(dx_i - dx_j)/(x_i - x_j)**2, at an exact
rational sample point with pairwise-distinct coordinates.  A relation that
evaluates to a nonzero form at a single exact point definitely fails in the
model; holding at many random points is strong evidence, never proof, and
is reported as such.

Evaluation works on literal generator words (no quotient canonicalization),
so relations like a[i,j]**2 = 0 that fail in the model are genuinely probed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .graphalg import Letter, R_PRESENTATION, relation_words
from .labels import Atom, atom_key, check_label_set
from .linalg import bump, vec_add_scaled

SamplePoint = dict[Atom, Fraction]

# forms model: wedge monomial (sorted tuple of differentials) -> coefficient
EvaluatedForm = dict[tuple[Atom, ...], Fraction]


def random_sample_point(labels: Iterable[Atom], rng: random.Random) -> SamplePoint:
    """Distinct small rationals for every coordinate, off the diagonals."""
    labels = check_label_set(labels)
    point: SamplePoint = {}
    used: set[Fraction] = set()
    for a in labels:
        while True:
            val = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
            if val not in used:
                used.add(val)
                point[a] = val
                break
    return point


def form_scalar(value: Fraction) -> EvaluatedForm:
    return {(): value} if value else {}


def form_wedge(f: EvaluatedForm, g: EvaluatedForm) -> EvaluatedForm:
    """Exterior product with shuffle signs; dx ^ dx = 0."""
    out: EvaluatedForm = {}
    for s1, c1 in f.items():
        set1 = set(s1)
        for s2, c2 in g.items():
            if set1 & set(s2):
                continue
            merged = tuple(sorted(s1 + s2, key=atom_key))
            inv = sum(1 for x in s1 for y in s2 if atom_key(y) < atom_key(x))
            bump(out, merged, c1 * c2 * (-1 if inv % 2 else 1))
    return out


def eval_generator(which: str, i: Atom, j: Atom, point: SamplePoint) -> EvaluatedForm:
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


def eval_word(word: Iterable[Letter], point: SamplePoint) -> EvaluatedForm:
    """Evaluate a literal generator word by exterior multiplication in order."""
    acc = form_scalar(Fraction(1))
    for cname, i, j in word:
        acc = form_wedge(acc, eval_generator(cname, i, j, point))
        if not acc:
            return {}
    return acc


def eval_element(
    terms: Iterable[tuple[int | Fraction, Iterable[Letter]]], point: SamplePoint
) -> EvaluatedForm:
    """Evaluate a rational combination of literal words."""
    out: EvaluatedForm = {}
    for coeff, word in terms:
        vec_add_scaled(out, eval_word(word, point), Fraction(coeff))
    return out


# families the forms model is claimed to satisfy
FAMILIES_LISTED_FOR_FORMS = ("aa_sum", "ab_sum", "b_cycle")


def check_survey_args(n: int, trials: int) -> None:
    """Raise ``ValueError`` unless ``relation_survey`` takes n and trials."""
    if not 2 <= n <= 6:
        raise ValueError("the survey is bounded to 2 <= n <= 6")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def relation_survey(n: int, trials: int = 20, seed: int = 0) -> dict:
    """Evaluate every relation instance of each family of R at random exact
    points.

    Reports holds-always or fails-with-witness per family.  The witness pins
    the instance and the sample point, so a failure is reproducible.
    """
    check_survey_args(n, trials)
    labels = tuple(range(1, n + 1))
    rng = random.Random(seed)
    results = []
    for family in R_PRESENTATION.families:
        instances = relation_words(R_PRESENTATION, family, labels)
        witness = None
        for trial in range(trials):
            point = random_sample_point(labels, rng)
            for idx, inst in enumerate(instances):
                value = eval_element(inst, point)
                if value:
                    witness = {
                        "trial": trial,
                        "instance_index": idx,
                        "instance": [
                            [c, [list(letter) for letter in word]] for c, word in inst
                        ],
                        "point": {str(k): str(v) for k, v in sorted(point.items(), key=lambda kv: atom_key(kv[0]))},
                        "nonzero_terms": len(value),
                    }
                    break
            if witness:
                break
        results.append(
            {
                "family": family,
                "instances": len(instances),
                "trials": trials,
                "holds": witness is None,
                "listed_for_forms": family in FAMILIES_LISTED_FOR_FORMS,
                "witness": witness,
            }
        )
    return {
        "n": n,
        "seed": seed,
        "trials": trials,
        "families": results,
        "listed_families_hold": all(
            r["holds"] for r in results if r["listed_for_forms"]
        ),
    }
