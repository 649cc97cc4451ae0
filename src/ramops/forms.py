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
from math import lcm
from typing import Iterable

from .graphalg import Letter, R_PRESENTATION, relation_words
from .labels import Atom, atom_key, check_label_set
from .linalg import bump

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


def _letter_form(letter: Letter, scaled: dict[Atom, int], scale: int, bit: dict[Atom, int]) -> tuple[list, int]:
    """a -> 1/(x_i - x_j); b -> its differential; w -> dlog(x_i - x_j): the
    letter's terms (mask of its differential, integer numerator) over one
    positive denominator, from the coordinates times ``scale``."""
    which, i, j = letter
    if i == j:
        raise ValueError("generator needs distinct indices")
    diff = scaled[i] - scaled[j]
    if diff == 0:
        raise ValueError("sample point lies on a diagonal")
    # 1/(x_i - x_j) = scale/diff = num/den with den > 0
    num, den = (scale, diff) if diff > 0 else (-scale, -diff)
    if which == "a":
        return [(0, num)], den
    if which == "b":
        return [(bit[i], -num * num), (bit[j], num * num)], den * den
    if which == "w":
        return [(bit[i], num), (bit[j], -num)], den
    raise ValueError(f"unknown generator {which!r}")


def eval_element(
    terms: Iterable[tuple[int | Fraction, Iterable[Letter]]], point: SamplePoint
) -> EvaluatedForm:
    """Evaluate a rational combination of literal words, each by exterior
    multiplication of its letters in order.

    The differential dx_a is a bit, in ``atom_key`` order, and a wedge
    monomial the mask of its differentials: a product with a shared bit is
    zero, and putting dx_b after a monomial m costs the sign of the bits of
    m above b.  The coordinates are scaled to integers, and the terms of a
    letter share one denominator, so a word's terms are integer numerators
    over the product of its letters' denominators, made a ``Fraction`` once
    per word.  Each letter's form is made once per call.
    """
    atoms = sorted(point, key=atom_key)
    bit = {a: 1 << k for k, a in enumerate(atoms)}
    scale = lcm(*(x.denominator for x in point.values()))
    scaled = {a: x.numerator * (scale // x.denominator) for a, x in point.items()}
    letters: dict[Letter, tuple[list[tuple[int, int]], int]] = {}
    out: dict[int, Fraction] = {}
    for coeff, word in terms:
        acc: dict[int, int | Fraction] = {0: coeff}
        den = 1
        for letter in word:
            form = letters.get(letter)
            if form is None:
                form = letters[letter] = _letter_form(letter, scaled, scale, bit)
            product: dict[int, int | Fraction] = {}
            for m, c in acc.items():
                for b, cb in form[0]:
                    if not m & b:
                        bump(product, m | b, -c * cb if (m & -(b << 1)).bit_count() & 1 else c * cb)
            acc = product
            den *= form[1]
            if not acc:
                break
        for m, c in acc.items():
            bump(out, m, Fraction(c, den))
    return {tuple(a for a in atoms if m & bit[a]): c for m, c in out.items()}


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
